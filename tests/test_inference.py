import hashlib
import math
from dataclasses import asdict

import numpy as np
import pytest

from heartfields import acquisition as acq
from heartfields import anatomy, inference, netcore, training
from heartfields.training import LatentStats, TrainConfig


@pytest.fixture(scope="module")
def topo():
    return anatomy.build_template()


@pytest.fixture(scope="module")
def small_model(topo):
    """A deliberately small model trained enough to be usable for the
    optimizer contracts (not for accuracy claims)."""
    meshes = [anatomy.generate_shape(topo, anatomy.sample_params(500 + i)) for i in range(6)]
    samples = [
        training.build_sample(m, f"t{i:03d}", seg_n=3400, reg_n=2800, seed=i)
        for i, m in enumerate(meshes)
    ]
    cfg = TrainConfig(
        epochs=220,
        latent_dim=4,  # fewer dims than shapes so the covariance is full rank
        hidden_dim=32,
        num_blocks=2,
        seg_batch=512,
        reg_batch=128,
        lr_net=2e-3,
        lr_latent=1e-2,
        val_fraction=0.0,
        train_seed=1,
        dtype="float64",
    )
    result = training.train(samples, cfg)
    return result, cfg, meshes, samples


def unit_stats(dim):
    return LatentStats(mean=np.zeros(dim), cov_inv=np.eye(dim))


# -------------------------------------------------------------- mahalanobis


def test_mahalanobis_at_mean_is_zero():
    st = unit_stats(4)
    assert inference.mahalanobis(np.zeros(4), st)[0] == 0.0


def test_mahalanobis_identity_cov_is_sq_norm():
    st = unit_stats(6)
    z = np.array([3.0, 4.0, 0, 0, 0, 0])
    assert inference.mahalanobis(z, st)[0] == pytest.approx(25.0)


def test_mahalanobis_diagonal_cov():
    dim = 5
    st = LatentStats(mean=np.zeros(dim), cov_inv=np.eye(dim) / 4.0)
    z = np.zeros(dim)
    z[0] = 1.0
    assert inference.mahalanobis(z, st)[0] == pytest.approx(0.25)


def test_mahalanobis_dim_mismatch():
    with pytest.raises(ValueError):
        inference.mahalanobis(np.zeros(3), unit_stats(4))


def test_mahalanobis_gradient():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5))
    cov = a @ a.T + np.eye(5)
    st = LatentStats(mean=rng.standard_normal(5), cov_inv=np.linalg.inv(cov))
    z = rng.standard_normal(5)
    _, grad = inference.mahalanobis(z, st)
    num = netcore.central_difference(lambda zz: inference.mahalanobis(zz, st)[0], z, 1e-6)
    assert netcore.relative_grad_error(grad, num) < 1e-4


# ------------------------------------------------------------------ weights


def ideal_weights(steps, max_points):
    """The weights of the pipeline's ideal condition (``harness.CONDITIONS``)
    at its default learning rate, for ``steps`` over ``max_points`` points."""
    return inference.InferenceWeights(
        lambda_bce=10.0, steps=steps, max_points=max_points, lr=1e-2
    )


def test_weight_presets():
    w = ideal_weights(7, 100)
    assert (w.lambda_bce, w.steps, w.max_points, w.lr) == (10.0, 7, 100, 1e-2)
    bad = [("lambda_bce", -1.0), ("lambda_bce", math.nan), ("lambda_bce", math.inf),
           ("steps", 0), ("lr", math.nan), ("lr", 0.0), ("lr", -1.0), ("lr", math.inf),
           ("max_points", 0)]
    for field, value in bad:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            inference.InferenceWeights(**{**asdict(w), field: value})
    # no field has a default: a run's condition and config set them all
    with pytest.raises(TypeError):
        inference.InferenceWeights(lambda_bce=10.0, steps=7, max_points=100)


# -------------------------------------------------------- latent optimization


def test_optimize_latent_respects_frozen_net_and_trace(topo, small_model):
    result, cfg, meshes, samples = small_model
    contours = acq.acquire(meshes[0], "t000", density=4.0)
    before = hashlib.sha256(result.seg_net.parameters.tobytes()).hexdigest()
    w = ideal_weights(60, 800)
    rec = inference.optimize_latent(contours, result.seg_net, result.stats, w)
    after = hashlib.sha256(result.seg_net.parameters.tobytes()).hexdigest()
    assert before == after
    assert len(rec.loss_trace) == w.steps + 1
    assert np.all(np.isfinite(rec.loss_trace))
    # best-so-far contract: the returned loss is the minimum of the trace
    assert rec.loss_trace.min() == pytest.approx(
        evaluate_loss(rec, contours, result, cfg, w), rel=1e-6
    )


def test_optimize_latent_holds_the_classifier_read_only(topo, monkeypatch):
    """A write to the classifier's parameters during the fit raises where
    it happens and leaves the caller's parameters as they were."""
    mesh = anatomy.generate_shape(topo, anatomy.sample_params(500))
    contours = acq.acquire(mesh, "g000", density=6.0)
    net = netcore.init_params(netcore.ResidualMlp(3 + 4, 5, hidden_dim=32, num_blocks=2), 5)
    before = net.parameters.copy()
    forward_cached = netcore.forward_cached

    def writing(net, inputs, keep="params", buffers=None):
        net.parameters[0] += 1.0
        return forward_cached(net, inputs, keep=keep, buffers=buffers)

    monkeypatch.setattr(netcore, "forward_cached", writing)
    stats = training.latent_stats(np.random.default_rng(6).standard_normal((8, 4)) * 0.3)
    with pytest.raises(ValueError, match="read-only"):
        inference.optimize_latent(contours, net, stats, ideal_weights(3, 200))
    np.testing.assert_array_equal(net.parameters, before)
    assert net.parameters.flags.writeable


# sha256 of optimize_latent's latent and loss-trace bytes for a fixed
# random-init classifier (latent 4, 32x2 blocks) on one shape's 6 mm grid
# points, 30 steps over 500 of them; taken at commit a7e2ae3, whose backward
# always formed parameter gradients, so they pin the bits of the fit; the
# float64 digest was re-taken when a mesh's landmarks became those of its
# vertices, which moves the grid points by a few ulp; the latent is hashed
# widened to float64 (exact), as the fit returned it before it kept the
# classifier's dtype
GOLDEN_LATENT_FIT_SHA256 = {
    "float64": "947447967376f0767758dfe7f8a8f93c41906d59716b46dde6844bcafd22064c",
    "float32": "ac0c438b9cafe54f17dc6de06590396406d9700b2de3b1a628d69c4013a7b74d",
}


@pytest.mark.parametrize("dtype", sorted(GOLDEN_LATENT_FIT_SHA256))
def test_optimize_latent_golden(topo, dtype, golden_arithmetic):
    mesh = anatomy.generate_shape(topo, anatomy.sample_params(500))
    contours = acq.acquire(mesh, "g000", density=6.0)
    net = netcore.init_params(netcore.ResidualMlp(3 + 4, 5, hidden_dim=32, num_blocks=2), 5)
    stats = training.latent_stats(np.random.default_rng(6).standard_normal((8, 4)) * 0.3)
    w = ideal_weights(30, 500)
    rec = inference.optimize_latent(contours, net.astype(dtype), stats, w)
    assert rec.latent.dtype == dtype
    latent = rec.latent.astype(np.float64)
    digest = hashlib.sha256(latent.tobytes() + rec.loss_trace.tobytes()).hexdigest()
    assert digest == GOLDEN_LATENT_FIT_SHA256[dtype]


def test_optimize_latent_forms_no_parameter_gradients(topo, small_model, monkeypatch):
    result, cfg, meshes, _ = small_model
    calls = []
    true_forward, true_backward = netcore.forward, netcore.backward

    def forward(net, inputs):
        calls.append("forward")
        return true_forward(net, inputs)

    def backward(net, inputs, upstream_grads, cache=None):
        g = true_backward(net, inputs, upstream_grads, cache)
        calls.append(("backward", g.param_grads is None))
        return g

    monkeypatch.setattr(netcore, "forward", forward)
    monkeypatch.setattr(netcore, "backward", backward)
    contours = acq.acquire(meshes[0], "t000", density=6.0)
    w = ideal_weights(7, 300)
    inference.optimize_latent(contours, result.seg_net, result.stats, w)
    assert calls == [("backward", True)] * 8


def test_each_fit_reuses_one_buffer_set(topo, small_model, monkeypatch):
    """Every evaluation of a fit writes into one buffer set; the next fit
    makes its own."""
    result, cfg, meshes, _ = small_model
    seen = []
    true_backward = netcore.backward

    def backward(net, inputs, upstream_grads, cache=None):
        seen.append(cache.buffers)
        return true_backward(net, inputs, upstream_grads, cache)

    monkeypatch.setattr(netcore, "backward", backward)
    contours = acq.acquire(meshes[0], "t000", density=6.0)
    w = ideal_weights(4, 300)
    for _ in range(2):
        inference.optimize_latent(contours, result.seg_net, result.stats, w)
    first, second = seen[:5], seen[5:]
    assert len(second) == 5 and isinstance(first[0], netcore.Buffers)
    assert all(b is first[0] for b in first) and all(b is second[0] for b in second)
    assert first[0] is not second[0]


def test_saturated_fit_scales_its_upstream_out_of_subnormals(topo, monkeypatch):
    """A classifier pushed to |logit| >= 200 gives float32 BCE + Dice
    upstream entries below float32's smallest normal; the fit's scaled
    upstream holds none, and its float32 code gradient matches the float64
    one to within 1e-5 of the largest entry (float32 eps is 1.2e-7)."""
    mesh = anatomy.generate_shape(topo, anatomy.sample_params(500))
    contours = acq.acquire(mesh, "g000", density=6.0)
    stats = training.latent_stats(np.random.default_rng(6).standard_normal((8, 4)) * 0.3)
    net = netcore.init_params(netcore.ResidualMlp(3 + 4, 5, hidden_dim=16, num_blocks=2), 5)
    net.views()[3][:] *= 100.0  # the output projection
    true_backward = netcore.backward
    seen = {}

    def backward(net, inputs, upstream_grads, cache=None):
        seen["upstream"] = upstream_grads.copy()
        seen["logits"] = netcore.forward(net, inputs)
        return true_backward(net, inputs, upstream_grads, cache)

    monkeypatch.setattr(netcore, "backward", backward)
    w = ideal_weights(1, 500)
    code_grad = {}
    for dtype in (np.float64, np.float32):
        fun = inference.fit_objective(net.astype(dtype), stats, *fit_points(contours, w),
                                      w.lambda_bce)
        code_grad[dtype] = fun(stats.mean.astype(dtype))[1].astype(np.float64)

    assert np.abs(seen["logits"]).max() >= 200.0
    tiny = np.finfo(np.float32).tiny
    magnitude = np.abs(seen["upstream"][seen["upstream"] != 0])
    assert np.count_nonzero(magnitude < tiny * inference.GRAD_SCALE) > 0  # subnormal unscaled
    assert magnitude.min() >= tiny
    error = np.abs(code_grad[np.float32] - code_grad[np.float64]).max()
    assert error <= 1e-5 * np.abs(code_grad[np.float64]).max()


def test_fit_gradient_matches_finite_differences(topo):
    """The code gradient of the float64 fit's objective is the gradient of
    LAMBDA_R * Mahalanobis + lambda_bce * BCE + Dice over every grid point,
    through the classifier at GRAD_SCALE. It is checked away from the prior
    mean, where the prior's gradient vanishes."""
    mesh = anatomy.generate_shape(topo, anatomy.sample_params(500))
    contours = acq.acquire(mesh, "g000", density=6.0)
    pts, labels = contours.all_points(kind=acq.KIND_GRID)
    stats = training.latent_stats(np.random.default_rng(6).standard_normal((8, 4)) * 0.3)
    net = netcore.init_params(netcore.ResidualMlp(3 + 4, 5, hidden_dim=16, num_blocks=2), 5)
    lambda_bce = 10.0
    fun = inference.fit_objective(net, stats, pts, labels, lambda_bce)

    def objective(code):
        logits = netcore.forward(net, training.seg_inputs(pts, code))
        return (inference.LAMBDA_R * inference.mahalanobis(code, stats)[0]
                + lambda_bce * training.bce_loss(logits, labels)[0]
                + training.dice_loss(logits, labels)[0])

    # ~0.5 per entry from the mean, so the prior's share of the gradient is
    # not negligible
    code, step = stats.mean + np.array([0.5, -0.4, 0.6, -0.5]), 1e-6
    assert np.abs(code - stats.mean).min() > 0.1
    numeric = netcore.central_difference(objective, code, step)
    assert netcore.relative_grad_error(fun(code)[1], numeric) < 1e-4


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_fit_returns_the_iterate_of_its_least_loss(topo, small_model, dtype):
    """The minimum of a fit's trace is its objective at the returned latent,
    bit for bit."""
    result, _, meshes, _ = small_model
    contours = acq.acquire(meshes[0], "t000", density=4.0)
    net = result.seg_net.astype(dtype)
    w = ideal_weights(60, 800)
    rec = inference.optimize_latent(contours, net, result.stats, w)
    fun = inference.fit_objective(net, result.stats, *fit_points(contours, w), w.lambda_bce)
    assert rec.loss_trace.min() == fun(rec.latent)[0]


def fit_points(contours, w):
    """The grid points and labels a fit with weights ``w`` and seed 0 chooses."""
    pts, labels = contours.all_points(kind=acq.KIND_GRID)
    if len(pts) > w.max_points:
        pick = np.random.default_rng(0).choice(len(pts), size=w.max_points, replace=False)
        pts, labels = pts[pick], labels[pick]
    return pts, labels


def evaluate_loss(rec, contours, result, cfg, w):
    pts, labels = fit_points(contours, w)
    x = training.seg_inputs(pts, rec.latent)
    logits = netcore.forward(result.seg_net, x)
    return (
        inference.LAMBDA_R * inference.mahalanobis(rec.latent, result.stats)[0]
        + w.lambda_bce * training.bce_loss(logits, labels)[0]
        + training.dice_loss(logits, labels)[0]
    )


def test_optimize_latent_beats_training_code(topo, small_model):
    # the training code for the same shape is a feasible point: the
    # optimizer must match or beat its objective value
    result, cfg, meshes, samples = small_model
    contours = acq.acquire(meshes[1], "t001", density=4.0)
    w = ideal_weights(250, 1200)
    rec = inference.optimize_latent(contours, result.seg_net, result.stats, w)
    h0 = result.latents.codes[result.latents.shape_ids.index("t001")]
    rec0 = inference.ReconstructionResult(latent=h0, loss_trace=np.zeros(1), n_points=0)
    loss_opt = evaluate_loss(rec, contours, result, cfg, w)
    loss_h0 = evaluate_loss(rec0, contours, result, cfg, w)
    assert loss_opt <= loss_h0 + 1e-6


def test_optimize_latent_prior_dominated_limit(topo, small_model, monkeypatch):
    result, cfg, meshes, _ = small_model
    contours = acq.acquire(meshes[2], "t002", density=4.0)
    monkeypatch.setattr(inference, "LAMBDA_R", 1e6)
    w = ideal_weights(300, 400)
    rec = inference.optimize_latent(contours, result.seg_net, result.stats, w)
    assert np.linalg.norm(rec.latent - result.stats.mean) < 1e-3


def test_optimize_latent_sustained_divergence_aborts(topo, small_model):
    # a mean absurdly far from the data manifold keeps the loss above the
    # blow-up threshold for many consecutive steps
    result, cfg, meshes, _ = small_model
    contours = acq.acquire(meshes[0], "t000", density=6.0)
    dim = result.stats.mean.size
    crazy = LatentStats(mean=np.full(dim, 1e7), cov_inv=np.eye(dim))
    w = ideal_weights(50, 200)
    with pytest.raises(FloatingPointError):
        inference.optimize_latent(contours, result.seg_net, crazy, w)


def test_optimize_latent_single_label_errors(topo, small_model):
    result, cfg, meshes, _ = small_model
    plane = acq.SlicePlane("sax00", [0, 0, 200.0], [0, 0, 1.0], [1.0, 0, 0], [0, 1.0, 0])
    s = acq.slice_mesh(meshes[0], plane, density=8.0)  # far away: all BG
    cs = acq.ContourSet("bg", [s])
    w = ideal_weights(5, 2500)
    with pytest.raises(ValueError):
        inference.optimize_latent(cs, result.seg_net, result.stats, w)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("max_points", [1])
def test_optimize_latent_checks_the_labels_it_fits(topo, small_model, max_points):
    # the whole grid carries every label; a budget of 1 point cannot (a
    # budget of 0 is rejected by InferenceWeights, see test_weight_presets)
    result, cfg, meshes, _ = small_model
    contours = acq.acquire(meshes[0], "t000", density=6.0)
    w = ideal_weights(5, max_points)
    with pytest.raises(ValueError, match="2 distinct labels"):
        inference.optimize_latent(contours, result.seg_net, result.stats, w)


# ------------------------------------------------------------- predict mesh


def test_predict_mesh_deterministic_and_nondegenerate(topo, small_model):
    result, cfg, meshes, _ = small_model
    h1 = result.latents.codes[0]
    h2 = result.latents.codes[1]
    m1 = inference.predict_mesh(result.reg_net, h1, topo)
    m1b = inference.predict_mesh(result.reg_net, h1, topo)
    m2 = inference.predict_mesh(result.reg_net, h2, topo)
    np.testing.assert_array_equal(m1.vertices, m1b.vertices)
    assert not np.array_equal(m1.vertices, m2.vertices)
    assert m1.vertices.shape == (topo.vertex_count, 3)


def test_predict_mesh_close_to_training_shape(topo, small_model):
    # decoding a training code should roughly reproduce that shape
    from heartfields.metrics import corresponding_ed

    result, cfg, meshes, _ = small_model
    idx = result.latents.shape_ids.index("t000")
    pred = inference.predict_mesh(result.reg_net, result.latents.codes[idx], topo)
    ed, _ = corresponding_ed(pred.vertices, meshes[0].vertices)
    assert ed < 8.0  # small model, loose bound; tightened in acceptance


# ------------------------------------------------------------ dense labels


def test_dense_labels_grid_free(topo, small_model):
    result, cfg, meshes, _ = small_model
    h = result.latents.codes[0]
    # the same physical point queried through two different grids
    a = inference.predict_dense_labels(result.seg_net, h, origin=(0, 0, 0), spacing=4.0, dims=(4, 4, 4))
    b = inference.predict_dense_labels(result.seg_net, h, origin=(0, 0, 0), spacing=2.0, dims=(8, 8, 8))
    np.testing.assert_array_equal(a, b[::2, ::2, ::2])


def test_dense_labels_span_chunks_in_c_order(small_model):
    """A volume of more voxels than one classifier chunk holds gets the
    labels of its voxel centers listed in C order."""
    result, _, _, _ = small_model
    h = result.latents.codes[0]
    origin, dims = np.array([-60.0, -50.0, -40.0]), (41, 40, 41)  # 67240 voxels
    ii, jj, kk = np.meshgrid(*(np.arange(d) for d in dims), indexing="ij")
    centers = origin + 3.0 * np.column_stack([ii.ravel(), jj.ravel(), kk.ravel()])
    want = inference.predict_labels(result.seg_net, h, centers).reshape(dims)
    got = inference.predict_dense_labels(result.seg_net, h, origin, 3.0, dims)
    assert got.dtype == np.uint8 and len(np.unique(got)) > 1
    np.testing.assert_array_equal(got, want)


def test_dense_labels_far_grid_is_background(topo, small_model):
    result, cfg, meshes, _ = small_model
    h = result.latents.codes[0]
    far = inference.predict_dense_labels(
        result.seg_net, h, origin=(500.0, 500.0, 500.0), spacing=2.0, dims=(3, 3, 3)
    )
    assert np.all(far == 0)


def test_dense_labels_zero_dim_errors(topo, small_model):
    result, _, _, _ = small_model
    with pytest.raises(ValueError):
        inference.predict_dense_labels(result.seg_net, result.latents.codes[0], (0, 0, 0), 1.0, (0, 4, 4))


def test_label_box_covers_the_vertices_with_a_margin():
    verts = np.array([[0.0, 0.0, 0.0], [40.0, 5.0, 0.0]])
    origin, dims = inference.label_box(verts, 4.0)
    np.testing.assert_array_equal(origin, [-10.0, -10.0, -10.0])
    np.testing.assert_array_equal(dims, [16, 7, 6])  # 60, 25 and 20 mm across
    # a spacing past the box's extent still leaves one voxel per axis
    np.testing.assert_array_equal(inference.label_box(verts, 1e9)[1], [1, 1, 1])


def test_label_volume_roundtrip(tmp_path, load_label_volume):
    labels = np.random.default_rng(3).integers(0, 5, size=(5, 6, 7)).astype(np.uint8)
    base = tmp_path / "vol"
    inference.write_label_data(f"{base}.u8", labels)
    inference.write_label_header(f"{base}.json", labels, origin=(1.0, 2.0, 3.0), spacing=2.0)
    back, header = load_label_volume(base)
    np.testing.assert_array_equal(back, labels)
    assert header["spacing"] == 2.0
    assert header["dims"] == [5, 6, 7]
    assert header["labels"]["0"] == "BG"
