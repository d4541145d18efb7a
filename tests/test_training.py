import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from heartfields import anatomy, inference, netcore, training
from heartfields.anatomy.labeling import AnatomicalLabel
from heartfields.training import (
    LAMBDA_REG,
    LatentTable,
    TrainConfig,
    bce_loss,
    dice_loss,
    latent_stats,
    prior_loss,
    prior_schedule,
    reg_loss,
    seg_loss,
    total_loss,
)


def random_labels(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 5, size=n)


# ------------------------------------------------------------------- losses


def test_seg_loss_saturated_is_tiny():
    t = random_labels(40, seed=1)
    logits = np.where(AnatomicalLabel.one_hot(t) > 0, 20.0, -20.0)
    assert seg_loss(logits, t)[0] < 1e-6


def test_bce_at_zero_logits_is_ln2():
    t = random_labels(30, seed=2)
    assert bce_loss(np.zeros((30, 5)), t)[0] == pytest.approx(np.log(2.0))


def test_seg_loss_rejects_bad_targets():
    bad = np.full((4, 5), 0.2)
    with pytest.raises(ValueError):
        seg_loss(np.zeros((4, 5)), bad)
    with pytest.raises(ValueError):
        seg_loss(np.zeros((4, 4)), random_labels(4))


@pytest.mark.parametrize("labels, match", [
    ([0, 5, 1], "labels must lie in 0-4"),
    (np.array([0.0, 1.0, 2.0]), "n integer labels"),  # a float would be cut to an int
    (np.array([0, 1]), "n integer labels"),
])
@pytest.mark.parametrize("loss_fn", [bce_loss, dice_loss, seg_loss])
def test_losses_take_n_integer_labels_of_the_legend(loss_fn, labels, match):
    with pytest.raises(ValueError, match=match):
        loss_fn(np.zeros((3, 5)), labels)


@pytest.mark.parametrize("loss_fn", [bce_loss, dice_loss, seg_loss])
def test_seg_loss_gradients_match_fd(loss_fn):
    rng = np.random.default_rng(3)
    t = random_labels(10, seed=3)
    z = rng.standard_normal((10, 5)) * 2.0
    _, grad = loss_fn(z, t)
    numeric = netcore.central_difference(lambda zz: loss_fn(zz, t)[0], z, 1e-6)
    assert netcore.relative_grad_error(grad, numeric) < 1e-4


def test_reg_loss_values():
    p = np.random.default_rng(4).standard_normal((20, 3))
    assert reg_loss(p, p)[0] == 0.0
    shifted = p.copy()
    shifted[:, 1] += 1.0
    assert reg_loss(shifted, p)[0] == pytest.approx(1.0 / 3.0)


def test_reg_loss_gradient():
    rng = np.random.default_rng(5)
    p = rng.standard_normal((8, 3))
    t = rng.standard_normal((8, 3))
    _, grad = reg_loss(p, t)
    numeric = netcore.central_difference(lambda x: reg_loss(x, t)[0], p, 1e-6)
    assert netcore.relative_grad_error(grad, numeric) < 1e-4


def test_prior_loss_values():
    assert prior_loss(np.zeros((3, 4)))[0] == 0.0
    h = np.zeros((2, 4))
    h[1, 0] = 1.0
    assert prior_loss(h)[0] == pytest.approx(0.5)
    rng = np.random.default_rng(6)
    codes = rng.standard_normal((5, 6))
    assert prior_loss(3.0 * codes)[0] == pytest.approx(9.0 * prior_loss(codes)[0])


def test_prior_loss_gradient():
    rng = np.random.default_rng(7)
    h = rng.standard_normal((4, 6))
    _, grad = prior_loss(h)
    numeric = netcore.central_difference(lambda x: prior_loss(x)[0], h, 1e-6)
    assert netcore.relative_grad_error(grad, numeric) < 1e-4


def test_prior_schedule_values():
    assert prior_schedule(0) == 0.0
    assert prior_schedule(50) == pytest.approx(0.5e-4)
    assert prior_schedule(100) == pytest.approx(1e-4)
    assert prior_schedule(250) == pytest.approx(1e-4)
    vals = [prior_schedule(e) for e in range(0, 300, 7)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        prior_schedule(-1)


def test_total_loss_arithmetic():
    # the regression scale factor divides: seg + reg/1000 + schedule * prior
    assert total_loss(1.0, 1000.0, 0.0, epoch=200) == pytest.approx(2.0)
    assert total_loss(0.0, 0.0, 0.0, epoch=0) == 0.0
    assert total_loss(1.0, 0.0, 123.0, epoch=0) == pytest.approx(1.0)  # warm-up zero
    s, r, p = 0.7, 421.0, 2.5
    expected = s + r / LAMBDA_REG + prior_schedule(40) * p
    assert total_loss(s, r, p, epoch=40) == pytest.approx(expected, rel=1e-12)


def test_total_loss_rejects_nonfinite():
    with pytest.raises(ValueError):
        total_loss(np.nan, 0.0, 0.0, epoch=1)


# -------------------------------------------------- gradients through a net


def test_seg_pipeline_gradient_wrt_params_and_latent():
    # loss(params, h) = seg_loss(net([x*s, h]), targets): check both grads
    rng = np.random.default_rng(8)
    net = netcore.init_params(netcore.ResidualMlp(3 + 4, 5, 16, 2), seed=9)
    xyz = rng.standard_normal((6, 3)) * 30
    t = random_labels(6, seed=10)
    h0 = rng.standard_normal(4) * 0.3

    def loss_of(params, h):
        probe = netcore.ResidualMlp(7, 5, 16, 2, params)
        return seg_loss(netcore.forward(probe, training.seg_inputs(xyz, h)), t)[0]

    value, g_h, g_params = training.through_net(
        net, training.seg_inputs(xyz, h0), lambda z: seg_loss(z, t), len(h0)
    )
    assert value == loss_of(net.parameters, h0)

    num_p = netcore.central_difference(lambda p: loss_of(p, h0), net.parameters, 1e-5)
    num_h = netcore.central_difference(lambda hh: loss_of(net.parameters, hh), h0, 1e-5)
    assert netcore.relative_grad_error(g_params, num_p) < 1e-4
    assert netcore.relative_grad_error(g_h, num_h) < 1e-4


def test_reg_pipeline_gradient_wrt_latent():
    # training's reg half: d(reg_loss(net([uvc, h]) * 100 mm) / LAMBDA_REG) / dh
    rng = np.random.default_rng(11)
    net = netcore.init_params(netcore.ResidualMlp(4 + 4, 3, 16, 2), seed=12)
    uvc = rng.uniform(0, 1, size=(5, 4))
    target = rng.standard_normal((5, 3)) * 20
    h0 = rng.standard_normal(4) * 0.3

    def loss_of(h):
        pred = netcore.forward(net, training.reg_inputs(uvc, h)) * training.REG_OUTPUT_SCALE
        return reg_loss(pred, target)[0] / LAMBDA_REG

    _, g_h, _ = training.through_net(
        net, training.reg_inputs(uvc, h0), lambda o: training._reg_share(o, target), len(h0),
        keep="inputs",
    )
    num_h = netcore.central_difference(loss_of, h0, 1e-5)
    assert netcore.relative_grad_error(g_h, num_h) < 1e-4


@pytest.mark.parametrize("keep", ["params", "inputs"])
def test_grad_scale_leaves_the_gradients_bits(keep):
    """A power-of-two upstream scale is undone exactly when no product
    leaves the normal range: float64 on an unsaturated net."""
    rng = np.random.default_rng(13)
    net = netcore.init_params(netcore.ResidualMlp(3 + 4, 5, 32, 2), seed=14)
    x = training.seg_inputs(rng.standard_normal((64, 3)) * 30, rng.standard_normal(4) * 0.3)
    t = random_labels(64, seed=15)
    plain, scaled = (
        training.through_net(net, x, lambda z: seg_loss(z, t), 4, keep, scale)
        for scale in (1.0, inference.GRAD_SCALE)
    )
    assert plain[0] == scaled[0]
    assert plain[1].tobytes() == scaled[1].tobytes()
    if keep == "params":
        assert plain[2].tobytes() == scaled[2].tobytes()
    else:
        assert plain[2] is None and scaled[2] is None


# ------------------------------------------------------------- latent stats


def test_latent_stats_symmetric_pair():
    v = np.array([1.0, -2.0, 0.5])
    st = latent_stats(np.vstack([v, -v]))
    np.testing.assert_allclose(st.mean, 0.0, atol=1e-12)


def test_latent_stats_identical_codes_regularized():
    codes = np.tile([0.5, -1.0], (4, 1))
    st = latent_stats(codes)
    assert np.all(np.isfinite(st.cov_inv))
    # inverse of the pure ridge: (eps I)^-1 with eps floored at 1e-18
    np.testing.assert_allclose(st.cov_inv, 1e18 * np.eye(2))


def test_latent_stats_inverse_accuracy():
    rng = np.random.default_rng(13)
    codes = rng.standard_normal((60, 8))
    st = latent_stats(codes)
    np.testing.assert_allclose(st.cov_inv @ np.cov(codes, rowvar=False), np.eye(8), atol=1e-5)


def test_latent_stats_needs_two():
    with pytest.raises(ValueError):
        latent_stats(np.ones((1, 4)))


# ---------------------------------------------------------------- sampling


@pytest.fixture(scope="module")
def mesh():
    topo = anatomy.build_template()
    return anatomy.generate_shape(topo, anatomy.ShapeParams())


def test_sample_seg_counts_and_errors(mesh):
    v = mesh.topology.vertex_count
    pts, labels = training.sample_seg_points(mesh, v + 500, seed=1)
    assert len(pts) == v + 500 and len(labels) == v + 500
    with pytest.raises(ValueError):
        training.sample_seg_points(mesh, v)


def test_sample_seg_labels_agree_with_oracle(mesh):
    # containment oracle: winding-number version of the same decision tree
    from heartfields.anatomy.labeling import winding_number_contains

    v = mesh.topology.vertex_count
    pts, labels = training.sample_seg_points(mesh, v + 200, seed=2)
    pts, labels = pts[v:], labels[v:]  # random points only (vertices are on-surface)
    heart = winding_number_contains(pts, *mesh.compartment("heart"))
    lv = winding_number_contains(pts, *mesh.compartment("lv_cavity"))
    rv = winding_number_contains(pts, *mesh.compartment("rv_cavity"))
    np.testing.assert_array_equal(labels > 0, heart)
    np.testing.assert_array_equal(labels == 1, lv)
    np.testing.assert_array_equal(labels == 2, rv)


def test_sample_seg_margin_gives_background(mesh):
    v = mesh.topology.vertex_count
    lo, hi = mesh.bounds()
    margin = 0.5 * np.linalg.norm(hi - lo)
    pts, labels = training.sample_seg_points(mesh, v + 2000, margin=margin, seed=3)
    bg_frac = np.mean(labels[v:] == 0)
    assert bg_frac >= 0.3


def test_sample_reg_counts(mesh):
    v = mesh.topology.vertex_count
    uvc, xyz = training.sample_reg_points(mesh, v, seed=4)
    np.testing.assert_array_equal(uvc, mesh.topology.uvc)
    np.testing.assert_array_equal(xyz, mesh.vertices)
    with pytest.raises(ValueError):
        training.sample_reg_points(mesh, v - 1)


def test_sample_reg_ranges_and_u2_uniform(mesh):
    v = mesh.topology.vertex_count
    n = v + 10000
    uvc, xyz = training.sample_reg_points(mesh, n, seed=5)
    assert uvc[:, 0].min() >= 0 and uvc[:, 0].max() <= 1
    assert uvc[:, 1].min() >= 0 and uvc[:, 1].max() <= 1
    assert uvc[:, 2].max() <= 1.5 and uvc[:, 3].max() <= 1.5
    u2 = np.sort(uvc[v:, 1])
    # one-sample Kolmogorov-Smirnov statistic against U(0,1)
    k = len(u2)
    ecdf_hi = np.arange(1, k + 1) / k
    ecdf_lo = np.arange(0, k) / k
    ks = max(np.abs(ecdf_hi - u2).max(), np.abs(u2 - ecdf_lo).max())
    assert ks < 0.05


# ------------------------------------------------------------- training loop


def tiny_cohort(n_shapes, topo, seg_n=2800, reg_n=2650):
    samples = []
    for i in range(n_shapes):
        m = anatomy.generate_shape(topo, anatomy.sample_params(100 + i))
        samples.append(
            training.build_sample(m, f"s{i:03d}", seg_n=seg_n, reg_n=reg_n, seed=i)
        )
    return samples


@pytest.fixture(scope="module")
def topo():
    return anatomy.build_template()


def tiny_config(**kw):
    base = dict(
        epochs=5,
        latent_dim=8,
        hidden_dim=16,
        num_blocks=2,
        seg_batch=256,
        reg_batch=64,
        lr_net=1e-3,
        lr_latent=1e-2,
        train_seed=0,
        dtype="float64",
    )
    base.update(kw)
    return TrainConfig(**base)


def test_train_config_checks_itself_when_built():
    """A config is checked when it is built, by ``dataclasses.replace``
    too, and is immutable, so no stage meets one it cannot run."""
    with pytest.raises(ValueError, match="^latent_dim must be at least 1, got 0$"):
        TrainConfig(latent_dim=0)
    with pytest.raises(ValueError, match="^dtype 'float16' is not one of float32, float64$"):
        dataclasses.replace(tiny_config(), dtype="float16")
    with pytest.raises(dataclasses.FrozenInstanceError):
        tiny_config().epochs = 3


def test_train_deterministic(topo):
    samples = tiny_cohort(4, topo)
    r1 = training.train(samples, tiny_config())
    r2 = training.train(samples, tiny_config())
    assert r1.log == r2.log
    np.testing.assert_array_equal(r1.seg_net.parameters, r2.seg_net.parameters)
    np.testing.assert_array_equal(r1.latents.codes, r2.latents.codes)


# sha256 of the trained nets, codes and log of a 4-shape, 5-epoch run with
# one validation shape; taken at commit a7e2ae3, whose backward always formed
# parameter gradients, validation shapes included; the codes are hashed
# widened to float64 (exact), as training returned them before it kept the
# nets' dtype
GOLDEN_TRAIN_SHA256 = {
    "float64": "61c7a43b76b91ec8ad6955e952c34cf61e26f020d04de671ec149c06e14d941c",
    "float32": "cf5ff1513300444b35af7154c1d96347019c30437e24f115ebebc45f99e306bd",
}


@pytest.mark.parametrize("dtype", sorted(GOLDEN_TRAIN_SHA256))
def test_train_golden(topo, dtype, golden_arithmetic):
    r = training.train(tiny_cohort(4, topo), tiny_config(dtype=dtype, val_fraction=0.25))
    assert len(r.val_ids) == 1
    assert r.latents.codes.dtype == dtype
    digest = hashlib.sha256()
    codes = r.latents.codes.astype(np.float64)
    for arr in (r.seg_net.parameters, r.reg_net.parameters, codes, np.array(r.log)):
        digest.update(arr.tobytes())
    assert digest.hexdigest() == GOLDEN_TRAIN_SHA256[dtype]


def test_validation_shapes_form_no_parameter_gradients(topo, monkeypatch):
    grads = []
    true_backward = netcore.backward

    def recording(net, inputs, upstream_grads, cache=None):
        g = true_backward(net, inputs, upstream_grads, cache)
        grads.append(g.param_grads is None)
        return g

    monkeypatch.setattr(netcore, "backward", recording)
    r = training.train(tiny_cohort(4, topo), tiny_config(epochs=3, val_fraction=0.25))
    assert len(r.val_ids) == 1
    # per step one seg and one reg backward; 3 epochs of 1 validation shape
    assert sum(grads) == 2 * 3 and len(grads) == 2 * 3 * 4


def test_train_reuses_one_buffer_set_per_network(topo, monkeypatch):
    """Every step's seg passes write into one buffer set and its reg passes
    into another, for the whole run, training and validation shapes alike."""
    seen = []
    true_forward, true_backward = netcore.forward_cached, netcore.backward

    def forward_cached(net, inputs, keep="params", buffers=None):
        seen.append((net.output_dim, buffers))
        return true_forward(net, inputs, keep=keep, buffers=buffers)

    def backward(net, inputs, upstream_grads, cache=None):
        seen.append((net.output_dim, cache.buffers))
        return true_backward(net, inputs, upstream_grads, cache)

    monkeypatch.setattr(netcore, "forward_cached", forward_cached)
    monkeypatch.setattr(netcore, "backward", backward)
    training.train(tiny_cohort(4, topo), tiny_config(epochs=3, val_fraction=0.25))
    # per step a forward and a backward of each net: 3 epochs of 4 shapes
    assert len(seen) == 2 * 2 * 3 * 4
    seg = [b for dim, b in seen if dim == len(AnatomicalLabel)]
    reg = [b for dim, b in seen if dim == 3]
    assert len(seg) == len(reg) == len(seen) // 2
    assert isinstance(seg[0], netcore.Buffers) and isinstance(reg[0], netcore.Buffers)
    assert seg[0] is not reg[0]
    assert all(b is seg[0] for b in seg) and all(b is reg[0] for b in reg)


def test_train_holds_no_more_than_its_working_set(topo):
    """The traced peak of a paper-net run stays within the working set the
    ``train`` docstring states, plus 1 MiB for the losses' small arrays and
    Python objects. It counts the bytes allocated, which glibc's heap and
    page reuse do not move as they move RSS."""
    cfg = TrainConfig(epochs=2)
    item = cfg.np_dtype.itemsize
    # as cmd_train loads them: point arrays in the compute dtype
    samples = [
        dataclasses.replace(s, seg_xyz=s.seg_xyz.astype(cfg.dtype),
                            reg_uvc=s.reg_uvc.astype(cfg.dtype), reg_xyz=s.reg_xyz.astype(cfg.dtype))
        for s in tiny_cohort(5, topo, seg_n=8000, reg_n=3000)
    ]
    nets = training.make_networks(cfg)

    def per_net(net, batch):
        params = 4 * net.n_params * item  # parameters, two moments, gradient
        slabs = batch * net.hidden_dim * ((2 * net.num_blocks + 1) * item + net.num_blocks + 1)
        passes = batch * (2 * net.input_dim + net.output_dim) * item
        return params + slabs + passes

    working = (per_net(nets[0], cfg.seg_batch) + per_net(nets[1], cfg.reg_batch)
               + 2 * max(n.n_params for n in nets) * item)
    tracemalloc.start()
    try:
        r = training.train(samples, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(r.val_ids) == 1  # a validation shape ran, so its masks are held
    assert peak <= working + 2**20, (peak, working)


def test_train_updates_everything(topo):
    samples = tiny_cohort(4, topo)
    cfg = tiny_config(epochs=1, val_fraction=0.0)
    seg0, reg0 = training.make_networks(cfg)
    r = training.train(samples, cfg)
    assert not np.array_equal(r.seg_net.parameters, seg0.astype(np.float64).parameters)
    assert not np.array_equal(r.reg_net.parameters, reg0.astype(np.float64).parameters)
    assert np.all(np.any(r.latents.codes != 0, axis=1))  # every code moved
    assert len(r.log) == 1


def test_train_loss_decreases(topo):
    samples = tiny_cohort(6, topo)
    r = training.train(samples, tiny_config(epochs=60, val_fraction=0.0))
    totals = [row[4] for row in r.log]
    assert np.mean(totals[-10:]) < np.mean(totals[:10])


def test_train_empty_cohort_errors():
    with pytest.raises(ValueError):
        training.train([], tiny_config())


def test_train_single_shape_overfit_accuracy(topo):
    # one shape: the classifier should fit its own points
    samples = tiny_cohort(1, topo, seg_n=2800, reg_n=2650)
    cfg = tiny_config(epochs=900, val_fraction=0.0, hidden_dim=32, seg_batch=768)
    r = training.train(samples, cfg)
    s = samples[0]
    pred = inference.predict_labels(r.seg_net, r.latents.codes[0], s.seg_xyz)
    acc = np.mean(pred == s.seg_labels)
    assert acc > 0.95
