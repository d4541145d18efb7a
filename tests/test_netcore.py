import numpy as np
import pytest

from heartfields import netcore
from heartfields.netcore import (
    OptimizerState,
    ResidualMlp,
    adam_step,
    backward,
    finite_diff_check,
    forward,
    init_params,
    param_count,
)


def small_net(input_dim=8, output_dim=5, hidden=16, blocks=2, seed=3):
    net = ResidualMlp(input_dim, output_dim, hidden_dim=hidden, num_blocks=blocks)
    return init_params(net, seed)


@pytest.mark.parametrize(
    "dims", [(3, 5, 128, 8), (4, 3, 128, 8), (8, 5, 16, 2), (1, 1, 4, 0), (7, 2, 9, 3)]
)
def test_param_count_formula(dims):
    d_in, d_out, h, nb = dims
    net = ResidualMlp(d_in, d_out, hidden_dim=h, num_blocks=nb)
    assert net.parameters.size == param_count(d_in, d_out, h, nb)
    # the layout slicing must consume exactly the whole vector
    net.views()


def test_zero_parameters_give_zero_output():
    net = ResidualMlp(3, 5, hidden_dim=16, num_blocks=2)
    x = np.random.default_rng(0).standard_normal((10, 3))
    assert np.all(forward(net, x) == 0.0)


def test_zeroed_block_is_identity_skip():
    net = small_net(input_dim=4, output_dim=4, hidden=8, blocks=1)
    w_in, b_in, blocks, _, _ = net.views()
    for arr in blocks[0]:
        arr[:] = 0.0
    x = np.random.default_rng(1).standard_normal((6, 4))
    # with the block zeroed, output = (x W_in + b_in) W_out + b_out
    _, _, _, w_out, b_out = net.views()
    expected = (x @ w_in + b_in) @ w_out + b_out
    np.testing.assert_array_equal(forward(net, x), expected)


def test_forward_deterministic():
    net = small_net()
    x = np.random.default_rng(2).standard_normal((17, 8))
    y1 = forward(net, x)
    y2 = forward(net, x)
    assert np.array_equal(y1, y2)


def test_forward_shape_errors():
    net = small_net()
    with pytest.raises(ValueError):
        forward(net, np.zeros((4, 7)))
    with pytest.raises(ValueError):
        forward(net, np.array([[1.0, np.nan] + [0.0] * 6]))
    with pytest.raises(ValueError, match="keep"):
        netcore.forward_cached(net, np.zeros((2, 8)), keep=True)


def test_bad_parameter_vector_rejected():
    n = param_count(3, 2, 4, 1)
    with pytest.raises(ValueError):
        ResidualMlp(3, 2, 4, 1, np.zeros(n + 1))
    bad = np.zeros(n)
    bad[0] = np.inf
    with pytest.raises(ValueError):
        ResidualMlp(3, 2, 4, 1, bad)


def test_backward_zero_upstream():
    net = small_net()
    x = np.random.default_rng(4).standard_normal((5, 8))
    g = backward(net, x, np.zeros((5, 5)))
    assert np.all(g.param_grads == 0.0)
    assert np.all(g.input_grads == 0.0)


def test_backward_linear_net_input_grad_is_w_transpose():
    # 0 blocks: y = (x W_in + b_in) W_out + b_out, so dx = g (W_in W_out)^T
    net = ResidualMlp(3, 2, hidden_dim=4, num_blocks=0)
    init_params(net, 7)
    w_in, _, _, w_out, _ = net.views()
    x = np.random.default_rng(5).standard_normal((1, 3))
    g = np.array([[0.3, -1.2]])
    grads = backward(net, x, g)
    np.testing.assert_allclose(grads.input_grads, g @ (w_in @ w_out).T, atol=1e-12)


def test_backward_shape_errors():
    net = small_net()
    x = np.zeros((3, 8))
    with pytest.raises(ValueError):
        backward(net, x, np.zeros((2, 5)))
    _, inputs_only = netcore.forward_cached(net, x, keep="inputs")
    with pytest.raises(ValueError):
        backward(net, x, np.zeros((2, 5)), cache=inputs_only)
    up = np.zeros((3, 5))
    up[0, 0] = np.nan
    with pytest.raises(ValueError):
        backward(net, x, up)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dims", [(8, 5, 16, 2), (67, 5, 32, 3), (3, 2, 4, 0)])
def test_input_only_backward_matches_full(dtype, dims):
    d_in, d_out, hidden, blocks = dims
    net = small_net(d_in, d_out, hidden, blocks, seed=21).astype(dtype)
    rng = np.random.default_rng(22)
    x = rng.standard_normal((300, d_in))
    up = rng.standard_normal((300, d_out))
    y_full, full = netcore.forward_cached(net, x, keep="params")
    y_lean, lean = netcore.forward_cached(net, x, keep="inputs")
    assert np.array_equal(y_lean, y_full)
    assert np.array_equal(forward(net, x), y_full)
    g_full = backward(net, x, up, cache=full)
    g_lean = backward(net, x, up, cache=lean)
    assert g_lean.param_grads is None
    assert g_full.param_grads.shape == (net.n_params,)
    assert g_lean.input_grads.dtype == g_full.input_grads.dtype == dtype
    assert np.array_equal(g_lean.input_grads, g_full.input_grads)


def test_input_gradients_through_lean_cache_match_finite_differences():
    net = small_net(input_dim=8, output_dim=5, hidden=16, blocks=2, seed=23)
    rng = np.random.default_rng(24)
    x = rng.standard_normal((4, 8))
    up = rng.standard_normal((4, 5))
    _, cache = netcore.forward_cached(net, x, keep="inputs")
    analytic = backward(net, x, up, cache=cache).input_grads
    numeric = np.empty_like(x)
    step = 1e-5
    for idx in np.ndindex(x.shape):
        hi, lo = x.copy(), x.copy()
        hi[idx] += step
        lo[idx] -= step
        numeric[idx] = np.sum(up * (forward(net, hi) - forward(net, lo))) / (2 * step)
    assert netcore.relative_grad_error(analytic, numeric) < 1e-6


def cached_arrays(cache):
    for field in cache:
        for item in field if isinstance(field, list) else [field]:
            if isinstance(item, np.ndarray):
                yield item


def test_lean_cache_holds_no_float_arrays():
    net = small_net(blocks=3)
    x = np.random.default_rng(25).standard_normal((50, 8))
    _, lean = netcore.forward_cached(net, x, keep="inputs")
    arrays = list(cached_arrays(lean))
    assert len(arrays) == net.num_blocks
    assert all(a.dtype == bool and a.shape == (50, net.hidden_dim) for a in arrays)
    # the full cache keeps masks, not pre-activations, besides its float arrays
    _, full = netcore.forward_cached(net, x, keep="params")
    assert all(m.dtype == bool for m in full.masks)
    assert sum(a.dtype != bool for a in cached_arrays(full)) == 2 + 2 * net.num_blocks
    assert netcore.forward_cached(net, x, keep=None)[1] is None


def test_gradients_match_finite_differences():
    net = small_net(input_dim=8, output_dim=5, hidden=16, blocks=2, seed=11)
    x = np.random.default_rng(12).standard_normal((4, 8))
    assert finite_diff_check(net, x) < 1e-4


def test_finite_diff_check_zero_net():
    # weight gradients are 0/0 and report 0; the output-bias gradient is
    # exactly linear so FD agrees to rounding error
    net = ResidualMlp(3, 2, hidden_dim=4, num_blocks=1)
    assert finite_diff_check(net, np.zeros((2, 3))) < 1e-12


def test_finite_diff_check_catches_corruption(monkeypatch):
    # flip the sign of one weight-gradient block and the check must blow up
    net = small_net(input_dim=6, output_dim=3, hidden=8, blocks=1, seed=13)
    x = np.random.default_rng(14).standard_normal((3, 6))
    true_backward = netcore.backward

    def corrupted(net, inputs, upstream_grads, cache=None):
        g = true_backward(net, inputs, upstream_grads, cache)
        g.param_grads[: net.input_dim * net.hidden_dim] *= -1.0
        return g

    monkeypatch.setattr(netcore, "backward", corrupted)
    assert finite_diff_check(net, x) > 1e-1


def test_adam_zero_grad_keeps_params():
    params = np.array([1.0, -2.0, 3.0])
    state = OptimizerState.for_params(params)
    adam_step(params, np.zeros(3), state, 0.1)
    np.testing.assert_array_equal(params, [1.0, -2.0, 3.0])
    assert state.step_count == 1


def test_adam_first_step_magnitude_is_lr():
    # scalar param, grad 1: bias correction gives m_hat/sqrt(v_hat) = 1
    params = np.array([0.0])
    state = OptimizerState.for_params(params)
    adam_step(params, np.array([1.0]), state, 1e-2)
    np.testing.assert_allclose(params, [-1e-2], rtol=1e-6)


def test_adam_constant_grad_descends():
    params = np.array([0.5])
    state = OptimizerState.for_params(params)
    prev = params[0]
    for _ in range(10):
        adam_step(params, np.array([2.0]), state, 1e-3)
        assert params[0] < prev
        prev = params[0]


def test_adam_rejects_nonfinite_grad():
    params = np.zeros(4)
    state = OptimizerState.for_params(params)
    g = np.zeros(4)
    g[2] = np.inf
    with pytest.raises(ValueError, match="index 2"):
        adam_step(params, g, state, 1e-4)


def test_init_deterministic():
    a = init_params(ResidualMlp(5, 2, 8, 1), 42).parameters
    b = init_params(ResidualMlp(5, 2, 8, 1), 42).parameters
    assert np.array_equal(a, b)


def test_adam_rejects_grad_of_another_dtype():
    params = np.zeros(4, dtype=np.float32)
    state = OptimizerState.for_params(params)
    with pytest.raises(ValueError, match="float64.*float32"):
        adam_step(params, np.ones(4), state, 1e-3)
    state64 = OptimizerState(np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError, match="float32.*first moment.*float64"):
        adam_step(params, np.ones(4, dtype=np.float32), state64, 1e-3)
    assert state.step_count == state64.step_count == 0
    assert np.all(params == 0.0) and np.all(state.first_moment == 0.0)


# The plain expressions the in-place passes must reproduce bit for bit.


def reference_forward_cached(net, inputs):
    """(y, masks, x, hin, act, hlast) of a forward pass."""
    x = netcore._check_inputs(net, inputs)
    w_in, b_in, blocks, w_out, b_out = net.views()
    h = x @ w_in + b_in
    hin, masks, act = [], [], []
    for w1, b1, w2, b2 in blocks:
        a = h @ w1 + b1
        z = np.maximum(a, 0.0)
        masks.append(a > 0)
        hin.append(h)
        act.append(z)
        h = h + z @ w2 + b2
    return h @ w_out + b_out, masks, x, hin, act, h


def reference_backward(net, upstream_grads, masks, x, hin, act, hlast):
    """(param_grads, input_grads) of sum(upstream_grads * forward(x))."""
    up = np.asarray(upstream_grads, dtype=net.parameters.dtype)
    w_in, b_in, blocks, w_out, b_out = net.views()
    grads = np.zeros_like(net.parameters)
    gw_in, gb_in, gblocks, gw_out, gb_out = netcore._views(
        grads, net.input_dim, net.output_dim, net.hidden_dim, net.num_blocks
    )
    gw_out[:] = hlast.T @ up
    gb_out[:] = up.sum(axis=0)
    gh = up @ w_out.T
    for k in range(net.num_blocks - 1, -1, -1):
        w1, _, w2, _ = blocks[k]
        ga = (gh @ w2.T) * masks[k]
        gw1, gb1, gw2, gb2 = gblocks[k]
        gw2[:] = act[k].T @ gh
        gb2[:] = gh.sum(axis=0)
        gw1[:] = hin[k].T @ ga
        gb1[:] = ga.sum(axis=0)
        gh = gh + ga @ w1.T
    gw_in[:] = x.T @ gh
    gb_in[:] = gh.sum(axis=0)
    return grads, gh @ w_in.T


def reference_adam_step(params, g, state, lr):
    state.step_count += 1
    t = state.step_count
    m, v = state.first_moment, state.second_moment
    m *= netcore.BETA1
    m += (1.0 - netcore.BETA1) * g
    v *= netcore.BETA2
    v += (1.0 - netcore.BETA2) * g * g
    m_hat = m / (1.0 - netcore.BETA1**t)
    v_hat = v / (1.0 - netcore.BETA2**t)
    params -= lr * m_hat / (np.sqrt(v_hat) + netcore.EPS)


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "net_dtype,input_dtype",
    [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)],
)
@pytest.mark.parametrize("keep", ["params", "inputs", None])
@pytest.mark.parametrize("rows", [1, 7, 300])
@pytest.mark.parametrize("blocks", [0, 1, 3])
def test_passes_match_plain_expressions_bit_for_bit(net_dtype, input_dtype, keep, rows, blocks):
    rng = np.random.default_rng([rows, blocks])
    # nonzero biases, so that an addition out of order shows in the bits
    params = rng.standard_normal(param_count(6, 4, 16, blocks)) * 0.3
    net = ResidualMlp(6, 4, 16, blocks, params.astype(net_dtype))
    x = rng.standard_normal((rows, 6)).astype(input_dtype)
    up = rng.standard_normal((rows, 4)).astype(net_dtype)
    ref = reference_forward_cached(net, x)
    ref_grads, ref_input_grads = reference_backward(net, up, *ref[1:])

    y, cache = netcore.forward_cached(net, x, keep=keep)
    assert_same_bits(y, ref[0])
    assert_same_bits(forward(net, x), ref[0])
    if keep is None:
        assert cache is None
        g = backward(net, x, up)  # recomputes a full cache
    else:
        assert len(cache.masks) == blocks
        for mask, expected in zip(cache.masks, ref[1]):
            assert_same_bits(mask, expected)
        g = backward(net, x, up, cache=cache)
    assert_same_bits(g.input_grads, ref_input_grads)
    if keep == "inputs":
        assert g.param_grads is None
        return
    assert_same_bits(g.param_grads, ref_grads)
    if keep == "params":
        assert_same_bits(cache.x, ref[2])
        assert_same_bits(cache.hlast, ref[5])
        for arrays, expected in ((cache.hin, ref[3]), (cache.act, ref[4])):
            assert len(arrays) == blocks
            for a, e in zip(arrays, expected):
                assert_same_bits(a, e)

    params, expected = net.parameters.copy(), net.parameters.copy()
    state, ref_state = OptimizerState.for_params(params), OptimizerState.for_params(params)
    for lr in (1e-3, 2e-3):
        adam_step(params, g.param_grads, state, lr)
        reference_adam_step(expected, ref_grads, ref_state, lr)
    assert state.step_count == ref_state.step_count == 2
    assert_same_bits(params, expected)
    assert_same_bits(state.first_moment, ref_state.first_moment)
    assert_same_bits(state.second_moment, ref_state.second_moment)


@pytest.mark.parametrize("keep", ["params", "inputs"])
def test_calls_share_no_buffers(keep):
    net = small_net(blocks=3, seed=33)
    rng = np.random.default_rng(34)
    x1, x2 = rng.standard_normal((2, 40, 8))
    up1, up2 = rng.standard_normal((2, 40, 5))
    up1_before = up1.copy()

    y1, c1 = netcore.forward_cached(net, x1, keep=keep)
    first = [y1, *cached_arrays(c1)]
    first_before = [a.copy() for a in first]
    g1 = backward(net, x1, up1, cache=c1)
    # backward writes into neither the cache nor the upstream
    assert all(np.array_equal(a, b) for a, b in zip(first, first_before))
    assert np.array_equal(up1, up1_before)

    first.append(g1.input_grads)
    if g1.param_grads is not None:
        first.append(g1.param_grads)
    first_before = [a.copy() for a in first]
    y2, c2 = netcore.forward_cached(net, x2, keep=keep)
    g2 = backward(net, x2, up2, cache=c2)
    forward(net, x2)
    second = [y2, *cached_arrays(c2), g2.input_grads]
    assert all(np.array_equal(a, b) for a, b in zip(first, first_before))
    assert not any(np.shares_memory(a, b) for a in first for b in second)
