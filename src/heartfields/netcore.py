"""Differentiable residual-MLP engine.

A deliberately small reverse-mode core: flat parameter vectors, explicit
forward/backward passes, and a bias-corrected Adam update. Gradients are
exact with respect to both parameters and inputs; the input gradients are
what drive latent-code optimization at reconstruction time. Everything is
a pure function of (parameters, inputs), so repeated calls are bit-identical
and independent optimizations can run concurrently without shared state.

A forward pass keeps only what its backward will need: ``keep="params"``
caches the block inputs and activations for the parameter gradients (a
block's ReLU mask is read off its activation, ``act > 0``), while
``keep="inputs"`` caches just the ReLU masks, and the backward then skips
every parameter-gradient product. Input gradients are bit-identical either
way, since both run the same arithmetic on them.

Every pass writes into a :class:`Buffers` set that the caller owns and
then works in place: matrix products write through ``out=``, and bias
adds, ReLUs and residual adds update their operands. A ``keep="params"``
forward stores all block inputs and activations in one array; the other
passes keep the running state and two scratch arrays for all blocks, and
Adam two temporaries. A backward keeps its gradient states in slabs the
forward leaves dead: on a full cache the last hidden state takes the
running gradient, and each block's activation and input take that
block's two gradient states once its parameter gradients have read them;
on a lean cache it works in the forward's three state slabs. The
operation order is that of the plain expressions (``t += h`` equals
``h + t`` exactly), so results are bit-identical to them, and a reused
buffer set gives the same bits as a fresh one. This matters for speed: a
fresh array per step is freed at the end of the call, glibc trims the
heap top, and the next step faults the same pages in again. So a caller
that runs many passes (a training run, a latent fit) makes one set per
network and keeps it; a forward called without a set makes a fresh one.

Ownership rule: every array a pass returns (the outputs, the cache, the
gradients) lives in a buffer set, the forward's own or the backward's
cache's, and is overwritten by the next pass on that set. A cache serves
one backward, which consumes it (a full cache's arrays then hold gradient
states): :func:`backward` raises ``ValueError`` for a cache that a later
forward on its set has overwritten, or that a backward has already used.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def param_count(input_dim, output_dim, hidden_dim, num_blocks):
    """Number of parameters in the flat layout (input/output projections
    plus ``num_blocks`` residual blocks of two affine maps each)."""
    return (
        input_dim * hidden_dim
        + hidden_dim
        + num_blocks * (2 * hidden_dim * hidden_dim + 2 * hidden_dim)
        + hidden_dim * output_dim
        + output_dim
    )


def _views(flat, input_dim, output_dim, hidden_dim, num_blocks):
    """Reshape a flat parameter (or gradient) vector into named views.

    Layout order: input projection (W, b), then per block (W1, b1, W2, b2),
    then output projection (W, b). Views alias ``flat``.
    """
    h = hidden_dim
    off = 0

    def take(*shape):
        nonlocal off
        n = math.prod(shape)
        v = flat[off : off + n].reshape(shape)
        off += n
        return v

    w_in, b_in = take(input_dim, h), take(h)
    blocks = [(take(h, h), take(h), take(h, h), take(h)) for _ in range(num_blocks)]
    w_out, b_out = take(h, output_dim), take(output_dim)
    if off != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, layout needs {off}")
    return w_in, b_in, blocks, w_out, b_out


@dataclass
class ResidualMlp:
    """Residual MLP: x -> W_in x + b_in -> blocks -> W_out h + b_out.

    Each block computes h + W2 relu(W1 h + b1) + b2, so zeroed block weights
    reduce it to the identity. Outputs are raw (any sigmoid lives in the
    loss layer). ``parameters`` is one flat array in the layout of
    :func:`_views`; if omitted it is allocated zero-filled.
    """

    input_dim: int
    output_dim: int
    hidden_dim: int = 128
    num_blocks: int = 8
    parameters: np.ndarray = None

    def __post_init__(self):
        n = param_count(self.input_dim, self.output_dim, self.hidden_dim, self.num_blocks)
        if self.parameters is None:
            self.parameters = np.zeros(n)
        self.parameters = np.ascontiguousarray(self.parameters)
        if self.parameters.shape != (n,):
            raise ValueError(
                f"parameter vector has shape {self.parameters.shape}, expected ({n},)"
            )
        if not np.all(np.isfinite(self.parameters)):
            raise ValueError("parameters contain non-finite values")

    @property
    def n_params(self):
        return self.parameters.size

    def views(self):
        return _views(
            self.parameters, self.input_dim, self.output_dim, self.hidden_dim, self.num_blocks
        )

    def astype(self, dtype):
        """Copy of this net with parameters cast to ``dtype``."""
        return ResidualMlp(
            self.input_dim,
            self.output_dim,
            self.hidden_dim,
            self.num_blocks,
            self.parameters.astype(dtype),
        )


def init_params(net, seed):
    """Kaiming fan-in initialization (weights ~ N(0, 2/fan_in), zero biases),
    written into ``net.parameters`` in place. Deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    w_in, b_in, blocks, w_out, b_out = net.views()
    for w in [w_in] + [m for blk in blocks for m in (blk[0], blk[2])] + [w_out]:
        fan_in = w.shape[0]
        w[:] = rng.standard_normal(w.shape) * np.sqrt(2.0 / fan_in)
    for b in [b_in] + [m for blk in blocks for m in (blk[1], blk[3])] + [b_out]:
        b[:] = 0.0
    return net


def _check_inputs(net, inputs):
    x = np.asarray(inputs)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(f"inputs have shape {np.shape(inputs)}, expected (n, {net.input_dim})")
    if not np.all(np.isfinite(x)):
        raise ValueError("inputs contain non-finite values")
    return x.astype(net.parameters.dtype, copy=False)


def forward(net, inputs, buffers=None):
    """Evaluate the network on a batch of input vectors.

    Returns an (n, output_dim) array of raw outputs, which lives in
    ``buffers`` (a fresh :class:`Buffers` if omitted) until its next pass.
    """
    y, _ = forward_cached(net, inputs, keep=None, buffers=buffers)
    return y


class Cache(NamedTuple):
    """What :func:`backward` reads of a forward pass, in the slabs of the
    :class:`Buffers` set ``buffers`` that the forward wrote into.

    A ``keep="params"`` cache holds the inputs, each block's input and
    activation, and the last hidden state. A ``keep="inputs"`` cache holds
    only ``masks``, each block's ReLU mask (pre-activation > 0) as a bool
    array. The set holds its last forward's cache as the live one, which a
    backward checks it is given, then clears.
    """

    rows: int
    buffers: "Buffers"
    masks: list = None
    x: np.ndarray = None
    hin: list = None
    act: list = None
    hlast: np.ndarray = None


_KEEP = ("params", "inputs", None)


class Buffers:
    """The arrays the passes of one network write into, kept from pass to
    pass (see the module docstring for who owns what).

    A pass takes each array by name. The array held under that name is
    reused when it has the dtype and trailing shape asked for and at least
    as many entries along the first axis (the pass then works in a leading
    slice of it); otherwise a new array replaces it. So a set follows a
    change of row count or of ``keep``, and one made per network and row
    count allocates only on its first passes.
    """

    def __init__(self):
        self._held = {}
        self._live = None  # the cache a backward may still use

    def take(self, name, shape, dtype):
        held = self._held.get(name)
        if held is None or held.dtype != dtype or held.shape[1:] != shape[1:] or len(held) < shape[0]:
            held = self._held[name] = np.empty(shape, dtype)
        return held[: shape[0]]


def forward_cached(net, inputs, keep="params", buffers=None):
    """Forward pass that keeps what backward needs, as a :class:`Cache`.

    ``keep="params"`` allows parameter and input gradients; ``"inputs"``
    keeps only the ReLU masks, which input gradients alone need; ``None``
    keeps nothing and returns no cache. The outputs and the cache live in
    ``buffers`` (a fresh :class:`Buffers` if omitted) until its next pass;
    the pass makes any older cache of the set stale.
    """
    if keep not in _KEEP:
        raise ValueError(f"keep must be one of {_KEEP}, got {keep!r}")
    x = _check_inputs(net, inputs)
    buffers = Buffers() if buffers is None else buffers
    buffers._live = None  # this pass overwrites the set's last cache
    w_in, b_in, blocks, w_out, b_out = net.views()
    rows, nb = len(x), net.num_blocks
    shape = (rows, net.hidden_dim)
    masks = buffers.take("masks", (nb, *shape), bool) if keep == "inputs" else None
    # keep="params": slot 2k holds block k's input, 2k+1 its activation, the
    # last one the final hidden state; otherwise the running state and two
    # scratch arrays
    states = buffers.take("states", (2 * nb + 1 if keep == "params" else 3, *shape), x.dtype)
    if keep == "params":
        h = states[0]
    else:
        h, a, t = states
    np.matmul(x, w_in, out=h)
    h += b_in
    for k, (w1, b1, w2, b2) in enumerate(blocks):
        if keep == "params":
            a, t = states[2 * k + 1], states[2 * k + 2]
        np.matmul(h, w1, out=a)
        a += b1
        if masks is not None:
            np.greater(a, 0, out=masks[k])
        np.maximum(a, 0.0, out=a)
        np.matmul(a, w2, out=t)
        t += h
        t += b2
        h, t = t, h
    y = buffers.take("outputs", (rows, net.output_dim), x.dtype)
    np.matmul(h, w_out, out=y)
    y += b_out
    if keep == "params":
        cache = Cache(rows, buffers, None, x, list(states[0:-1:2]), list(states[1::2]), h)
    else:
        cache = Cache(rows, buffers, list(masks)) if keep == "inputs" else None
    buffers._live = cache
    return y, cache


@dataclass
class GradientBuffer:
    """Exact reverse-mode derivatives of (upstream . outputs).

    ``param_grads`` matches the flat parameter layout, or is ``None`` when
    the cache was kept for input gradients only; ``input_grads`` is
    per-sample with ``input_dim`` columns.
    """

    param_grads: np.ndarray
    input_grads: np.ndarray


def backward(net, inputs, upstream_grads, cache=None):
    """Reverse-mode pass: gradients of sum(upstream_grads * forward(inputs)).

    Recomputes the forward pass, on a fresh :class:`Buffers` set, unless a
    cache from :func:`forward_cached` for the same inputs is supplied. A
    ``keep="inputs"`` cache skips the parameter gradients; the input
    gradients have the same bits as with a full cache. relu'(0) is taken as
    0. The gradients live in the cache's set until its next pass. The pass
    consumes its cache, and raises ``ValueError`` for one that a later
    forward on its set has overwritten or that a backward has used.
    """
    if cache is None:
        _, cache = forward_cached(net, inputs)
    buffers = cache.buffers
    if buffers._live is not cache:
        raise ValueError(
            "cache is stale: a later forward on its buffer set has overwritten it, "
            "or a backward has used it"
        )
    up = np.asarray(upstream_grads, dtype=net.parameters.dtype)
    if up.ndim == 1:
        up = up[None, :]
    if up.shape != (cache.rows, net.output_dim):
        raise ValueError(
            f"upstream grads have shape {up.shape}, expected {(cache.rows, net.output_dim)}"
        )
    if not np.all(np.isfinite(up)):
        raise ValueError("upstream grads contain non-finite values")
    buffers._live = None

    w_in, b_in, blocks, w_out, b_out = net.views()
    shape = (cache.rows, net.hidden_dim)
    full = cache.x is not None
    grads = None
    if full:
        grads = buffers.take("param_grads", net.parameters.shape, up.dtype)
        gw_in, gb_in, gblocks, gw_out, gb_out = _views(
            grads, net.input_dim, net.output_dim, net.hidden_dim, net.num_blocks
        )
        np.matmul(cache.hlast.T, up, out=gw_out)
        np.sum(up, axis=0, out=gb_out)
        gh = cache.hlast
        mask = buffers.take("mask", shape, bool)
    else:  # the forward's three state slabs
        gh, ga, u = buffers.take("states", (3, *shape), up.dtype)
    np.matmul(up, w_out.T, out=gh)
    for k in range(net.num_blocks - 1, -1, -1):
        w1, _, w2, _ = blocks[k]
        if full:
            gw1, gb1, gw2, gb2 = gblocks[k]
            np.matmul(cache.act[k].T, gh, out=gw2)
            np.sum(gh, axis=0, out=gb2)
            np.greater(cache.act[k], 0, out=mask)
            ga, u = cache.act[k], cache.hin[k]
        else:
            mask = cache.masks[k]
        np.matmul(gh, w2.T, out=ga)
        ga *= mask
        if full:
            np.matmul(cache.hin[k].T, ga, out=gw1)
            np.sum(ga, axis=0, out=gb1)
        np.matmul(ga, w1.T, out=u)
        gh += u
    if full:
        np.matmul(cache.x.T, gh, out=gw_in)
        np.sum(gh, axis=0, out=gb_in)
    input_grads = buffers.take("input_grads", (cache.rows, net.input_dim), up.dtype)
    np.matmul(gh, w_in.T, out=input_grads)
    return GradientBuffer(grads, input_grads)


# Adam's moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """Adam moment buffers and step count for one parameter array."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def for_params(cls, params):
        z = np.zeros_like(params)
        return cls(z, z.copy())


def adam_step(params, grads, state, lr):
    """One bias-corrected Adam update at rate ``lr``, in place. Returns (params, state).

    The gradient must have the dtype of the parameters and moments, so the
    whole update runs in that precision; ``lr`` is taken as a Python float.
    """
    g = np.asarray(grads)
    m, v = state.first_moment, state.second_moment
    if g.shape != params.shape or m.shape != params.shape:
        raise ValueError("parameter/gradient/moment layouts do not match")
    for name, arr in (("parameters", params), ("first moment", m), ("second moment", v)):
        if arr.dtype != g.dtype:
            raise ValueError(f"gradient dtype {g.dtype} differs from {name} dtype {arr.dtype}")
    # min and max propagate NaN, so two reductions test finiteness without a mask
    if g.size and not (np.isfinite(g.min()) and np.isfinite(g.max())):
        idx = int(np.flatnonzero(~np.isfinite(g))[0])
        raise ValueError(f"non-finite gradient at index {idx}")
    state.step_count += 1
    t = state.step_count
    step = np.multiply(g, 1.0 - BETA1)
    m *= BETA1
    m += step
    np.multiply(g, 1.0 - BETA2, out=step)
    step *= g
    v *= BETA2
    v += step
    np.divide(m, 1.0 - BETA1**t, out=step)  # m_hat
    denom = np.divide(v, 1.0 - BETA2**t)  # v_hat
    np.sqrt(denom, out=denom)
    denom += EPS
    step *= float(lr)
    step /= denom
    params -= step
    return params, state


def central_difference(f, x, step):
    """(f(x + step e_i) - f(x - step e_i)) / (2 step) of the scalar function
    ``f`` at every entry i of ``x``, in an array of its shape. ``f`` is
    called on a float64 copy of ``x`` with one entry moved, which leaves the
    caller's array untouched."""
    x = np.array(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in np.ndindex(x.shape):
        centre = x[i]
        x[i] = centre + step
        hi = f(x)
        x[i] = centre - step
        lo = f(x)
        x[i] = centre
        grad[i] = (hi - lo) / (2.0 * step)
    return grad


def finite_diff_check(net, inputs, step=1e-5, seed=0):
    """Max relative error of backward() against :func:`central_difference`.

    The scalar being differentiated is sum(U * forward(x)) for a fixed
    seeded upstream U, checked over every parameter and every input entry.
    Entries where both derivatives vanish count as zero error. Intended for
    small nets (<= 2 blocks); cost is two forward passes per scalar.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    net = net.astype(np.float64)
    rng = np.random.default_rng(seed)
    upstream = rng.standard_normal((x.shape[0], net.output_dim))

    g = backward(net, x, upstream)
    analytic = np.concatenate([g.param_grads, g.input_grads.ravel()])
    n = net.n_params

    def objective(v):  # v: the parameters, then the inputs
        probe = ResidualMlp(net.input_dim, net.output_dim, net.hidden_dim, net.num_blocks, v[:n])
        return float(np.sum(upstream * forward(probe, v[n:].reshape(x.shape))))

    numeric = central_difference(objective, np.concatenate([net.parameters, x.ravel()]), step)

    # Entries below the floor are finite-difference noise (~|f| * 1e-16 / step),
    # not disagreement; a genuine sign flip on any meaningful gradient still
    # registers as O(1).
    return relative_grad_error(analytic, numeric, floor=1e-7)


def relative_grad_error(analytic, numeric, floor=1e-7):
    """Elementwise max relative error between two gradient vectors, treating
    entries where both magnitudes are below ``floor`` as exact agreement."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    rel = np.where(scale > floor, np.abs(analytic - numeric) / np.maximum(scale, floor), 0.0)
    return float(rel.max()) if rel.size else 0.0
