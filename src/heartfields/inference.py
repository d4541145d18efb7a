"""Reconstruction from sparse labeled slices.

Only the latent code moves: the frozen occupancy classifier is evaluated
on the slice points, and the code is optimized against the weighted BCE +
Dice data terms plus a Mahalanobis prior toward the training latent
distribution. The optimized code then drives mesh-free prediction: the
regressor maps the fixed template coordinate tuples to personalized vertex
positions, and the classifier can be queried on any voxel grid for a dense
label map.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import netcore
from .acquisition import KIND_GRID
from .anatomy.shapes import InstanceMesh
from .anatomy.template import AnatomicalLabel
from .training import (REG_OUTPUT_SCALE, bce_loss, dice_loss, reg_inputs, require, seg_inputs,
                       through_net)


# weight of the Mahalanobis prior; the Dice term's weight is 1
LAMBDA_R = 1e-2

# Exact power-of-two scale of a latent step's BCE + Dice upstream, undone on
# the code gradient (the loss scaling of Micikevicius et al., "Mixed
# Precision Training", ICLR 2018). A classifier trained to confidence gives
# logits of |100-600|, whose float32 upstream holds subnormal entries, and a
# backward over subnormals runs several times slower. Every nonzero float32
# is at least 2^-149, so the scaled upstream is at least 2^-89 and leaves 37
# binades before the backward's products go subnormal. Headroom: an upstream
# entry is at most lambda_bce / n + 1 (n logits; the Dice part is at most 1),
# so for any BCE weight below 2^3 n the scaled upstream stays below 2^64, and
# the input gradients overflow float32 (2^128) only if the backward grows
# them 2^64-fold, a net far past any trained one. An overflow gives a
# non-finite gradient, which adam_step rejects. Without subnormals or
# overflow, scaling by a power of two is exact, so the step's bits do not
# change; float64 never goes subnormal here.
GRAD_SCALE = 2.0**60

# rows the classifier runs on at a time when it predicts labels: a float32
# paper net's three 8192 x 128 state slabs take 12 MiB
_CHUNK = 8192


@dataclass
class InferenceWeights:
    lambda_bce: float
    steps: int
    max_points: int  # slice points are subsampled to this budget
    lr: float

    def __post_init__(self):
        require(self, lambda v: 0 <= v < math.inf, "nonnegative and finite", "lambda_bce")
        require(self, lambda v: v >= 1, "at least 1", "steps", "max_points")
        require(self, lambda v: 0 < v < math.inf, "positive and finite", "lr")


def mahalanobis(z, stats):
    """Quadratic form (z - mean)^T cov_inv (z - mean) with the regularized
    inverse, nonnegative by construction, and its gradient."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != stats.mean.shape:
        raise ValueError(f"latent dim {z.shape} vs stats dim {stats.mean.shape}")
    d = z - stats.mean
    sd = stats.cov_inv @ d
    return float(d @ sd), 2.0 * sd


@dataclass
class ReconstructionResult:
    latent: np.ndarray
    loss_trace: np.ndarray
    n_points: int


def fit_objective(seg_net, stats, points, labels, lambda_bce):
    """The fit's objective ``fun(code) -> (loss, code gradient)`` for a code
    in the classifier's dtype: LAMBDA_R * Mahalanobis + lambda_bce * BCE +
    Dice of the logits at ``points`` against ``labels``, from one
    :func:`training.through_net` pass that keeps only the ReLU masks (the
    code's input gradient is all it needs) and scales by :data:`GRAD_SCALE`.
    Every evaluation reuses one :class:`netcore.Buffers` set."""
    dt = seg_net.parameters.dtype
    points = points.astype(dt)
    onehot = AnatomicalLabel.one_hot(labels).astype(dt)
    buffers = netcore.Buffers()

    def fun(code):
        lm, gm = mahalanobis(code, stats)

        def loss(logits):
            lb, gb = bce_loss(logits, onehot)
            ld, gd = dice_loss(logits, onehot)
            return LAMBDA_R * lm + lambda_bce * lb + ld, lambda_bce * gb + gd

        value, g_data, _ = through_net(seg_net, seg_inputs(points, code), loss, len(code),
                                       keep="inputs", scale=GRAD_SCALE, buffers=buffers)
        return value, g_data + LAMBDA_R * gm.astype(dt)

    return fun


def optimize_latent(contours, seg_net, stats, weights, seed=0):
    """Fit the latent code to one case's slice labels through the frozen
    classifier.

    Uses up to ``weights.max_points`` of the contour set's occupancy-grid
    points, evaluates :func:`fit_objective` at each of ``weights.steps + 1``
    iterates and takes an Adam step after each but the last. The fit
    computes in the classifier's dtype, on a read-only view of its
    parameters (a write to them raises ``ValueError``). Returns the
    best-loss iterate, in that dtype, and the full loss trace; raises if the
    fitted points carry fewer than two distinct labels (the Dice term would
    be degenerate) or if the loss diverges past 1e6.
    """
    pts, labels = contours.all_points(kind=KIND_GRID)
    rng = np.random.default_rng(seed)
    if len(pts) > weights.max_points:
        pick = rng.choice(len(pts), size=weights.max_points, replace=False)
        pts, labels = pts[pick], labels[pick]
    if len(np.unique(labels)) < 2:
        raise ValueError(f"latent optimization needs 2 distinct labels in its {len(pts)} points")

    seg_net = replace(seg_net, parameters=seg_net.parameters.view())
    seg_net.parameters.flags.writeable = False
    fun = fit_objective(seg_net, stats, pts, labels, weights.lambda_bce)
    h = stats.mean.astype(seg_net.parameters.dtype)
    opt = netcore.OptimizerState.for_params(h)
    trace = []
    best_loss, best_h = np.inf, h.copy()
    blowups = 0  # a heavily weighted prior spikes transiently on the first
    # steps away from the mean; only a sustained blowup counts as divergence
    for step in range(weights.steps + 1):
        loss, grad = fun(h)
        trace.append(loss)
        if loss < best_loss:
            best_loss, best_h = loss, h.copy()
        blowups = blowups + 1 if loss > 1e6 else 0
        if blowups >= 10 or not np.isfinite(loss):
            raise FloatingPointError(
                f"latent optimization diverged (loss {loss:.3g}); trace tail: {trace[-5:]}"
            )
        if step < weights.steps:
            netcore.adam_step(h, grad, opt, weights.lr)
    return ReconstructionResult(
        latent=best_h,
        loss_trace=np.asarray(trace, dtype=np.float64),
        n_points=len(pts),
    )


def predict_mesh(reg_net, latent, topology):
    """Decode a personalized mesh from the template coordinate table alone.

    Inputs are only the network, the code, and the fixed template; no
    case geometry is consumed.
    """
    dt = reg_net.parameters.dtype
    x = reg_inputs(topology.uvc.astype(dt), np.asarray(latent, dtype=dt))
    verts = netcore.forward(reg_net, x).astype(np.float64) * REG_OUTPUT_SCALE
    return InstanceMesh(topology, verts)


def label_box(vertices, spacing):
    """(origin, dims) of the label volume at a positive ``spacing`` (mm) that
    covers the bounds of ``vertices`` with 10 mm to spare; the margin gives
    every axis at least one voxel."""
    lo, hi = vertices.min(axis=0) - 10.0, vertices.max(axis=0) + 10.0
    return lo, ((hi - lo) / spacing).astype(int) + 1


def predict_dense_labels(seg_net, latent, origin, spacing, dims):
    """Dense label volume: argmax of the sigmoid channels at voxel centers.

    ``origin`` is the center of voxel (0, 0, 0); voxel centers are
    origin + index * spacing. Returns a uint8 array of shape ``dims``.
    """
    dims = tuple(int(d) for d in dims)
    if min(dims) <= 0:
        raise ValueError(f"grid dims must be positive, got {dims}")
    origin = np.asarray(origin, dtype=np.float64)
    spacing = float(spacing)
    labels = np.empty(math.prod(dims), dtype=np.uint8)
    label = _chunk_labeler(seg_net, latent)
    for s in range(0, len(labels), _CHUNK):  # the voxel centers of a chunk, in C order
        index = np.column_stack(np.unravel_index(np.arange(s, min(s + _CHUNK, len(labels))), dims))
        labels[s : s + _CHUNK] = label(origin + spacing * index)
    return labels.reshape(dims)


def predict_labels(seg_net, latent, points):
    """Label (argmax of the sigmoid channels) at each of the (n, 3)
    ``points``, as uint8; the classifier runs on 8192 rows at a time."""
    label = _chunk_labeler(seg_net, latent)
    labels = np.empty(len(points), dtype=np.uint8)
    for s in range(0, len(points), _CHUNK):
        labels[s : s + _CHUNK] = label(points[s : s + _CHUNK])
    return labels


def _chunk_labeler(seg_net, latent):
    """Function from at most :data:`_CHUNK` (n, 3) points to their labels;
    all its calls run the classifier in one :class:`netcore.Buffers` set."""
    dt = seg_net.parameters.dtype
    code = np.asarray(latent, dtype=dt)
    buffers = netcore.Buffers()

    def label(points):
        x = seg_inputs(points.astype(dt), code)
        return np.argmax(netcore.forward(seg_net, x, buffers=buffers), axis=1)

    return label


def write_label_data(path, labels):
    """Write a label volume as flat u8 in C order (header: :func:`write_label_header`)."""
    with open(path, "wb") as f:
        f.write(np.asarray(labels, dtype=np.uint8).tobytes(order="C"))


def write_label_header(path, labels, origin, spacing):
    """Write a label volume's JSON header: origin, spacing, dims, legend, order."""
    header = {
        "origin": [float(x) for x in origin],
        "spacing": float(spacing),
        "dims": list(np.shape(labels)),
        "labels": {int(l): l.name for l in AnatomicalLabel},
        "order": "C",
    }
    with open(path, "w") as f:
        json.dump(header, f, indent=1, sort_keys=True)
        f.write("\n")

