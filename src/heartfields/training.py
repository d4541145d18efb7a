"""Joint auto-decoder training of the occupancy classifier and the
coordinate regressor.

Both networks share one latent code per shape. Each optimizer step runs one
shape: a batch of labeled spatial points through the classifier, a batch of
(coordinate-tuple, position) pairs through the regressor, the combined loss
(classification part, plus the regression part divided by its scale factor,
plus the warm-up weighted latent prior), and one Adam update of both
parameter vectors and that shape's code. Every loss returns its value and
its analytic gradient; the gradients are validated against finite
differences in the test suite.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import netcore
from .anatomy.labeling import label_points
from .anatomy.shapes import interior_points_batch
from .anatomy.template import AnatomicalLabel

DICE_SMOOTH = 1e-6
INPUT_SCALE = 0.01  # mm -> network units for spatial inputs
REG_OUTPUT_SCALE = 100.0  # network units -> mm for positions


# loss weights: the reg loss is divided by its own, the prior's weight
# ramps linearly up to its maximum over the warm-up epochs
LAMBDA_REG = 1000.0
LAMBDA_PRIOR_MAX = 1e-4
WARMUP_EPOCHS = 100


@dataclass
class LatentTable:
    codes: np.ndarray  # (n_shapes, dim)
    shape_ids: list

    def __post_init__(self):
        self.codes = np.atleast_2d(np.asarray(self.codes))
        if not np.all(np.isfinite(self.codes)):
            raise ValueError("latent codes contain non-finite values")
        if len(self.shape_ids) != len(self.codes):
            raise ValueError("shape id list does not match the code table")


@dataclass
class LatentStats:  # float64, whatever the codes' dtype
    mean: np.ndarray
    cov_inv: np.ndarray


def latent_stats(codes):
    """Sample mean and inverse covariance of latent codes, with a trace-scaled
    ridge (eps = 1e-6 * trace / dim), so identical codes still invert."""
    codes = np.atleast_2d(np.asarray(codes, dtype=np.float64))
    if len(codes) < 2:
        raise ValueError("latent statistics need at least 2 codes")
    mean = codes.mean(axis=0)
    centered = codes - mean
    cov = centered.T @ centered / (len(codes) - 1)
    dim = codes.shape[1]
    eps = 1e-6 * max(np.trace(cov) / dim, 1e-12)
    cov_inv = np.linalg.inv(cov + eps * np.eye(dim))
    cov_inv = 0.5 * (cov_inv + cov_inv.T)
    return LatentStats(mean=mean, cov_inv=cov_inv)


# ------------------------------------------------------------------- losses


def _targets(logits, labels):
    """The one-hot rows of the n integer ``labels`` in the dtype of the (n, 5) ``logits``."""
    labels = np.asarray(labels)
    if (labels.ndim != 1 or labels.dtype.kind not in "iu"
            or logits.shape != (len(labels), len(AnatomicalLabel))):
        raise ValueError(f"logits {logits.shape} vs labels {labels.shape} {labels.dtype}: need "
                         f"(n, {len(AnatomicalLabel)}) logits and n integer labels")
    return AnatomicalLabel.one_hot(labels).astype(logits.dtype)


def bce_loss(logits, labels):
    """(value, gradient) of the per-channel sigmoid binary cross-entropy,
    averaged over points and channels. Numerically stable (softplus form)."""
    z = np.asarray(logits)
    t = _targets(z, labels)
    n = z.size
    loss = float(np.sum(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))) / n)
    return loss, (_sigmoid(z) - t) / n


def dice_loss(logits, labels):
    """(value, gradient) of one minus the channel-mean soft Dice of the sigmoids."""
    z = np.asarray(logits)
    t = _targets(z, labels)
    s = _sigmoid(z)
    num = 2.0 * np.sum(s * t, axis=0) + DICE_SMOOTH
    den = np.sum(s, axis=0) + np.sum(t, axis=0) + DICE_SMOOTH
    loss = float(1.0 - np.mean(num / den))
    # d(num_c)/d s_ic = 2 t_ic, d(den_c)/d s_ic = 1
    ddice_ds = (2.0 * t * den - num) / (den * den)
    grad = -(ddice_ds / len(AnatomicalLabel)) * s * (1.0 - s)
    return loss, grad


def seg_loss(logits, labels):
    """(value, gradient) of the combined BCE and soft-Dice classification loss;
    like both, of (n, 5) logits against n integer labels of the legend."""
    b, gb = bce_loss(logits, labels)
    d, gd = dice_loss(logits, labels)
    return b + d, gb + gd


def reg_loss(pred, target):
    """(value, gradient) of the mean squared error over points and xyz (mm^2)."""
    p = np.asarray(pred)
    t = np.asarray(target, dtype=p.dtype)
    if p.shape != t.shape:
        raise ValueError(f"prediction {p.shape} vs target {t.shape}")
    diff = p - t
    return float(np.sum(diff * diff) / diff.size), 2.0 * diff / diff.size


def prior_loss(codes):
    """(value, gradient) of the mean squared latent norm, (1/B) sum ||h_i||^2."""
    h = np.atleast_2d(np.asarray(codes))
    if h.size == 0:
        raise ValueError("prior loss of an empty batch")
    return float(np.sum(h * h) / len(h)), 2.0 * h / len(h)


def prior_schedule(epoch):
    """Warm-up schedule: min(1, epoch / warmup) times the maximum strength."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    return min(1.0, epoch / WARMUP_EPOCHS) * LAMBDA_PRIOR_MAX


def total_loss(seg, reg, prior, epoch):
    """Training objective: seg + reg / lambda_reg + lambda_prior(epoch) *
    prior (the regression scale factor divides)."""
    for name, v in (("seg", seg), ("reg", reg), ("prior", prior)):
        if not math.isfinite(v):
            raise ValueError(f"non-finite {name} loss: {v}")
    return seg + reg / LAMBDA_REG + prior_schedule(epoch) * prior


def _reg_share(out, target):
    """reg_loss of regressor outputs scaled to mm, with the gradient of its
    share of the total (divided by LAMBDA_REG) in network units."""
    value, g = reg_loss(out * REG_OUTPUT_SCALE, target)
    return value, g * (REG_OUTPUT_SCALE / LAMBDA_REG)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# ----------------------------------------------------------------- sampling


@dataclass
class TrainingSample:
    shape_id: str
    seg_xyz: np.ndarray  # (n, 3) mm
    seg_labels: np.ndarray  # (n,) int8
    reg_uvc: np.ndarray  # (m, 4)
    reg_xyz: np.ndarray  # (m, 3) mm


def sample_seg_points(mesh, n, margin=20.0, seed=0):
    """Classification point set: all template vertices (labeled by their
    surface's adjacent compartment) plus uniform points in the margin-grown
    bounding box labeled by containment. Requires n > vertex count."""
    topo = mesh.topology
    v = topo.vertex_count
    if n <= v:
        raise ValueError(f"need n > {v} template vertices, got {n}")
    rng = np.random.default_rng(seed)
    lo, hi = mesh.bounds()
    extra = rng.uniform(lo - margin, hi + margin, size=(n - v, 3))
    labels = np.concatenate([mesh.topology.vertex_labels(), label_points(extra, mesh)])
    return np.vstack([mesh.vertices, extra]), labels


def sample_reg_points(mesh, n, seed=0):
    """Regression point set: every template vertex's (coordinates, position)
    pair plus interpolated wall-interior points with transmural fraction
    drawn uniformly on (0, 1). Requires n >= vertex count."""
    topo = mesh.topology
    v = topo.vertex_count
    if n < v:
        raise ValueError(f"need n >= {v} template vertices, got {n}")
    uvc = [topo.uvc]
    xyz = [mesh.vertices]
    extra = n - v
    if extra:
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, len(topo.transmural_pairs), size=extra)
        ts = rng.uniform(0.0, 1.0, size=extra)
        ts = np.clip(ts, 1e-9, 1.0 - 1e-9)
        pos, iuvc = interior_points_batch(mesh, idx, ts)
        uvc.append(iuvc)
        xyz.append(pos)
    return np.concatenate(uvc), np.concatenate(xyz)


def build_sample(mesh, shape_id, seg_n, reg_n, margin=20.0, seed=0):
    seg_xyz, seg_labels = sample_seg_points(mesh, seg_n, margin=margin, seed=seed)
    reg_uvc, reg_xyz = sample_reg_points(mesh, reg_n, seed=seed + 1)
    return TrainingSample(
        shape_id=shape_id,
        seg_xyz=seg_xyz,
        seg_labels=np.asarray(seg_labels, dtype=np.int8),
        reg_uvc=reg_uvc,
        reg_xyz=reg_xyz,
    )


# ----------------------------------------------------------------- training


# the compute dtypes training runs in (float16 overflows the reg loss)
DTYPES = ("float32", "float64")


def require(settings, test, needs, *names):
    """Raise ``ValueError`` for the first of the fields ``names`` of
    ``settings`` that fails ``test``."""
    for name in names:
        value = getattr(settings, name)
        if not test(value):
            raise ValueError(f"{name} must be {needs}, got {value}")


@dataclass(frozen=True)
class TrainConfig:
    """Training settings, checked when built (:meth:`validate`); immutable."""

    epochs: int = 400
    latent_dim: int = 64
    hidden_dim: int = 128
    num_blocks: int = 8
    lr_net: float = 1e-4
    lr_latent: float = 1e-3
    seg_batch: int = 1536
    reg_batch: int = 384
    val_fraction: float = 0.2
    train_seed: int = 7
    dtype: str = "float32"

    def __post_init__(self):
        self.validate()

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def validate(self):
        """Raise ``ValueError`` naming the first setting training cannot run with."""
        require(self, lambda v: v >= 1, "at least 1", "latent_dim", "hidden_dim", "seg_batch",
                "reg_batch")
        require(self, lambda v: v >= 0, "nonnegative", "epochs", "num_blocks", "train_seed")
        require(self, lambda v: 0 < v < math.inf, "positive and finite", "lr_net", "lr_latent")
        # a fraction of 1 would leave no shape to update the networks
        require(self, lambda v: 0 <= v < 1, "in [0, 1)", "val_fraction")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype {self.dtype!r} is not one of {', '.join(DTYPES)}")
        return self


LOG_COLUMNS = ("epoch", "seg_loss", "reg_loss", "prior_loss", "total", "val_total")


@dataclass
class TrainResult:
    seg_net: netcore.ResidualMlp
    reg_net: netcore.ResidualMlp
    latents: LatentTable
    stats: LatentStats
    log: list  # one row of LOG_COLUMNS (train means, val mean total) per epoch done,
    # those before a resume too: its length is the number of epochs completed
    train_ids: list
    val_ids: list
    opt: dict  # Adam states of "seg", "reg" and "lat", the whole latent table


def seg_inputs(xyz, code):
    """(x, y, z) scaled to network units, concatenated with the shared code."""
    xyz = np.asarray(xyz)
    h = np.broadcast_to(code, (len(xyz), len(code)))
    return np.concatenate([xyz * INPUT_SCALE, h], axis=1)


def reg_inputs(uvc, code):
    uvc = np.asarray(uvc)
    h = np.broadcast_to(code, (len(uvc), len(code)))
    return np.concatenate([uvc, h], axis=1)


def through_net(net, inputs, loss, code_dim, keep="params", scale=1.0, buffers=None):
    """One forward-loss-backward pass: (loss value, code gradient, parameter
    gradient). ``loss(outputs)`` returns (value, upstream gradient); the
    backward runs on the upstream times ``scale``, and the code gradient
    (the last ``code_dim`` input columns summed over rows) is divided by it
    again, as is the parameter gradient (``None`` for ``keep="inputs"``).
    Both passes write into the :class:`netcore.Buffers` ``buffers`` (a
    fresh set if omitted), the backward as its cache's set, where the
    parameter gradient lives until its next pass."""
    outputs, cache = netcore.forward_cached(net, inputs, keep=keep, buffers=buffers)
    value, upstream = loss(outputs)
    g = netcore.backward(net, inputs, upstream * scale, cache=cache)
    if g.param_grads is not None:
        g.param_grads /= scale
    return value, g.input_grads[:, -code_dim:].sum(axis=0) / scale, g.param_grads


def _net_dims(config):
    """(input, output, hidden, blocks) of the seg and the reg network."""
    return (
        (3 + config.latent_dim, len(AnatomicalLabel), config.hidden_dim, config.num_blocks),
        (4 + config.latent_dim, 3, config.hidden_dim, config.num_blocks),
    )


def make_networks(config):
    dt = config.np_dtype
    seg, reg = (
        netcore.init_params(netcore.ResidualMlp(*dims), seed=config.train_seed + k).astype(dt)
        for k, dims in enumerate(_net_dims(config), 1)
    )
    return seg, reg


def check_resume(resume, config, n_shapes):
    """Raise ``ValueError`` unless checkpoint ``resume`` can continue a run
    of ``config`` over ``n_shapes`` shapes: equal network dims and dtype,
    one latent row per shape, and Adam states and the log to resume."""
    have = tuple(
        (n.input_dim, n.output_dim, n.hidden_dim, n.num_blocks)
        for n in (resume.seg_net, resume.reg_net)
    )
    if have != _net_dims(config):
        raise ValueError(
            f"checkpoint networks have (input, output, hidden, blocks) {have}, "
            f"the config's are {_net_dims(config)}"
        )
    if resume.latent_codes.shape != (n_shapes, config.latent_dim):
        raise ValueError("checkpoint latent table does not match the cohort")
    dtypes = {str(a.dtype) for a in (resume.seg_net.parameters, resume.reg_net.parameters,
                                     resume.latent_codes)}
    if dtypes != {config.dtype}:  # another dtype would not retrace an uninterrupted run
        raise ValueError(f"checkpoint is {', '.join(sorted(dtypes))}, the config's dtype is "
                         f"{config.dtype}; a run resumes in the dtype it was trained in")
    if sorted(resume.opt) != ["lat", "reg", "seg"] or resume.log is None:
        raise ValueError("checkpoint holds no optimizer state or training log to resume from")


def check_train(config, n_shapes, resume=None):
    """Raise ``ValueError`` for what :func:`train` cannot run: no shapes, or
    a ``resume`` checkpoint that :func:`check_resume` rejects (the config
    checked itself when it was built)."""
    if not n_shapes:
        raise ValueError("empty cohort")
    if resume is not None:
        check_resume(resume, config, n_shapes)


def train(samples, config, resume=None, on_epoch=None):
    """Run the joint loop over precomputed per-shape samples.

    ``samples`` is a list of :class:`TrainingSample`. Shapes are split
    80/20 into training and validation; validation shapes contribute
    latent-code updates and logged losses but never network updates.
    Training runs until ``config.epochs`` epochs are done in total;
    ``resume`` continues a loaded checkpoint, taking over its networks,
    codes and Adam states and extending its log (one row per epoch done).
    :func:`check_train` says what is rejected. ``on_epoch`` is called after
    every epoch with the :class:`TrainResult` reached so far. Returns the
    final :class:`TrainResult`.

    Working set, besides the samples (point arrays already in the compute
    dtype are not copied; labels stay int8, and the loss makes a batch's
    one-hot rows): per net its parameters, Adam moments and parameter gradient,
    and one :class:`netcore.Buffers` set of batch x hidden slabs for the
    whole run, 2 num_blocks + 1 float state slabs (the backward works in
    those the forward leaves dead) and num_blocks + 1 bool mask slabs; per
    step the nets' inputs, input gradients and outputs, and Adam's two
    parameter-sized temporaries.
    """
    check_train(config, len(samples), resume)
    samples = sorted(samples, key=lambda s: s.shape_id)
    ids = [s.shape_id for s in samples]
    n_shapes = len(samples)
    dt = config.np_dtype

    rng = np.random.default_rng(config.train_seed)
    n_val = int(round(config.val_fraction * n_shapes)) if n_shapes > 1 else 0
    order = rng.permutation(n_shapes)
    val_set = set(order[:n_val].tolist())
    train_rows = [i for i in range(n_shapes) if i not in val_set]

    if resume is None:
        seg_net, reg_net = make_networks(config)
        codes = (
            rng.standard_normal((n_shapes, config.latent_dim)) * 0.01
        ).astype(dt)
        opt_seg, opt_reg, opt_lat = (
            netcore.OptimizerState.for_params(p)
            for p in (seg_net.parameters, reg_net.parameters, codes)
        )
    else:  # check_resume has matched every array to the config's dtype
        seg_net, reg_net, codes = resume.seg_net, resume.reg_net, resume.latent_codes
        opt_seg, opt_reg, opt_lat = (resume.opt[k] for k in ("seg", "reg", "lat"))

    # cast the point data once (samples already in the dtype are not copied)
    seg_xyz = [s.seg_xyz.astype(dt, copy=False) for s in samples]
    reg_uvc = [s.reg_uvc.astype(dt, copy=False) for s in samples]
    reg_xyz = [s.reg_xyz.astype(dt, copy=False) for s in samples]
    # each net's passes reuse one buffer set for the whole run
    seg_buffers, reg_buffers = netcore.Buffers(), netcore.Buffers()

    log = [] if resume is None else list(resume.log)

    def result():
        stat_codes = codes[train_rows] if len(train_rows) >= 2 else codes
        return TrainResult(
            seg_net=seg_net,
            reg_net=reg_net,
            latents=LatentTable(codes.copy(), ids),
            stats=latent_stats(stat_codes) if len(stat_codes) >= 2 else None,
            log=log,
            train_ids=[ids[i] for i in train_rows],
            val_ids=[ids[i] for i in sorted(val_set)],
            opt={"seg": opt_seg, "reg": opt_reg, "lat": opt_lat},
        )

    for epoch in range(len(log), config.epochs):
        lam_p = prior_schedule(epoch)
        epoch_rng = np.random.default_rng([config.train_seed, 977, epoch])
        visit = epoch_rng.permutation(n_shapes)
        sums = np.zeros(4)
        n_train_steps = 0
        val_sum, n_val_steps = 0.0, 0
        for si in visit:
            si = int(si)
            bs = epoch_rng.integers(0, len(seg_xyz[si]), size=min(config.seg_batch, len(seg_xyz[si])))
            br = epoch_rng.integers(0, len(reg_uvc[si]), size=min(config.reg_batch, len(reg_uvc[si])))
            h = codes[si]

            # a validation shape moves only its code: no parameter gradients
            keep = "inputs" if si in val_set else "params"
            ys, xs = samples[si].seg_labels[bs], seg_inputs(seg_xyz[si][bs], h)
            l_seg, g_seg, gs = through_net(seg_net, xs, lambda z: seg_loss(z, ys), len(h), keep,
                                           buffers=seg_buffers)
            tr, xr = reg_xyz[si][br], reg_inputs(reg_uvc[si][br], h)
            l_reg, g_reg, gr = through_net(reg_net, xr, lambda o: _reg_share(o, tr), len(h), keep,
                                           buffers=reg_buffers)
            l_prior, g_prior = prior_loss(h)
            l_total = total_loss(l_seg, l_reg, l_prior, epoch)
            g_h = g_seg + g_reg + lam_p * g_prior[0]

            if si in val_set:
                val_sum += l_total
                n_val_steps += 1
            else:
                netcore.adam_step(seg_net.parameters, gs, opt_seg, config.lr_net)
                netcore.adam_step(reg_net.parameters, gr, opt_reg, config.lr_net)
                sums += (l_seg, l_reg, l_prior, l_total)
                n_train_steps += 1
            # each epoch steps every row once: the table's count is the epochs done
            lat_row = netcore.OptimizerState(
                opt_lat.first_moment[si], opt_lat.second_moment[si], opt_lat.step_count
            )
            netcore.adam_step(codes[si], g_h, lat_row, config.lr_latent)
        opt_lat.step_count += 1

        row = (
            epoch,
            sums[0] / max(n_train_steps, 1),
            sums[1] / max(n_train_steps, 1),
            sums[2] / max(n_train_steps, 1),
            sums[3] / max(n_train_steps, 1),
            val_sum / max(n_val_steps, 1),
        )
        log.append(row)
        if on_epoch is not None:
            on_epoch(result())

    return result()
