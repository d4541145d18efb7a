"""Joint auto-decoder training of the occupancy classifier and the
coordinate regressor.

Both networks share one latent code per shape. Each optimizer step runs one
shape: a batch of labeled spatial points through the classifier, a batch of
(coordinate-tuple, position) pairs through the regressor, the combined loss
(classification part divided by its scale factor, regression part by its
much larger one, plus the warm-up weighted latent prior), and one Adam
update of both parameter vectors and that shape's code. All loss gradients
are analytic and are validated against finite differences in the test
suite.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import netcore
from .anatomy.labeling import AnatomicalLabel
from .anatomy.shapes import interior_points_batch

N_LABELS = 5
DICE_SMOOTH = 1e-6
INPUT_SCALE = 0.01  # mm -> network units for spatial inputs
REG_OUTPUT_SCALE = 100.0  # network units -> mm for positions


@dataclass
class LossWeights:
    lambda_seg: float = 1.0
    lambda_reg: float = 1000.0
    lambda_prior_max: float = 1e-4
    warmup_epochs: int = 100

    def __post_init__(self):
        if min(self.lambda_seg, self.lambda_reg, self.lambda_prior_max) <= 0:
            raise ValueError("loss weights must be positive")
        if self.warmup_epochs <= 0:
            raise ValueError("warmup_epochs must be positive")


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

    @property
    def dim(self):
        return self.codes.shape[1]

    def index(self, shape_id):
        return self.shape_ids.index(shape_id)


@dataclass
class LatentStats:
    mean: np.ndarray
    cov: np.ndarray
    cov_inv: np.ndarray


def latent_stats(codes):
    """Sample mean/covariance of latent codes with a trace-scaled ridge on
    the inverse (eps = 1e-6 * trace / dim), so identical codes still invert."""
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
    return LatentStats(mean=mean, cov=cov, cov_inv=cov_inv)


# ------------------------------------------------------------------- losses


def _check_one_hot(targets):
    t = np.asarray(targets)
    if t.ndim != 2 or t.shape[1] != N_LABELS:
        raise ValueError(f"targets must be (n, {N_LABELS}) one-hot, got {t.shape}")
    if not (np.all((t == 0.0) | (t == 1.0)) and np.all(t.sum(axis=1) == 1.0)):
        raise ValueError("targets are not one-hot")
    return t


def bce_loss(logits, targets, with_grad=False):
    """Per-channel sigmoid binary cross-entropy, averaged over points and
    channels. Numerically stable (softplus form)."""
    z = np.asarray(logits)
    t = _check_one_hot(targets).astype(z.dtype)
    if z.shape != t.shape:
        raise ValueError(f"logits {z.shape} vs targets {t.shape}")
    n = z.size
    loss = float(np.sum(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))) / n)
    if not with_grad:
        return loss
    sig = _sigmoid(z)
    return loss, (sig - t) / n


def dice_loss(logits, targets, with_grad=False):
    """One minus the channel-mean soft Dice of the sigmoid probabilities."""
    z = np.asarray(logits)
    t = _check_one_hot(targets).astype(z.dtype)
    s = _sigmoid(z)
    num = 2.0 * np.sum(s * t, axis=0) + DICE_SMOOTH
    den = np.sum(s, axis=0) + np.sum(t, axis=0) + DICE_SMOOTH
    loss = float(1.0 - np.mean(num / den))
    if not with_grad:
        return loss
    # d(num_c)/d s_ic = 2 t_ic, d(den_c)/d s_ic = 1
    ddice_ds = (2.0 * t * den - num) / (den * den)
    grad = -(ddice_ds / N_LABELS) * s * (1.0 - s)
    return loss, grad


def seg_loss(logits, targets, with_grad=False):
    """Combined BCE and soft-Dice classification loss."""
    if not with_grad:
        return bce_loss(logits, targets) + dice_loss(logits, targets)
    b, gb = bce_loss(logits, targets, with_grad=True)
    d, gd = dice_loss(logits, targets, with_grad=True)
    return b + d, gb + gd


def reg_loss(pred, target, with_grad=False):
    """Mean squared error over points and the 3 coordinates (mm^2)."""
    p = np.asarray(pred)
    t = np.asarray(target, dtype=p.dtype)
    if p.shape != t.shape:
        raise ValueError(f"prediction {p.shape} vs target {t.shape}")
    diff = p - t
    loss = float(np.sum(diff * diff) / diff.size)
    if not with_grad:
        return loss
    return loss, 2.0 * diff / diff.size


def prior_loss(codes, with_grad=False):
    """Mean squared latent norm over the batch, (1/B) sum ||h_i||^2."""
    h = np.atleast_2d(np.asarray(codes))
    if h.size == 0:
        raise ValueError("prior loss of an empty batch")
    loss = float(np.sum(h * h) / len(h))
    if not with_grad:
        return loss
    return loss, 2.0 * h / len(h)


def prior_schedule(epoch, weights=None):
    """Warm-up schedule: min(1, epoch / warmup) times the maximum strength."""
    w = weights or LossWeights()
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    return min(1.0, epoch / w.warmup_epochs) * w.lambda_prior_max


def total_loss(seg, reg, prior, weights=None, epoch=None):
    """Training objective: seg / lambda_seg + reg / lambda_reg +
    lambda_prior(epoch) * prior (the two scale factors divide)."""
    w = weights or LossWeights()
    lam_p = w.lambda_prior_max if epoch is None else prior_schedule(epoch, w)
    for name, v in (("seg", seg), ("reg", reg), ("prior", prior)):
        if not math.isfinite(v):
            raise ValueError(f"non-finite {name} loss: {v}")
    return seg / w.lambda_seg + reg / w.lambda_reg + lam_p * prior


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


sigmoid = _sigmoid


# ----------------------------------------------------------------- sampling


@dataclass
class TrainingSample:
    shape_id: str
    seg_xyz: np.ndarray  # (n, 3) mm
    seg_labels: np.ndarray  # (n,) int8
    reg_uvc: np.ndarray  # (m, 4)
    reg_xyz: np.ndarray  # (m, 3) mm
    latent_index: int = -1


def sample_seg_points(mesh, n, margin=20.0, seed=0):
    """Classification point set: all template vertices (labeled by their
    surface's adjacent compartment) plus uniform points in the margin-grown
    bounding box labeled by containment. Requires n > vertex count."""
    from .anatomy.labeling import label_points

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


@dataclass
class TrainConfig:
    epochs: int = 400
    latent_dim: int = 64
    hidden_dim: int = 128
    num_blocks: int = 8
    lr_net: float = 1e-4
    lr_latent: float = 1e-3
    seg_batch: int = 1536
    reg_batch: int = 384
    weights: LossWeights = field(default_factory=LossWeights)
    val_fraction: float = 0.2
    seed: int = 0
    dtype: str = "float32"

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)


@dataclass
class TrainResult:
    seg_net: netcore.ResidualMlp
    reg_net: netcore.ResidualMlp
    latents: LatentTable
    stats: LatentStats
    log: list  # rows of (epoch, seg, reg, prior, total, val_total)
    train_ids: list
    val_ids: list
    opt: dict  # Adam states: "seg", "reg", and "lat" (one per latent row)
    epoch: int  # epochs completed, counting those before a resume


def seg_inputs(xyz, code):
    """(x, y, z) scaled to network units, concatenated with the shared code."""
    xyz = np.asarray(xyz)
    h = np.broadcast_to(code, (len(xyz), len(code)))
    return np.concatenate([xyz * INPUT_SCALE, h], axis=1)


def reg_inputs(uvc, code):
    uvc = np.asarray(uvc)
    h = np.broadcast_to(code, (len(uvc), len(code)))
    return np.concatenate([uvc, h], axis=1)


def make_networks(config):
    dt = config.np_dtype
    seg = netcore.init_params(
        netcore.ResidualMlp(3 + config.latent_dim, N_LABELS, config.hidden_dim, config.num_blocks),
        seed=config.seed + 1,
    ).astype(dt)
    reg = netcore.init_params(
        netcore.ResidualMlp(4 + config.latent_dim, 3, config.hidden_dim, config.num_blocks),
        seed=config.seed + 2,
    ).astype(dt)
    return seg, reg


def train(samples, config, resume=None, on_epoch=None):
    """Run the joint loop over precomputed per-shape samples.

    ``samples`` is a list of :class:`TrainingSample`. Shapes are split
    80/20 into training and validation; validation shapes contribute
    latent-code updates and logged losses but never network updates.
    ``resume`` continues from a loaded checkpoint (networks, codes, Adam
    states, epoch counter). ``on_epoch`` is called after every epoch with
    the :class:`TrainResult` reached so far. Returns the final
    :class:`TrainResult`.
    """
    if not samples:
        raise ValueError("empty cohort")
    samples = sorted(samples, key=lambda s: s.shape_id)
    ids = [s.shape_id for s in samples]
    n_shapes = len(samples)
    dt = config.np_dtype
    w = config.weights

    rng = np.random.default_rng(config.seed)
    n_val = int(round(config.val_fraction * n_shapes)) if n_shapes > 1 else 0
    order = rng.permutation(n_shapes)
    val_set = set(order[:n_val].tolist())
    train_rows = [i for i in range(n_shapes) if i not in val_set]

    if resume is None:
        seg_net, reg_net = make_networks(config)
        codes = (
            rng.standard_normal((n_shapes, config.latent_dim)) * 0.01
        ).astype(dt)
        opt_seg = netcore.OptimizerState.for_params(seg_net.parameters, lr=config.lr_net)
        opt_reg = netcore.OptimizerState.for_params(reg_net.parameters, lr=config.lr_net)
        opt_lat = [
            netcore.OptimizerState.for_params(codes[i], lr=config.lr_latent)
            for i in range(n_shapes)
        ]
        epoch0 = 0
    else:
        seg_net = resume.seg_net.astype(dt)
        reg_net = resume.reg_net.astype(dt)
        codes = resume.latent_codes.astype(dt)
        if codes.shape != (n_shapes, config.latent_dim):
            raise ValueError("checkpoint latent table does not match the cohort")
        if sorted(resume.opt) != ["lat", "reg", "seg"]:
            raise ValueError("checkpoint holds no optimizer state to resume from")
        opt_seg = _resumed(resume.opt["seg"], dt, config.lr_net)
        opt_reg = _resumed(resume.opt["reg"], dt, config.lr_net)
        opt_lat = [_resumed(st, dt, config.lr_latent) for st in resume.opt["lat"]]
        epoch0 = resume.epoch

    # cast the point data once
    seg_xyz = [s.seg_xyz.astype(dt) for s in samples]
    seg_onehot = [AnatomicalLabel.one_hot(s.seg_labels).astype(dt) for s in samples]
    reg_uvc = [s.reg_uvc.astype(dt) for s in samples]
    reg_xyz = [s.reg_xyz.astype(dt) for s in samples]

    log = []

    def result(epoch):
        stat_codes = codes[train_rows] if len(train_rows) >= 2 else codes
        return TrainResult(
            seg_net=seg_net,
            reg_net=reg_net,
            latents=LatentTable(codes.astype(np.float64), ids),
            stats=latent_stats(stat_codes) if len(stat_codes) >= 2 else None,
            log=log,
            train_ids=[ids[i] for i in train_rows],
            val_ids=[ids[i] for i in sorted(val_set)],
            opt={"seg": opt_seg, "reg": opt_reg, "lat": opt_lat},
            epoch=epoch,
        )

    for epoch in range(epoch0, epoch0 + config.epochs):
        lam_p = prior_schedule(epoch, w)
        epoch_rng = np.random.default_rng([config.seed, 977, epoch])
        visit = epoch_rng.permutation(n_shapes)
        sums = np.zeros(4)
        n_train_steps = 0
        val_sum, n_val_steps = 0.0, 0
        for si in visit:
            si = int(si)
            bs = epoch_rng.integers(0, len(seg_xyz[si]), size=min(config.seg_batch, len(seg_xyz[si])))
            br = epoch_rng.integers(0, len(reg_uvc[si]), size=min(config.reg_batch, len(reg_uvc[si])))
            h = codes[si]

            xs = seg_inputs(seg_xyz[si][bs], h)
            ts = seg_onehot[si][bs]
            logits, cache_s = netcore.forward_cached(seg_net, xs)
            l_seg, g_logits = seg_loss(logits, ts, with_grad=True)

            xr = reg_inputs(reg_uvc[si][br], h)
            out, cache_r = netcore.forward_cached(reg_net, xr)
            pred_mm = out * REG_OUTPUT_SCALE
            l_reg, g_pred = reg_loss(pred_mm, reg_xyz[si][br], with_grad=True)

            l_prior, g_prior = prior_loss(h, with_grad=True)
            l_total = total_loss(l_seg, l_reg, l_prior, w, epoch)
            if not math.isfinite(l_total):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, shape {ids[si]}: "
                    f"seg={l_seg} reg={l_reg} prior={l_prior}"
                )

            gs = netcore.backward(seg_net, xs, g_logits / w.lambda_seg, cache=cache_s)
            gr = netcore.backward(
                reg_net, xr, g_pred * (REG_OUTPUT_SCALE / w.lambda_reg), cache=cache_r
            )
            del cache_s, cache_r  # free the activations before the next forward pass
            g_h = (
                gs.input_grads[:, 3:].sum(axis=0)
                + gr.input_grads[:, 4:].sum(axis=0)
                + lam_p * g_prior[0]
            )

            if si in val_set:
                val_sum += l_total
                n_val_steps += 1
            else:
                netcore.adam_step(seg_net.parameters, gs.param_grads, opt_seg)
                netcore.adam_step(reg_net.parameters, gr.param_grads, opt_reg)
                sums += (l_seg, l_reg, l_prior, l_total)
                n_train_steps += 1
            netcore.adam_step(codes[si], g_h.astype(dt), opt_lat[si])

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
            on_epoch(result(epoch + 1))

    return result(epoch0 + config.epochs)


def _resumed(state, dtype, lr):
    """A loaded Adam state in the compute dtype, at this run's learning rate."""
    return replace(
        state,
        first_moment=state.first_moment.astype(dtype),
        second_moment=state.second_moment.astype(dtype),
        lr=lr,
    )
