"""Checkpoint container for the two networks and the latent table.

A checkpoint is a zip archive of ``.npy`` members (numpy's ``.npz`` layout),
stored uncompressed with a fixed timestamp, so equal checkpoints are equal
files. Loading checks the CRC-32 zip keeps for every member, so a flipped
byte is an error instead of a changed parameter. The members are ``format``
(2); ``scales``, the [INPUT_SCALE, REG_OUTPUT_SCALE] of :mod:`training`,
which loading checks; per network ``seg_net.dims`` / ``reg_net.dims``
(input, output, hidden, blocks) and ``.params``, the flat parameter vector
in layout order; ``latent_codes`` (n_shapes, latent_dim); optionally
``stats.mean`` and ``stats.cov_inv``; optionally ``opt.<name>.m``, ``.v`` and
``.t``, the Adam moments and step count of "seg", "reg" and "lat" (one state
for the whole latent table, counting epochs; no learning rate) and ``log``,
one float64 row of :data:`training.LOG_COLUMNS` per completed epoch, which
training needs to resume from the checkpoint and reconstruction does not.
The number of completed epochs is stored once, as the log's row count, which
must equal ``opt.lat.t``; loading ignores the ``stats.cov`` and ``epoch``
members of older files.
Every floating member is stored little-endian in its in-memory dtype, so the
nets and the latent table load in the dtype the run trained in (float32 or
float64), and an Adam state's moments share their parameters' dtype.
"""

import io
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .netcore import OptimizerState, ResidualMlp
from .training import DTYPES, INPUT_SCALE, LOG_COLUMNS, REG_OUTPUT_SCALE, LatentStats

FORMAT = 2
SCALES = (INPUT_SCALE, REG_OUTPUT_SCALE)
NETS = ("seg_net", "reg_net")
# the earliest time zip can record; np.savez would stamp the clock instead
_DATE_TIME = (1980, 1, 1, 0, 0, 0)


@dataclass
class Checkpoint:
    seg_net: ResidualMlp
    reg_net: ResidualMlp
    latent_codes: np.ndarray  # (n_shapes, latent_dim)
    stats: LatentStats = None
    # Adam states of "seg", "reg" and "lat", one each
    opt: dict = field(default_factory=dict)
    log: np.ndarray = None  # one row of LOG_COLUMNS per completed epoch


def save_checkpoint(path, ckpt):
    """Write a checkpoint to ``path``."""
    members = {"format": FORMAT, "scales": SCALES}
    for name in NETS:
        net = getattr(ckpt, name)
        members[f"{name}.dims"] = [net.input_dim, net.output_dim, net.hidden_dim, net.num_blocks]
        members[f"{name}.params"] = net.parameters
    members["latent_codes"] = np.atleast_2d(ckpt.latent_codes)
    if ckpt.stats is not None:
        for key in ("mean", "cov_inv"):
            members[f"stats.{key}"] = getattr(ckpt.stats, key)
    for name, state in sorted(ckpt.opt.items()):
        members[f"opt.{name}.m"] = state.first_moment
        members[f"opt.{name}.v"] = state.second_moment
        members[f"opt.{name}.t"] = state.step_count
    if ckpt.log is not None:
        members["log"] = np.array(ckpt.log, np.float64).reshape(len(ckpt.log), len(LOG_COLUMNS))

    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, value in members.items():
            arr = np.asarray(value)
            if arr.dtype.kind == "f":
                arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
            with zf.open(zipfile.ZipInfo(f"{name}.npy", date_time=_DATE_TIME), "w") as f:
                np.lib.format.write_array(f, arr, allow_pickle=False)


def load_checkpoint(path):
    """Read a checkpoint; raise ``ValueError`` naming ``path`` if it is not
    a format-2 archive, is truncated, fails a member's CRC, lacks a required
    member, holds members whose dims disagree, holds a net whose parameters
    are not float32 or float64, holds Adam moments of another dtype than
    their parameters, or holds a log that is not one row per step of the
    latent table's Adam state."""
    with open(path, "rb") as f:
        if f.read(4) == b"NIHC":
            raise ValueError(f"{path}: checkpoint format 1 is no longer read; retrain")
    try:
        with zipfile.ZipFile(path) as zf:
            # ZipFile.read checks a member's CRC-32 before its .npy header is parsed
            members = {
                name.removesuffix(".npy"): np.lib.format.read_array(
                    io.BytesIO(zf.read(name)), allow_pickle=False
                )
                for name in zf.namelist()
            }
        return _from_archive(members)
    except KeyError as err:
        raise ValueError(f"{path}: missing member {err}") from err
    # a corrupt zip directory raises these; a missing file raised before the try
    except (zipfile.BadZipFile, EOFError, OSError, NotImplementedError, ValueError) as err:
        raise ValueError(f"{path}: {err}") from err


def _from_archive(arrays):
    fmt = int(arrays["format"])
    if fmt != FORMAT:
        raise ValueError(f"unsupported checkpoint format {fmt}")
    if not np.array_equal(arrays["scales"], SCALES):
        raise ValueError(f"scales member holds {arrays['scales']}, not {list(SCALES)}")
    for n in NETS:
        dt = arrays[f"{n}.params"].dtype
        if str(dt) not in DTYPES:
            raise ValueError(f"{n}.params has dtype {dt}, not one of {', '.join(DTYPES)}")
    seg, reg = (ResidualMlp(*map(int, arrays[f"{n}.dims"]), arrays[f"{n}.params"]) for n in NETS)
    codes = arrays["latent_codes"]
    _, dim = codes.shape
    ckpt = Checkpoint(seg, reg, codes, log=arrays.get("log"))
    if "stats.mean" in arrays:
        ckpt.stats = LatentStats(arrays["stats.mean"], arrays["stats.cov_inv"])
        shapes = [a.shape for a in (ckpt.stats.mean, ckpt.stats.cov_inv)]
        if shapes != [(dim,), (dim, dim)]:
            raise ValueError(f"latent stats have shapes {shapes}, latent dim is {dim}")
    for name, params in (("seg", seg.parameters), ("reg", reg.parameters), ("lat", codes)):
        if f"opt.{name}.m" not in arrays:
            continue
        m, v, t = arrays[f"opt.{name}.m"], arrays[f"opt.{name}.v"], int(arrays[f"opt.{name}.t"])
        if m.shape != params.shape or v.shape != params.shape:
            raise ValueError(f"opt.{name} moments are {m.shape}/{v.shape}, not {params.shape}")
        if m.dtype != params.dtype or v.dtype != params.dtype:
            raise ValueError(
                f"opt.{name} moments have dtypes {m.dtype}/{v.dtype}, its parameters {params.dtype}"
            )
        ckpt.opt[name] = OptimizerState(m, v, t)
    if ckpt.log is not None:
        if ckpt.log.ndim != 2 or ckpt.log.shape[1] != len(LOG_COLUMNS):
            raise ValueError(f"log has shape {ckpt.log.shape}, not rows of {len(LOG_COLUMNS)}")
        # the latent table's Adam state steps once per epoch
        if "lat" in ckpt.opt and len(ckpt.log) != ckpt.opt["lat"].step_count:
            raise ValueError(f"log has shape {ckpt.log.shape}, not one row per epoch of "
                             f"{ckpt.opt['lat'].step_count}")
    return ckpt
