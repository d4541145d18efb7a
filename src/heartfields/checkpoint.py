"""Binary checkpoint container for the two networks and the latent table.

Little-endian layout:

    magic       4 bytes   b"NIHC"
    version     u32       currently 1
    latent_dim  u32
    n_sections  u32
    section table, n_sections entries of (name: 8 bytes NUL-padded,
                                          offset: u64, size: u64)
    section payloads

Network sections ("segnet", "regnet") hold the four dims
(input/output/hidden/blocks) as u32 followed by the flat parameter vector
as float64 in layout order. "latents" holds (count u32, dim u32) plus the
code table; "latstats" holds the latent mean, covariance, and regularized
inverse; "scales" the input/output scaling constants of :mod:`training`,
which loading checks; "opt*" sections the Adam moments and step count
(the latent table's per-row states as one row-major block) so training
can resume; "meta" the epoch counter.
All floating payloads are float64 regardless of the in-memory compute dtype.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .netcore import OptimizerState, ResidualMlp, param_count
from .training import INPUT_SCALE, REG_OUTPUT_SCALE, LatentStats

MAGIC = b"NIHC"
VERSION = 1
SCALES = {"input_scale": INPUT_SCALE, "reg_output_scale": REG_OUTPUT_SCALE}


@dataclass
class Checkpoint:
    seg_net: ResidualMlp
    reg_net: ResidualMlp
    latent_codes: np.ndarray  # (n_shapes, latent_dim)
    stats: LatentStats = None
    # Adam states: "seg" and "reg" one each, "lat" a list with one per row
    opt: dict = field(default_factory=dict)
    epoch: int = 0

    @property
    def latent_dim(self):
        return int(self.latent_codes.shape[1])


def _net_payload(net):
    head = struct.pack(
        "<4I", net.input_dim, net.output_dim, net.hidden_dim, net.num_blocks
    )
    return head + np.ascontiguousarray(net.parameters, dtype="<f8").tobytes()


def _array_payload(arr):
    arr = np.ascontiguousarray(arr, dtype="<f8")
    head = struct.pack("<2I", arr.shape[0], arr.shape[1] if arr.ndim == 2 else 1)
    return head + arr.tobytes()


def _read_section(path, sections, name, head, count):
    """Header fields and float64 payload of section ``name``, which must be
    the ``head`` struct followed by exactly ``count(*fields)`` floats."""
    buf = sections[name]
    size = struct.calcsize(head)
    if len(buf) < size:
        raise ValueError(f"{path}: section {name!r} is {len(buf)} bytes, shorter than its header")
    fields = struct.unpack_from(head, buf)
    want = size + 8 * count(*fields)
    if len(buf) != want:
        raise ValueError(
            f"{path}: section {name!r} is {len(buf)} bytes, its dims {fields} need {want}"
        )
    return fields, np.frombuffer(buf, dtype="<f8", offset=size).copy()


def _scales_payload():
    return b"".join(
        struct.pack("<16sd", k.encode().ljust(16, b"\0"), v) for k, v in sorted(SCALES.items())
    )


def save_checkpoint(path, ckpt):
    """Write a checkpoint to ``path``."""
    sections = [
        (b"segnet", _net_payload(ckpt.seg_net)),
        (b"regnet", _net_payload(ckpt.reg_net)),
        (b"latents", _array_payload(np.atleast_2d(ckpt.latent_codes))),
    ]
    if ckpt.stats is not None:
        st = ckpt.stats
        blob = np.concatenate([st.mean.ravel(), st.cov.ravel(), st.cov_inv.ravel()])
        sections.append((b"latstats", struct.pack("<I", st.mean.size) + blob.tobytes()))
    sections.append((b"scales", _scales_payload()))
    for name, state in sorted(ckpt.opt.items()):
        rows = state if name == "lat" else [state]
        m = b"".join(np.ascontiguousarray(r.first_moment, dtype="<f8").tobytes() for r in rows)
        v = b"".join(np.ascontiguousarray(r.second_moment, dtype="<f8").tobytes() for r in rows)
        head = struct.pack("<2I", len(m) // 8, rows[0].step_count)
        sections.append((("opt_" + name).encode()[:8], head + m + v))
    sections.append((b"meta", struct.pack("<I", int(ckpt.epoch))))

    header = MAGIC + struct.pack("<3I", VERSION, ckpt.latent_dim, len(sections))
    table_size = len(sections) * (8 + 8 + 8)
    offset = len(header) + table_size
    table = b""
    for name, payload in sections:
        table += struct.pack("<8sQQ", name.ljust(8, b"\0"), offset, len(payload))
        offset += len(payload)

    with open(path, "wb") as f:
        f.write(header)
        f.write(table)
        for _, payload in sections:
            f.write(payload)


def load_checkpoint(path):
    """Read a checkpoint; raise ``ValueError`` naming ``path`` if it is
    truncated, lacks a required section, or holds a payload whose length
    disagrees with its declared dims."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16:
        raise ValueError(f"{path}: truncated: {len(blob)} bytes, shorter than the 16-byte header")
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    version, latent_dim, n_sections = struct.unpack_from("<3I", blob, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if len(blob) < 16 + 24 * n_sections:
        raise ValueError(
            f"{path}: truncated: {len(blob)} bytes, shorter than the table of "
            f"{n_sections} sections"
        )
    sections = {}
    for pos in range(16, 16 + 24 * n_sections, 24):
        name, offset, size = struct.unpack_from("<8sQQ", blob, pos)
        name = name.rstrip(b"\0").decode(errors="replace")
        if offset + size > len(blob):
            raise ValueError(
                f"{path}: truncated: section {name!r} ends at byte {offset + size} "
                f"of a {len(blob)}-byte file"
            )
        sections[name] = blob[offset : offset + size]
    missing = [n for n in ("segnet", "regnet", "latents", "scales") if n not in sections]
    if missing:
        raise ValueError(f"{path}: missing sections {missing}")

    nets = {}
    for name in ("segnet", "regnet"):
        dims, params = _read_section(path, sections, name, "<4I", param_count)
        nets[name] = ResidualMlp(*dims, params)
    (rows, cols), codes = _read_section(path, sections, "latents", "<2I", lambda r, c: r * c)
    if cols != latent_dim:
        raise ValueError(f"{path}: latent table dim {cols} != header dim {latent_dim}")
    ckpt = Checkpoint(nets["segnet"], nets["regnet"], codes.reshape(rows, cols))
    if sections["scales"] != _scales_payload():
        raise ValueError(f"{path}: scales section does not hold {SCALES}")
    if "latstats" in sections:
        (dim,), data = _read_section(path, sections, "latstats", "<I", lambda d: d + 2 * d * d)
        ckpt.stats = LatentStats(
            mean=data[:dim],
            cov=data[dim : dim + dim * dim].reshape(dim, dim),
            cov_inv=data[dim + dim * dim :].reshape(dim, dim),
        )
    for name in sections:
        if name.startswith("opt_"):
            (size, t), data = _read_section(path, sections, name, "<2I", lambda n, _t: 2 * n)
            m, v = data[:size], data[size:]
            if name == "opt_lat":
                if not rows or size % rows:
                    raise ValueError(
                        f"{path}: section 'opt_lat' holds {size} moments for {rows} latent rows"
                    )
                m, v = m.reshape(rows, -1), v.reshape(rows, -1)
                ckpt.opt["lat"] = [OptimizerState(a, b, t) for a, b in zip(m, v)]
            else:
                ckpt.opt[name[4:]] = OptimizerState(m, v, t)
    if "meta" in sections:
        (ckpt.epoch,), _ = _read_section(path, sections, "meta", "<I", lambda _e: 0)
    return ckpt
