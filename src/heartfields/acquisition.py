"""Sparse slice acquisition: standard CMR-style view planes, mesh slicing
into labeled contour and occupancy-grid points, in-plane misalignment
injection, and the ablation subsets.

Every slice carries two point populations: contour points from
triangle-plane intersections of the anatomical surfaces (labeled by the
surface they came from) and a regular in-plane grid labeled by containment,
which supplies the background/blood/myocardium occupancy targets that
reconstruction optimizes against.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .anatomy import AnatomicalLabel, apply_frame, cardiac_frame, invert_frame, label_points
from .anatomy.template import TAG_LV_ENDO, TAG_RV_ENDO

KIND_GRID, KIND_CONTOUR = 0, 1


@dataclass
class SlicePlane:
    view: str  # "sax00".. / "lax_4ch" / "lax_2ch" / "lax_3ch"
    origin: np.ndarray
    normal: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    spacing: float = 10.0  # nominal stack spacing metadata (mm)

    def __post_init__(self):
        for name in ("origin", "normal", "e1", "e2"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if abs(np.linalg.norm(self.normal) - 1.0) > 1e-9:
            raise ValueError("plane normal must be unit length")
        for u, v in ((self.e1, self.e2), (self.e1, self.normal), (self.e2, self.normal)):
            if abs(float(u @ v)) > 1e-9:
                raise ValueError("plane axes must be orthonormal")


@dataclass
class Slice:
    plane: SlicePlane
    points: np.ndarray  # (n, 3) mm
    labels: np.ndarray  # (n,) int8
    kinds: np.ndarray  # (n,) uint8, 0 grid / 1 contour
    shift: np.ndarray = field(default_factory=lambda: np.zeros(2))


@dataclass
class ContourSet:
    shape_id: str
    slices: list
    provenance: str = "ideal"  # or "misaligned"

    def views(self):
        return [s.plane.view for s in self.slices]

    def all_points(self, kind=None):
        """Concatenated (points, labels) over slices, optionally filtered
        by point kind."""
        pts, labs = [], []
        for s in self.slices:
            keep = slice(None) if kind is None else (s.kinds == kind)
            pts.append(s.points[keep])
            labs.append(s.labels[keep])
        if not pts:
            return np.zeros((0, 3)), np.zeros(0, dtype=np.int8)
        return np.concatenate(pts), np.concatenate(labs)


@dataclass
class MisalignmentSpec:
    sigma: float = 3.0  # mm, SD of each in-plane component of a slice's shift
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


@dataclass
class AblationConfig:
    lax_3ch: bool
    lax_4ch: bool
    half_sax: bool
    all_sax: bool
    name: str = ""

    def __post_init__(self):
        if self.half_sax and self.all_sax:
            raise ValueError("half_sax and all_sax are mutually exclusive")


# the five ablation rows: toggled long-axis views plus full or half SAX stack
ABLATION_ROWS = [
    AblationConfig(True, True, False, True, name="3ch+4ch+allsax"),
    AblationConfig(False, True, False, True, name="4ch+allsax"),
    AblationConfig(True, False, False, True, name="3ch+allsax"),
    AblationConfig(False, False, False, True, name="allsax"),
    AblationConfig(False, False, True, False, name="halfsax"),
]


def standard_views(mesh, spacing=10.0, apex_margin=5.0, base_margin=2.0):
    """Standard view planes for one shape: a short-axis stack perpendicular
    to the long axis at fixed spacing from apex to base, plus three
    long-axis planes containing the long axis (the 4-chamber plane passes
    through the tricuspid centroid; 2-chamber and 3-chamber are rotated 60
    and 120 degrees about the long axis)."""
    frame = cardiac_frame(**mesh.landmarks)
    local = apply_frame(frame, mesh.vertices)
    z_lo, z_hi = local[:, 2].min(), local[:, 2].max()  # apex is at +z

    planes = []
    za, xa, ya = frame.rotation[:, 2], frame.rotation[:, 0], frame.rotation[:, 1]
    levels = np.arange(z_hi - apex_margin, z_lo + base_margin - 1e-9, -spacing)
    if levels.size == 0:
        levels = np.array([(z_hi + z_lo) / 2.0])  # degenerate short mesh
    for k, z in enumerate(levels):
        planes.append(
            SlicePlane(
                view=f"sax{k:02d}",
                origin=invert_frame(frame, np.array([0.0, 0.0, z])),
                normal=za,
                e1=xa,
                e2=ya,
                spacing=spacing,
            )
        )

    tvc_local = apply_frame(frame, mesh.landmarks["tvc"])
    alpha4 = float(np.arctan2(tvc_local[1], tvc_local[0]))
    for name, alpha in (
        ("lax_4ch", alpha4),
        ("lax_2ch", alpha4 + np.pi / 3.0),
        ("lax_3ch", alpha4 + 2.0 * np.pi / 3.0),
    ):
        in_plane = np.cos(alpha) * xa + np.sin(alpha) * ya
        normal = -np.sin(alpha) * xa + np.cos(alpha) * ya
        planes.append(
            SlicePlane(
                view=name,
                origin=frame.origin.copy(),
                normal=normal,
                e1=in_plane,
                e2=za,
                spacing=spacing,
            )
        )
    return planes


def slice_mesh(mesh, plane, density=2.0, margin=8.0):
    """Slice one mesh with one plane.

    Returns a :class:`Slice` whose points are (a) contour points where the
    anatomical surface triangles cross the plane, labeled by the surface
    they belong to, and (b) an in-plane occupancy grid over the projected
    footprint of the mesh (plus ``margin``), labeled by containment.
    """
    topo = mesh.topology
    verts = mesh.vertices
    d = (verts - plane.origin) @ plane.normal

    # edge k of a face runs from its vertex k to vertex (k + 1) % 3; a face
    # with exactly two cut edges contributes their two crossing points
    nxt = [1, 2, 0]
    fd = d[topo.faces]  # (F, 3)
    cut = fd * fd[:, nxt] < 0.0
    two = cut.sum(axis=1) == 2
    ids, fd, cut = topo.faces[two], fd[two], cut[two]
    di, dj = fd[cut], fd[:, nxt][cut]  # face order, then edge order
    vi, vj = verts[ids[cut]], verts[ids[:, nxt][cut]]
    t = di / (di - dj)
    contour_pts = vi + t[:, None] * (vj - vi)
    group = topo.face_group[two]
    myo = np.where(topo.uvc[ids, 0].mean(axis=1) > 0.5, 4, 3)  # epicardial/basal: LVM or RVM
    face_labels = np.select([group == TAG_LV_ENDO, group == TAG_RV_ENDO], [1, 2], myo)
    contour_labels = np.repeat(face_labels, 2).astype(np.int8)

    # occupancy grid over the projected footprint
    rel = verts - plane.origin
    u = rel @ plane.e1
    v = rel @ plane.e2
    ug = np.arange(u.min() - margin, u.max() + margin, density)
    vg = np.arange(v.min() - margin, v.max() + margin, density)
    uu, vv = np.meshgrid(ug, vg, indexing="ij")
    grid = (
        plane.origin
        + uu.ravel()[:, None] * plane.e1
        + vv.ravel()[:, None] * plane.e2
    )
    grid_labels = label_points(grid, mesh)

    points = np.vstack([grid, contour_pts])
    labels = np.concatenate([grid_labels, contour_labels])
    kinds = np.repeat(np.uint8([KIND_GRID, KIND_CONTOUR]), [len(grid), len(contour_pts)])
    return Slice(plane=plane, points=points, labels=labels, kinds=kinds)


def acquire(mesh, shape_id, spacing=10.0, density=2.0):
    """Full ideal acquisition: all standard views sliced."""
    slices = [slice_mesh(mesh, plane, density=density) for plane in standard_views(mesh, spacing)]
    return ContourSet(shape_id=shape_id, slices=slices, provenance="ideal")


def _translated(contours, shifts, provenance):
    """Copy of ``contours`` with slice i moved in-plane by ``shifts[i]``
    (mm along its e1, e2) and the move added to its recorded shift."""
    out = []
    for s, shift in zip(contours.slices, shifts):
        delta = shift[0] * s.plane.e1 + shift[1] * s.plane.e2
        out.append(Slice(s.plane, s.points + delta, s.labels.copy(), s.kinds.copy(),
                         s.shift + shift))
    return ContourSet(contours.shape_id, out, provenance=provenance)


def inject_misalignment(contours, spec):
    """Rigidly translate each slice in-plane by a seeded Gaussian shift.

    Point order and labels are untouched, so the shift is exactly
    recoverable; the result is tagged "misaligned".
    """
    seed = [spec.seed, stable_hash(contours.shape_id)]
    shifts = [
        np.random.default_rng(seed + [i]).normal(0.0, spec.sigma, size=2)
        for i in range(len(contours.slices))
    ]
    return _translated(contours, shifts, "misaligned")


def remove_misalignment(contours):
    """Subtract the recorded per-slice shifts (inverse of injection)."""
    return _translated(contours, [-s.shift for s in contours.slices], "ideal")


def stable_hash(text):
    """32-bit FNV-1a hash of ``str(text)``; unlike ``hash`` it is the same in
    every process, so seeds derived from ids reproduce across runs."""
    h = 2166136261
    for ch in str(text).encode():
        h = (h ^ ch) * 16777619 % (1 << 32)
    return h


def select_subset(contours, config):
    """Keep the slices selected by one ablation row. HALF SAX keeps every
    second short-axis slice starting from the most apical; the 2-chamber
    view is not part of any ablation row."""
    sax = sorted(
        (s for s in contours.slices if s.plane.view.startswith("sax")),
        key=lambda s: s.plane.view,
    )
    keep = []
    if config.all_sax:
        keep += sax
    elif config.half_sax:
        keep += sax[::2]
    for s in contours.slices:
        if s.plane.view == "lax_3ch" and config.lax_3ch:
            keep.append(s)
        if s.plane.view == "lax_4ch" and config.lax_4ch:
            keep.append(s)
    if not keep:
        raise ValueError(f"ablation row {config} selects no slices")
    return ContourSet(contours.shape_id, keep, provenance=contours.provenance)


# ----------------------------------------------------------------- file I/O


CONTOUR_FORMAT = 2


def _slice_record(s):
    return {
        "view": s.plane.view,
        "origin": s.plane.origin.tolist(),
        "normal": s.plane.normal.tolist(),
        "e1": s.plane.e1.tolist(),
        "e2": s.plane.e2.tolist(),
        "spacing": s.plane.spacing,
        "shift": s.shift.tolist(),
        "xyz": s.points.tolist(),
        "labels": s.labels.tolist(),
        "kinds": s.kinds.tolist(),
    }


def save_contours(path, contours):
    """Write a ``format`` 2 contour file: per slice, its plane, its shift and
    its ``xyz``, ``labels`` and ``kinds`` arrays."""
    # one slice at a time through json's C encoder: the bytes equal those of
    # json.dump of the whole document, which runs the pure-Python encoder
    head = json.dumps({"format": CONTOUR_FORMAT, "shape_id": contours.shape_id,
                       "provenance": contours.provenance, "slices": []})
    with open(path, "w") as f:
        f.write(head[: -len("]}")])
        for i, s in enumerate(contours.slices):
            f.write((", " if i else "") + json.dumps(_slice_record(s)))
        f.write("]}\n")


def _floats(values, shape, name):
    a = np.asarray(values, dtype=np.float64)
    if a.shape != shape or not np.isfinite(a).all():
        raise ValueError(f"{name} is not {shape} finite numbers")
    return a


def _codes(values, allowed, name):
    a = np.asarray(values)
    if a.ndim != 1 or not np.isin(a, allowed).all():
        raise ValueError(f"{name} outside {allowed}")
    return a


def _slice_from_record(rec):
    frame = [_floats(rec[k], (3,), k) for k in ("origin", "normal", "e1", "e2")]
    plane = SlicePlane(rec["view"], *frame, spacing=rec["spacing"])
    xyz = rec["xyz"]
    points = _floats(xyz, (len(xyz), 3), "xyz") if len(xyz) else np.zeros((0, 3))
    labels = _codes(rec["labels"], [int(a) for a in AnatomicalLabel], "labels")
    kinds = _codes(rec["kinds"], [KIND_GRID, KIND_CONTOUR], "kinds")
    if not len(points) == len(labels) == len(kinds):
        raise ValueError(f"slice {rec['view']!r} holds {len(points)} xyz, "
                         f"{len(labels)} labels and {len(kinds)} kinds")
    return Slice(plane, points, labels.astype(np.int8), kinds.astype(np.uint8),
                 shift=_floats(rec["shift"], (2,), "shift"))


def load_contours(path):
    """Read a file written by :func:`save_contours`. A ``ValueError`` naming
    ``path`` reports invalid JSON, another ``format``, a missing key, or
    arrays of the wrong shape, of disagreeing lengths or out of range."""
    try:
        with open(path) as f:
            doc = json.load(f)
        if doc["format"] != CONTOUR_FORMAT:
            raise ValueError(f"format {doc['format']!r} is not {CONTOUR_FORMAT}")
        slices = [_slice_from_record(rec) for rec in doc["slices"]]
        return ContourSet(doc["shape_id"], slices, provenance=doc["provenance"])
    except KeyError as e:
        raise ValueError(f"{path}: missing key {e}") from e
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from e
