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
from dataclasses import dataclass, field, replace

import numpy as np

from .anatomy import apply_frame, cardiac_frame, invert_frame, label_points
from .anatomy.template import TAG_EPI, TAG_LV_ENDO, TAG_RV_ENDO

KIND_GRID, KIND_CONTOUR = 0, 1
_KIND_NAMES = ("grid", "contour")


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

    def all_points(self, kind=None, views=None):
        """Concatenated (points, labels) over slices, optionally filtered
        by point kind and view names."""
        pts, labs = [], []
        for s in self.slices:
            if views is not None and s.plane.view not in views:
                continue
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

    faces = topo.faces
    fd = d[faces]  # (F, 3)
    crossing = (fd.min(axis=1) < 0.0) & (fd.max(axis=1) > 0.0)
    contour_pts, contour_labels = [], []
    if crossing.any():
        u1 = topo.uvc[:, 0]
        for fi in np.flatnonzero(crossing):
            ids = faces[fi]
            dv = fd[fi]
            pts = []
            for i in range(3):
                j = (i + 1) % 3
                if dv[i] * dv[j] < 0.0:
                    t = dv[i] / (dv[i] - dv[j])
                    pts.append(verts[ids[i]] + t * (verts[ids[j]] - verts[ids[i]]))
            if len(pts) != 2:
                continue
            group = topo.face_group[fi]
            if group == TAG_LV_ENDO:
                lab = 1
            elif group == TAG_RV_ENDO:
                lab = 2
            else:  # epicardium / basal band: myocardium of its ventricle
                lab = 4 if u1[ids].mean() > 0.5 else 3
            for p in pts:
                contour_pts.append(p)
                contour_labels.append(lab)
    contour_pts = np.asarray(contour_pts).reshape(-1, 3)
    contour_labels = np.asarray(contour_labels, dtype=np.int8)

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
    kinds = np.concatenate(
        [
            np.full(len(grid), KIND_GRID, dtype=np.uint8),
            np.full(len(contour_pts), KIND_CONTOUR, dtype=np.uint8),
        ]
    )
    return Slice(plane=plane, points=points, labels=labels, kinds=kinds)


def acquire(mesh, shape_id, spacing=10.0, density=2.0):
    """Full ideal acquisition: all standard views sliced."""
    slices = [slice_mesh(mesh, plane, density=density) for plane in standard_views(mesh, spacing)]
    return ContourSet(shape_id=shape_id, slices=slices, provenance="ideal")


def inject_misalignment(contours, spec):
    """Rigidly translate each slice in-plane by a seeded Gaussian shift.

    Point order and labels are untouched, so the shift is exactly
    recoverable; the result is tagged "misaligned".
    """
    out = []
    for i, s in enumerate(contours.slices):
        rng = np.random.default_rng([spec.seed, stable_hash(contours.shape_id), i])
        shift = rng.normal(0.0, spec.sigma, size=2)
        delta = shift[0] * s.plane.e1 + shift[1] * s.plane.e2
        out.append(
            Slice(
                plane=s.plane,
                points=s.points + delta,
                labels=s.labels.copy(),
                kinds=s.kinds.copy(),
                shift=s.shift + shift,
            )
        )
    return ContourSet(contours.shape_id, out, provenance="misaligned")


def remove_misalignment(contours):
    """Subtract the recorded per-slice shifts (inverse of injection)."""
    out = []
    for s in contours.slices:
        delta = s.shift[0] * s.plane.e1 + s.shift[1] * s.plane.e2
        out.append(
            Slice(
                plane=s.plane,
                points=s.points - delta,
                labels=s.labels.copy(),
                kinds=s.kinds.copy(),
                shift=np.zeros(2),
            )
        )
    return ContourSet(contours.shape_id, out, provenance="ideal")


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


def _slice_record(s):
    return {
        "view": s.plane.view,
        "origin": s.plane.origin.tolist(),
        "normal": s.plane.normal.tolist(),
        "e1": s.plane.e1.tolist(),
        "e2": s.plane.e2.tolist(),
        "spacing": s.plane.spacing,
        "shift": s.shift.tolist(),
        "points": [
            {"xyz": xyz, "label": label, "kind": _KIND_NAMES[kind]}
            for xyz, label, kind in zip(s.points.tolist(), s.labels.tolist(), s.kinds.tolist())
        ],
    }


def save_contours(path, contours):
    # one slice at a time through json's C encoder: the bytes equal those of
    # json.dump of the whole document, which runs the pure-Python encoder
    head = json.dumps(
        {"shape_id": contours.shape_id, "provenance": contours.provenance, "slices": []}
    )
    with open(path, "w") as f:
        f.write(head[: -len("]}")])
        for i, s in enumerate(contours.slices):
            f.write((", " if i else "") + json.dumps(_slice_record(s)))
        f.write("]}\n")


def load_contours(path):
    with open(path) as f:
        doc = json.load(f)
    slices = []
    for rec in doc["slices"]:
        plane = SlicePlane(
            view=rec["view"],
            origin=rec["origin"],
            normal=rec["normal"],
            e1=rec["e1"],
            e2=rec["e2"],
            spacing=rec.get("spacing", 10.0),
        )
        pts = np.array([p["xyz"] for p in rec["points"]], dtype=np.float64).reshape(-1, 3)
        labels = np.array([p["label"] for p in rec["points"]], dtype=np.int8)
        kinds = np.array(
            [_KIND_NAMES.index(p["kind"]) for p in rec["points"]], dtype=np.uint8
        )
        slices.append(
            Slice(plane=plane, points=pts, labels=labels, kinds=kinds,
                  shift=np.asarray(rec["shift"], dtype=np.float64))
        )
    return ContourSet(doc["shape_id"], slices, provenance=doc["provenance"])
