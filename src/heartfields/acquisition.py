"""Sparse slice acquisition: standard CMR-style view planes, mesh slicing
into labeled contour and occupancy-grid points, in-plane misalignment
injection, and the ablation subsets.

Every slice carries two point populations: contour points from
triangle-plane intersections of the anatomical surfaces (labeled by the
surface they came from) and a regular in-plane grid labeled by containment,
which supplies the background/blood/myocardium occupancy targets that
reconstruction optimizes against.
"""

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from .anatomy import AnatomicalLabel, apply_frame, cardiac_frame, invert_frame, label_points
from .anatomy.template import surface_label

KIND_GRID, KIND_CONTOUR = 0, 1
# the short-axis stack starts this far (mm) inside the apex and stops this
# far inside the base
APEX_MARGIN, BASE_MARGIN = 5.0, 2.0
# the occupancy grid of a slice extends this far (mm) past the mesh footprint
GRID_MARGIN = 8.0


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
            setattr(self, name, _floats(getattr(self, name), (3,), name))
        for name in ("normal", "e1", "e2"):
            if abs(np.linalg.norm(getattr(self, name)) - 1.0) > 1e-9:
                raise ValueError(f"plane {name} must be unit length")
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

    def all_points(self, kind):
        """Concatenated (points, labels) of kind ``kind`` over slices."""
        pts, labs = [], []
        for s in self.slices:
            keep = s.kinds == kind
            pts.append(s.points[keep])
            labs.append(s.labels[keep])
        if not pts:
            return np.zeros((0, 3)), np.zeros(0, dtype=np.int8)
        return np.concatenate(pts), np.concatenate(labs)


# the five ablation rows: name -> (long-axis views kept, step through the
# short-axis stack from its most apical slice)
ABLATION_ROWS = {
    "3ch+4ch+allsax": (("lax_3ch", "lax_4ch"), 1),
    "4ch+allsax": (("lax_4ch",), 1),
    "3ch+allsax": (("lax_3ch",), 1),
    "allsax": ((), 1),
    "halfsax": ((), 2),
}


def standard_views(mesh, spacing=10.0):
    """Standard view planes for one shape: a short-axis stack perpendicular
    to the long axis at fixed spacing from apex to base, plus three
    long-axis planes containing the long axis (the 4-chamber plane passes
    through the tricuspid centroid; 2-chamber and 3-chamber are rotated 60
    and 120 degrees about the long axis). A ``spacing`` that is not positive
    and finite raises ``ValueError``."""
    _positive("spacing", spacing)
    frame = cardiac_frame(**mesh.landmarks)
    local = apply_frame(frame, mesh.vertices)
    z_lo, z_hi = local[:, 2].min(), local[:, 2].max()  # apex is at +z

    planes = []
    za, xa, ya = frame.rotation[:, 2], frame.rotation[:, 0], frame.rotation[:, 1]
    levels = np.arange(z_hi - APEX_MARGIN, z_lo + BASE_MARGIN - 1e-9, -spacing)
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


def slice_mesh(mesh, planes, density=2.0):
    """Slice one mesh with each of ``planes``; returns one :class:`Slice`
    per plane (a lone :class:`SlicePlane` gives its lone ``Slice``).

    A slice's points are (a) contour points where the anatomical surface
    triangles cross the plane, labeled by ``surface_label`` of their
    triangle's face group and mean u1, and (b) an in-plane occupancy grid
    over the mesh footprint (plus ``GRID_MARGIN``) at ``density`` mm,
    labeled by containment. The grids of all planes are labeled in one
    :func:`label_points` call. A ``density`` that is not positive and finite
    raises ``ValueError`` before anything is sliced.
    """
    if isinstance(planes, SlicePlane):
        return slice_mesh(mesh, [planes], density)[0]
    _positive("density", density)
    grids = [_grid(mesh.vertices, plane, density) for plane in planes]
    ends = np.cumsum([len(g) for g in grids])[:-1]
    grid = np.concatenate([np.zeros((0, 3)), *grids])
    labels = label_points(grid, mesh)
    return [
        _slice(mesh, plane, g, lab)
        for plane, g, lab in zip(planes, np.split(grid, ends), np.split(labels, ends))
    ]


def _grid(verts, plane, density):
    """The in-plane grid of ``plane`` over the footprint of ``verts``."""
    rel = verts - plane.origin
    u = rel @ plane.e1
    v = rel @ plane.e2
    ug = np.arange(u.min() - GRID_MARGIN, u.max() + GRID_MARGIN, density)
    vg = np.arange(v.min() - GRID_MARGIN, v.max() + GRID_MARGIN, density)
    uu, vv = np.meshgrid(ug, vg, indexing="ij")
    return plane.origin + uu.ravel()[:, None] * plane.e1 + vv.ravel()[:, None] * plane.e2


def _slice(mesh, plane, grid, grid_labels):
    """The :class:`Slice` of ``plane``: its labeled grid, then its contour
    points."""
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
    face_labels = surface_label(topo.face_group[two], topo.uvc[ids, 0].mean(axis=1))
    contour_labels = np.repeat(face_labels, 2)

    points = np.vstack([grid, contour_pts])
    labels = np.concatenate([grid_labels, contour_labels])
    kinds = np.repeat(np.uint8([KIND_GRID, KIND_CONTOUR]), [len(grid), len(contour_pts)])
    return Slice(plane=plane, points=points, labels=labels, kinds=kinds)


def acquire(mesh, shape_id, spacing=10.0, density=2.0):
    """Full ideal acquisition: all standard views sliced, in one
    :func:`slice_mesh` call. A ``spacing`` or ``density`` that is not
    positive and finite raises ``ValueError`` before anything is sliced."""
    slices = slice_mesh(mesh, standard_views(mesh, spacing), density=density)
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


def inject_misalignment(contours, sigma, seed):
    """Rigidly translate each slice in-plane by a Gaussian shift whose two
    components have SD ``sigma`` (mm), drawn from ``seed`` and the shape id.

    Point order and labels are untouched, so the shift is exactly
    recoverable; the result is tagged "misaligned".
    """
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    seed = [seed, stable_hash(contours.shape_id)]
    shifts = [
        np.random.default_rng(seed + [i]).normal(0.0, sigma, size=2)
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


def select_subset(contours, row_name):
    """Keep the slices of ablation row ``row_name``: every step-th
    short-axis slice from the most apical one, then the row's long-axis
    views in file order. No row keeps the 2-chamber view."""
    lax, step = ABLATION_ROWS[row_name]
    sax = sorted(
        (s for s in contours.slices if s.plane.view.startswith("sax")),
        key=lambda s: s.plane.view,
    )
    keep = sax[::step] + [s for s in contours.slices if s.plane.view in lax]
    if not keep:
        raise ValueError(f"ablation row {row_name!r} selects no slices")
    return ContourSet(contours.shape_id, keep, provenance=contours.provenance)


# ----------------------------------------------------------------- file I/O


CONTOUR_FORMAT = 3
# the per-point arrays of a slice record: key, dtype in the file, shape of
# one point's entry, and the dtype the reader returns
_BLOCKS = (
    ("xyz", "<f8", (3,), np.float64),
    ("labels", "i1", (), np.int8),
    ("kinds", "u1", (), np.uint8),
)
_CODES = {"labels": [int(a) for a in AnatomicalLabel], "kinds": [KIND_GRID, KIND_CONTOUR]}


def _check_arrays(points, labels, kinds):
    """Raise a ``ValueError`` unless ``points`` are n finite rows of 3 and
    ``labels`` and ``kinds`` hold n legend labels and n point kinds."""
    n = len(points)
    if points.shape != (n, 3) or not np.isfinite(points).all():
        raise ValueError(f"xyz is not {(n, 3)} finite numbers")
    if not len(labels) == len(kinds) == n:
        raise ValueError(f"{n} xyz, {len(labels)} labels and {len(kinds)} kinds")
    for name, a in (("labels", labels), ("kinds", kinds)):
        if a.ndim != 1 or not np.isin(a, _CODES[name]).all():
            raise ValueError(f"{name} outside {_CODES[name]}")


def _slice_record(s):
    arrays = [np.asarray(a) for a in (s.points, s.labels, s.kinds)]
    try:
        _spacing(s.plane.spacing)
        for k in ("origin", "normal", "e1", "e2"):
            _floats(getattr(s.plane, k), (3,), k)
        _floats(s.shift, (2,), "shift")
        _check_arrays(*arrays)
    except ValueError as e:
        raise ValueError(f"slice {s.plane.view!r}: {e}") from e
    rec = {
        "view": s.plane.view,
        "origin": s.plane.origin.tolist(),
        "normal": s.plane.normal.tolist(),
        "e1": s.plane.e1.tolist(),
        "e2": s.plane.e2.tolist(),
        "spacing": s.plane.spacing,
        "shift": s.shift.tolist(),
        "n": len(arrays[0]),
    }
    for (key, dtype, _, _), a in zip(_BLOCKS, arrays):
        rec[key] = base64.b64encode(np.ascontiguousarray(a, dtype=dtype)).decode("ascii")
    return rec


def save_contours(path, contours):
    """Write a ``format`` 3 contour file: per slice, its plane, its shift, its
    point count ``n`` and its ``xyz``, ``labels`` and ``kinds`` arrays as
    base64 blocks of little-endian float64 (n x 3), int8 and uint8. A
    ``ValueError`` naming the slice's view rejects a spacing, frame, shift or
    arrays that :func:`load_contours` would reject, before ``path`` is opened."""
    slices = [_slice_record(s) for s in contours.slices]
    doc = {"format": CONTOUR_FORMAT, "shape_id": contours.shape_id,
           "provenance": contours.provenance, "slices": slices}
    with open(path, "w") as f:
        f.write(json.dumps(doc) + "\n")


def _spacing(value):
    """``value`` if it is a finite int or float (a bool is neither), else
    a ``ValueError``: the rule for a slice's spacing."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
        raise ValueError(f"spacing is not a finite number: {value!r}")
    return value


def _positive(name, value):
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is a positive
    finite number."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _floats(values, shape, name):
    a = np.asarray(values, dtype=np.float64)
    if a.shape != shape or not np.isfinite(a).all():
        raise ValueError(f"{name} is not {shape} finite numbers")
    return a


def _block(rec, key, dtype, shape, native, n):
    """Block ``key`` of ``rec`` decoded to an owned array of ``native`` dtype."""
    try:
        raw = base64.b64decode(rec[key], validate=True)
    except (TypeError, ValueError) as e:  # binascii.Error is a ValueError
        raise ValueError(f"{key} block is not base64: {e}") from e
    size = n * int(np.prod(shape)) * np.dtype(dtype).itemsize
    if len(raw) != size:
        raise ValueError(f"{key} block holds {len(raw)} bytes, not the {size} of n = {n}")
    return np.frombuffer(raw, dtype).reshape((n, *shape)).astype(native)


def _slice_from_record(rec):
    view = rec["view"]
    try:
        if type(view) is not str:
            raise ValueError("view is not a string")
        spacing, n = _spacing(rec["spacing"]), rec["n"]
        if type(n) is not int or n < 0:
            raise ValueError(f"n is not a point count: {n!r}")
        plane = SlicePlane(view, *(rec[k] for k in ("origin", "normal", "e1", "e2")), spacing=spacing)
        points, labels, kinds = (_block(rec, *spec, n) for spec in _BLOCKS)
        _check_arrays(points, labels, kinds)
        return Slice(plane, points, labels, kinds, shift=_floats(rec["shift"], (2,), "shift"))
    except KeyError as e:
        raise ValueError(f"slice {view!r}: missing key {e}") from e
    except (TypeError, ValueError) as e:
        raise ValueError(f"slice {view!r}: {e}") from e


def load_contours(path):
    """Read a file written by :func:`save_contours`. A ``ValueError`` naming
    ``path`` reports invalid JSON, another ``format`` or a missing key; for
    one slice (named by its view) also a view that is not a string, a
    spacing, frame or shift that is not finite, a block that is not base64 or
    whose byte length disagrees with ``n``, points that are not finite, or
    labels or kinds out of range. The arrays are owned, writable and in
    native byte order."""
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
