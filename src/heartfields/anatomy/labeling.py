"""Point labeling against watertight compartment surfaces.

Containment uses ray-crossing parity with one ray direction, vertical
(+z). A closed surface lies inside the bounding box of its triangles, so a
query outside that box, grown by ``_BOX_MARGIN`` on every side, is outside
and casts no ray. The queries in the box are grouped into vertical lines,
one per distinct (x, y), so the points of a slice grid column or a voxel
box column share one line. Triangles are bucketed on a uniform grid over
their (x, y) footprints; each line is expanded into (line, candidate
triangle) pairs from its grid cell, the pairs are evaluated in fixed-size
chunks, and give the line's strict crossings with their z and whether it
grazes a projected edge. Each query then counts, again in chunks, its
line's crossings above it, and ``np.bincount`` reduces parity and grazes
per query; the crossings' z are those a ray per query would find, bit
for bit. The terms of the crossing test that depend only on a triangle
are computed once per surface. Queries whose ray grazes (its line grazes
an edge, or the query lies within epsilon of a crossing) are moved by
``_NUDGE`` along every axis and cast vertically once more, all at once;
any that graze even then are decided by the generalized winding number,
which also serves as an independent oracle for the test suite.

Containment is therefore exact for every query farther than
sqrt(3) * ``_NUDGE`` (~1.7e-7 mm) from the surface. A closer query whose
ray grazes takes the side of its nudged copy; that includes exact ties,
such as grid rows that lie on a flat cap. The margin is ten nudges, so a
query whose nudged copy could reach the box is still cast, and the box
cull changes no label.
"""

import numpy as np
from scipy.spatial import cKDTree

from .template import AnatomicalLabel, myocardium_label

_EPS_EDGE = 1e-9
_NUDGE = 1e-7
# the bounding box of a surface's triangles is grown by this much on every
# side; a nudge cannot move a query outside it into the tight box
_BOX_MARGIN = 10 * _NUDGE
# (line, triangle) or (query, crossing) pairs evaluated at once; bounds
# the temporaries
_CHUNK_PAIRS = 8192
# triangles are bucketed on a _CELLS x _CELLS grid over their footprints
_CELLS = 48


class RayCastIndex:
    """Vertical parity ray caster for one closed triangle surface.

    The triangles' bounding box grown by ``_BOX_MARGIN`` (``lo``, ``hi``),
    the grid over their (x, y) footprints and the per-triangle terms of the
    crossing test are built once, in the constructor; :meth:`contains`
    casts only the queries in the box.

    Memory: the terms take 137 bytes per triangle. The grid stores 2 bytes
    per (cell, triangle) entry (4 above 2**15 triangles) plus 18 kB of cell
    offsets, and a triangle's footprint box covers 15-33 cells on average
    on the template's compartments. One index thus takes 0.2-0.37 MB there,
    and the three indexes of a labeled mesh about 0.93 MB, which the mesh's
    :class:`Labeler` keeps.

    ``fallback_points`` counts, over all calls, the queries in the box
    whose vertical ray grazed and that were cast again (a nudged query that
    grazes again counts twice); a query outside the box is never cast.
    """

    def __init__(self, vertices, faces):
        self.v = np.asarray(vertices, dtype=np.float64)
        self.f = np.asarray(faces, dtype=np.int64)
        tri = self.v[self.f]  # (F, 3, 3)
        self.lo = tri.min(axis=(0, 1)) - _BOX_MARGIN
        self.hi = tri.max(axis=(0, 1)) + _BOX_MARGIN
        self.gmin, self.gspan, self.buckets, self.offsets = _buckets(tri[:, :, :2])
        self.fallback_points = 0
        # per triangle: the corners' (x, y), the edge vectors ab, bc, ca,
        # the signed area, its edge tolerance and the corners' z, one row
        # each so that a pair gathers its triangle's terms at once
        a, b, c = tri[:, 0, :2], tri[:, 1, :2], tri[:, 2, :2]
        ab, bc, ca = b - a, c - b, a - c
        area = _cross2(ab, c - a)
        tol = _EPS_EDGE * (np.abs(area) + 1e-300)
        self._terms = np.column_stack([a, b, c, ab, bc, ca, area, tol, tri[:, :, 2]])
        self._flat = np.abs(area) < 1e-14

    def contains(self, points):
        """Boolean containment per query point; raises ``ValueError``
        unless ``points`` is a finite (n, 3) array."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or not np.all(np.isfinite(pts)):
            raise ValueError(f"query points must be a finite (n, 3) array, got shape {pts.shape}")
        # a closed surface lies inside its box, so only the queries in the
        # box are cast; they are not copied when every query is
        boxed = np.all((pts >= self.lo) & (pts <= self.hi), axis=1)
        whole = boxed.all()
        q = pts if whole else pts[boxed]
        hit, grazed = self._cast(q)
        idx = np.flatnonzero(grazed)
        if idx.size:
            # cast the grazing queries again from copies moved by _NUDGE along every axis
            self.fallback_points += len(idx)
            nudged = q[idx] + _NUDGE
            hit[idx], grazed = self._cast(nudged)
            again = np.flatnonzero(grazed)
            if again.size:
                self.fallback_points += len(again)
                hit[idx[again]] = winding_number_contains(nudged[again], self.v, self.f)
        if whole:
            return hit
        inside = np.zeros(len(pts), dtype=bool)
        inside[boxed] = hit
        return inside

    def _cast(self, pts):
        """Crossing parity and graze flag per point. The points are grouped
        into vertical lines of equal (x, y); ``_cross_z`` runs once per line
        on the (line, triangle) pairs of its grid cell, and each point then
        counts the strict crossings of its line above it."""
        xy, line = _lines(pts[:, :2])
        cells = _cell(xy, self.gmin, self.gspan)
        first = self.offsets[cells]
        owners, zs = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
        edge = np.zeros(len(xy), dtype=bool)
        for s, e, owner, pos in _pairs(first, self.offsets[cells + 1] - first):
            cross, z, graze = self._cross_z(np.take(xy[s:e], owner, axis=0), self.buckets[pos])
            owners.append(owner[cross] + s)
            zs.append(z)
            edge[s:e] = np.bincount(owner[graze], minlength=e - s) > 0
        # the strict crossings, by line
        z = np.concatenate(zs)
        crossings = np.bincount(np.concatenate(owners), minlength=len(xy))
        start = np.cumsum(crossings) - crossings
        inside = np.zeros(len(pts), dtype=bool)
        grazed = edge[line]
        for s, e, owner, pos in _pairs(start[line], crossings[line]):
            dz = z[pos] - pts[s:e, 2][owner]
            inside[s:e] = np.bincount(owner[dz > _EPS_EDGE], minlength=e - s) % 2 == 1
            grazed[s:e] |= np.bincount(owner[np.abs(dz) <= _EPS_EDGE], minlength=e - s) > 0
        return inside, grazed

    def _cross_z(self, xy, tris):
        """Of (vertical line, triangle) pairs: the indices of those whose
        line through ``xy`` crosses the triangle strictly inside its (x, y)
        projection, the z of each such crossing, and per pair whether the
        line grazes an edge or a flat triangle instead."""
        # np.take gathers rows several times faster than fancy indexing
        t = np.take(self._terms, tris, axis=0)  # (m, 17), see __init__
        qx, qy = xy[:, 0], xy[:, 1]
        # the 2-D cross products ab x (q - a), bc x (q - b), ca x (q - c)
        d0 = t[:, 6] * (qy - t[:, 1]) - t[:, 7] * (qx - t[:, 0])
        d1 = t[:, 8] * (qy - t[:, 3]) - t[:, 9] * (qx - t[:, 2])
        d2 = t[:, 10] * (qy - t[:, 5]) - t[:, 11] * (qx - t[:, 4])
        pos = (d0 > 0) & (d1 > 0) & (d2 > 0)
        neg = (d0 < 0) & (d1 < 0) & (d2 < 0)
        strict = pos | neg
        near_edge = np.minimum(np.abs(d0), np.minimum(np.abs(d1), np.abs(d2))) < t[:, 13]
        graze = (near_edge | self._flat[tris]) & ~strict
        # barycentric z of the intersection, on the pairs whose line crosses
        cross = np.flatnonzero(strict)
        ts = np.take(t, cross, axis=0)
        area = ts[:, 12]
        with np.errstate(invalid="ignore", divide="ignore"):
            la, lb, lc = d1[cross] / area, d2[cross] / area, d0[cross] / area
        return cross, (la * ts[:, 14] + lb * ts[:, 15] + lc * ts[:, 16]), graze


def _lines(xy):
    """The distinct rows of the (n, 2) ``xy`` and each row's index into
    them; when no two rows share an x, the rows themselves, in their order,
    without a sort."""
    if len(np.unique_values(xy[:, 0])) == len(xy):
        return xy, np.arange(len(xy))
    key = np.ascontiguousarray(xy).view(np.complex128).ravel()
    key, line = np.unique(key, return_inverse=True)
    return np.column_stack([key.real, key.imag]), line


def _buckets(footprints):
    """Bucket triangles on a ``_CELLS`` x ``_CELLS`` grid by their (x, y)
    footprints ((F, 3, 2) corner coordinates).

    Each triangle goes into every cell its footprint box overlaps. Returns
    the grid origin and span, the triangle ids sorted by cell (in triangle
    order within a cell) and the ``_CELLS**2 + 1`` cell offsets into them.
    """
    lo = np.minimum(np.minimum(footprints[:, 0], footprints[:, 1]), footprints[:, 2])
    hi = np.maximum(np.maximum(footprints[:, 0], footprints[:, 1]), footprints[:, 2])
    gmin = lo.min(axis=0) - 1e-6
    gspan = np.maximum(hi.max(axis=0) + 1e-6 - gmin, 1e-12)
    lo_cell = _cell_xy(lo, gmin, gspan)
    hi_cell = _cell_xy(hi, gmin, gspan)
    span = hi_cell - lo_cell + 1
    per_tri = span[:, 0] * span[:, 1]
    # int16 triangle ids, where they fit, halve the grids an index keeps
    ids = np.arange(len(footprints), dtype=np.int16 if len(footprints) <= 2**15 else np.int32)
    owner = np.repeat(ids, per_tri)
    local = np.arange(len(owner)) - np.repeat(np.cumsum(per_tri) - per_tri, per_tri)
    row, col = np.divmod(local, np.repeat(span[:, 1], per_tri))
    first = lo_cell[:, 0] * _CELLS + lo_cell[:, 1]
    # int16 cell ids (_CELLS**2 < 2**15) let the stable sort run as a radix sort
    cell = (np.repeat(first, per_tri) + row * _CELLS + col).astype(np.int16)
    order = owner[np.argsort(cell, kind="stable")]
    offsets = np.concatenate([[0], np.cumsum(np.bincount(cell, minlength=_CELLS * _CELLS))])
    return gmin, gspan, order, offsets


def _cell_xy(xy, gmin, gspan):
    """(n, 2) grid cell indices of 2-D points, clipped to the grid."""
    cell = ((xy - gmin) / gspan * _CELLS).astype(int)
    np.clip(cell, 0, _CELLS - 1, out=cell)
    return cell


def _cell(xy, gmin, gspan):
    """Flat grid cell id of each 2-D point, clipped to the grid."""
    cell = _cell_xy(xy, gmin, gspan)
    return cell[:, 0] * _CELLS + cell[:, 1]


def _pairs(first, counts):
    """(owner, item) pairs in chunks: owner i holds the items
    ``first[i]`` .. ``first[i] + counts[i] - 1``. Yields per chunk its
    owner range ``s``, ``e``, each pair's owner (from 0 at ``s``) and item;
    a chunk holds at most ``_CHUNK_PAIRS`` pairs (an owner with more gets
    a chunk of its own)."""
    cum = np.cumsum(counts)
    s = 0
    while s < len(counts):
        base = cum[s - 1] if s else 0
        e = max(s + 1, int(np.searchsorted(cum, base + _CHUNK_PAIRS, side="right")))
        cnt = counts[s:e]
        owner = np.repeat(np.arange(e - s), cnt)
        pos = np.repeat(first[s:e] - (np.cumsum(cnt) - cnt), cnt) + np.arange(len(owner))
        yield s, e, owner, pos
        s = e


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def winding_number_contains(points, vertices, faces):
    """Generalized winding number containment (van Oosterom-Strackee solid
    angles); independent oracle for :class:`RayCastIndex`."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    v = np.asarray(vertices, dtype=np.float64)
    f = np.asarray(faces, dtype=np.int64)
    w = np.zeros(len(pts))
    chunk = max(1, int(2e6) // max(len(f), 1))
    for s in range(0, len(pts), chunk):
        p = pts[s : s + chunk]
        a = v[f[:, 0]][None, :, :] - p[:, None, :]
        b = v[f[:, 1]][None, :, :] - p[:, None, :]
        c = v[f[:, 2]][None, :, :] - p[:, None, :]
        la = np.linalg.norm(a, axis=2)
        lb = np.linalg.norm(b, axis=2)
        lc = np.linalg.norm(c, axis=2)
        num = np.einsum("pfi,pfi->pf", a, np.cross(b, c))
        den = (
            la * lb * lc
            + np.einsum("pfi,pfi->pf", a, b) * lc
            + np.einsum("pfi,pfi->pf", b, c) * la
            + np.einsum("pfi,pfi->pf", c, a) * lb
        )
        w[s : s + chunk] = np.arctan2(num, den).sum(axis=1) / (2.0 * np.pi)
    return np.abs(w) > 0.5


class Labeler:
    """Label arbitrary points against one instance mesh.

    Blood pools by cavity containment, myocardium by heart-exterior
    containment with the LV/RV split of ``myocardium_label`` on the ``u1``
    of the nearest template vertex (which puts the transition at the
    mid-septum), background elsewhere.
    """

    def __init__(self, mesh):
        self.lv = RayCastIndex(*mesh.compartment("lv_cavity"))
        self.rv = RayCastIndex(*mesh.compartment("rv_cavity"))
        self.heart = RayCastIndex(*mesh.compartment("heart"))
        self.tree = cKDTree(mesh.vertices)
        self.u1 = mesh.topology.uvc[:, 0]

    def label(self, points):
        pts = np.asarray(points, dtype=np.float64)
        in_heart = self.heart.contains(pts)
        out = np.zeros(len(pts), dtype=np.int8)
        idx = np.flatnonzero(in_heart)
        if idx.size:
            sub = pts[idx]
            in_lv = self.lv.contains(sub)
            in_rv = np.zeros(len(sub), dtype=bool)
            rest = ~in_lv
            if rest.any():
                in_rv[rest] = self.rv.contains(sub[rest])
            myo = ~(in_lv | in_rv)
            lab = np.empty(len(sub), dtype=np.int8)
            lab[in_lv] = AnatomicalLabel.LV
            lab[in_rv] = AnatomicalLabel.RV
            lab[myo] = myocardium_label(self.u1[self.tree.query(sub[myo])[1]])
            out[idx] = lab
        return out


def label_points(points, mesh):
    """Labels of ``points`` by ``mesh.labeler``, which a mesh builds once."""
    return mesh.labeler.label(points)
