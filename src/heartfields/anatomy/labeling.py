"""Point labeling against watertight compartment surfaces.

Containment uses ray-crossing parity with a vertical ray and an (x, y)
uniform grid over triangle footprints. Each query is expanded into
(point, candidate triangle) pairs from its grid cell, the pairs are
evaluated in fixed-size chunks, and per-point crossing parity and grazes
are reduced with ``np.bincount``. Queries that land within epsilon of a
projected edge (or of the surface itself) are re-cast, all at once, along
oblique fallback directions with a Moller-Trumbore test against every
triangle; only the queries that still graze move on to the next
direction. Queries that graze all of them are nudged off the surface and
retried once, and any that graze even then are decided by the
generalized winding number, which also serves as an independent oracle
for the test suite.
"""

import weakref
from enum import IntEnum

import numpy as np
from scipy.spatial import cKDTree

_EPS_EDGE = 1e-9
_NUDGE = 1e-7
# (point, triangle) pairs evaluated at once; bounds the temporaries
_CHUNK_PAIRS = 8192
# the ray-cast index buckets triangles on a _CELLS x _CELLS grid in (x, y)
_CELLS = 48
_FALLBACK_DIRS = np.array(
    [
        [0.03617126, 0.08912318, 0.99536593],
        [-0.11523119, 0.05731221, 0.99168392],
        [0.17364818, -0.09848078, 0.97986814],
    ]
)


class AnatomicalLabel(IntEnum):
    BG = 0
    LV = 1
    RV = 2
    LVM = 3
    RVM = 4

    @staticmethod
    def one_hot(labels):
        """(n, 5) float one-hot encoding of integer labels; raises
        ``ValueError`` for a label outside 0-4."""
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size and not (0 <= labels.min() and labels.max() < 5):
            raise ValueError(f"labels must lie in 0-4, got {labels.min()}..{labels.max()}")
        out = np.zeros((labels.size, 5))
        out[np.arange(labels.size), labels.ravel()] = 1.0
        return out


class RayCastIndex:
    """Parity ray caster for one closed triangle surface.

    ``fallback_points`` counts, over all calls, the queries re-cast along
    the oblique directions (a nudged query counts again).
    """

    def __init__(self, vertices, faces):
        self.v = np.asarray(vertices, dtype=np.float64)
        self.f = np.asarray(faces, dtype=np.int64)
        tri = self.v[self.f]  # (F, 3, 3)
        self.tri = tri
        xy = tri[:, :, :2]
        lo = xy.min(axis=1)
        hi = xy.max(axis=1)
        gmin = lo.min(axis=0) - 1e-6
        gmax = hi.max(axis=0) + 1e-6
        self.gmin, self.gspan = gmin, np.maximum(gmax - gmin, 1e-12)
        # bin triangles into all grid cells their xy-bbox overlaps; a
        # stable sort keeps each bucket in triangle order
        lo_cell = np.clip(((lo - gmin) / self.gspan * _CELLS).astype(int), 0, _CELLS - 1)
        hi_cell = np.clip(((hi - gmin) / self.gspan * _CELLS).astype(int), 0, _CELLS - 1)
        span = hi_cell - lo_cell + 1
        per_tri = span[:, 0] * span[:, 1]
        owner = np.repeat(np.arange(len(self.f)), per_tri)
        local = np.arange(len(owner)) - np.repeat(np.cumsum(per_tri) - per_tri, per_tri)
        ny = span[owner, 1]
        cell = (lo_cell[owner, 0] + local // ny) * _CELLS + lo_cell[owner, 1] + local % ny
        self.bucket_tris = owner[np.argsort(cell, kind="stable")]
        self.offsets = np.concatenate(
            [[0], np.cumsum(np.bincount(cell, minlength=_CELLS * _CELLS))]
        )
        self.fallback_points = 0

    def _cell_of(self, pts):
        cell = ((pts[:, :2] - self.gmin) / self.gspan * _CELLS).astype(int)
        np.clip(cell, 0, _CELLS - 1, out=cell)
        return cell[:, 0] * _CELLS + cell[:, 1]

    def contains(self, points):
        """Boolean containment per query point."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return self._contains(pts, nudged=False)

    def _contains(self, pts, nudged):
        cells = self._cell_of(pts)
        first = self.offsets[cells]
        counts = self.offsets[cells + 1] - first
        inside = np.zeros(len(pts), dtype=bool)
        retry = np.zeros(len(pts), dtype=bool)
        for s, e in _chunks(counts):
            n = e - s
            cnt = counts[s:e]
            pair_pt = np.repeat(np.arange(n), cnt)
            pos = np.repeat(first[s:e] - (np.cumsum(cnt) - cnt), cnt) + np.arange(len(pair_pt))
            above, graze = self._cross_z(pts[s:e][pair_pt], self.bucket_tris[pos])
            inside[s:e] = np.bincount(pair_pt[above], minlength=n) % 2 == 1
            retry[s:e] = np.bincount(pair_pt[graze], minlength=n) > 0
        if retry.any():
            idx = np.flatnonzero(retry)
            self.fallback_points += len(idx)
            inside[idx] = self._contains_oblique(pts[idx], 0, nudged)
        return inside

    def _cross_z(self, q, tris):
        """Per (point, triangle) pair: does the +z ray from ``q`` cross the
        triangle above it, and does it graze an edge or the surface?"""
        t = self.tri[tris]  # (m, 3, 3)
        a, b, c = t[:, 0], t[:, 1], t[:, 2]
        ab, bc, ca = b[:, :2] - a[:, :2], c[:, :2] - b[:, :2], a[:, :2] - c[:, :2]
        d0 = _cross2(ab, q[:, :2] - a[:, :2])
        d1 = _cross2(bc, q[:, :2] - b[:, :2])
        d2 = _cross2(ca, q[:, :2] - c[:, :2])
        area = _cross2(ab, c[:, :2] - a[:, :2])
        pos = (d0 > 0) & (d1 > 0) & (d2 > 0)
        neg = (d0 < 0) & (d1 < 0) & (d2 < 0)
        strict = pos | neg
        scale = np.abs(area) + 1e-300
        near_edge = (
            (np.minimum(np.abs(d0), np.minimum(np.abs(d1), np.abs(d2))) < _EPS_EDGE * scale)
            | (np.abs(area) < 1e-14)
        )
        # barycentric z of the intersection
        with np.errstate(invalid="ignore", divide="ignore"):
            la = d1 / area
            lb = d2 / area
            lc = d0 / area
        z_hit = la * a[:, 2] + lb * b[:, 2] + lc * c[:, 2]
        dz = z_hit - q[:, 2]
        above = strict & (dz > _EPS_EDGE)
        graze = (strict & (np.abs(dz) <= _EPS_EDGE)) | (near_edge & ~strict)
        return above, graze

    def _contains_oblique(self, pts, depth, nudged):
        """Full Moller-Trumbore scan along an oblique direction for the
        queries whose vertical ray grazed; those that graze again move on
        to the next direction."""
        if depth == len(_FALLBACK_DIRS):
            if not nudged:
                # final resort: nudge the points off the surface and retry once
                return self._contains(pts + _NUDGE, nudged=True)
            return winding_number_contains(pts, self.v, self.f)
        d = _FALLBACK_DIRS[depth]
        v0, v1, v2 = self.tri[:, 0], self.tri[:, 1], self.tri[:, 2]
        e1, e2 = v1 - v0, v2 - v0
        pvec = np.cross(d, e2)
        det = np.einsum("ij,ij->i", e1, pvec)
        ok = np.abs(det) > 1e-14
        inside = np.zeros(len(pts), dtype=bool)
        grazed = np.zeros(len(pts), dtype=bool)
        for s, e in _chunks(np.full(len(pts), len(self.f))):
            # stacked einsum and matmul run the same kernels per point as a
            # single point's scan, so every pair's arithmetic is unchanged
            tvec = pts[s:e, None, :] - v0
            with np.errstate(invalid="ignore", divide="ignore"):
                u = np.einsum("pij,ij->pi", tvec, pvec) / det
                qvec = np.cross(tvec, e1)
                v = (qvec @ d) / det
                t = np.einsum("ij,pij->pi", e2, qvec) / det
            hit = ok & (u > _EPS_EDGE) & (v > _EPS_EDGE) & (u + v < 1 - _EPS_EDGE) & (t > _EPS_EDGE)
            grazing = ok & (
                (np.abs(u) <= _EPS_EDGE)
                | (np.abs(v) <= _EPS_EDGE)
                | (np.abs(1 - u - v) <= _EPS_EDGE)
                | (np.abs(t) <= _EPS_EDGE)
            )
            grazing &= (u > -_EPS_EDGE) & (v > -_EPS_EDGE) & (u + v < 1 + _EPS_EDGE)
            inside[s:e] = hit.sum(axis=1) % 2 == 1
            grazed[s:e] = grazing.any(axis=1)
        if grazed.any():
            idx = np.flatnonzero(grazed)
            inside[idx] = self._contains_oblique(pts[idx], depth + 1, nudged)
        return inside


def _chunks(counts):
    """Consecutive ``(start, stop)`` point ranges holding at most
    ``_CHUNK_PAIRS`` pairs each, given every point's pair count (a point
    with more pairs gets a range of its own)."""
    cum = np.cumsum(counts)
    s = 0
    while s < len(counts):
        base = cum[s - 1] if s else 0
        e = max(s + 1, int(np.searchsorted(cum, base + _CHUNK_PAIRS, side="right")))
        yield s, e
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
    containment with the LV/RV split taken from the transventricular
    coordinate of the nearest template vertex (which puts the transition
    at the mid-septum), background elsewhere.
    """

    def __init__(self, mesh):
        self.lv = RayCastIndex(*mesh.compartment("lv_cavity"))
        self.rv = RayCastIndex(*mesh.compartment("rv_cavity"))
        self.heart = RayCastIndex(*mesh.compartment("heart"))
        self.tree = cKDTree(mesh.vertices)
        self.u1 = mesh.topology.uvc[:, 0]

    def label(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if not np.all(np.isfinite(pts)):
            raise ValueError("query points contain non-finite values")
        out = np.zeros(len(pts), dtype=np.int8)
        in_heart = self.heart.contains(pts)
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
            if myo.any():
                nearest = self.tree.query(sub[myo])[1]
                lab[myo] = np.where(
                    self.u1[nearest] < 0.5, AnatomicalLabel.LVM, AnatomicalLabel.RVM
                )
            out[idx] = lab
        return out


def label_points(points, mesh):
    """Convenience wrapper that caches one :class:`Labeler` per mesh."""
    # the cache refers back to its mesh weakly: a strong reference would make
    # a cycle that keeps every labeled mesh alive until a full collection
    owner, labeler = getattr(mesh, "_labeler", (None, None))
    if owner is None or owner() is not mesh:
        labeler = Labeler(mesh)
        mesh._labeler = (weakref.ref(mesh), labeler)
    return labeler.label(points)
