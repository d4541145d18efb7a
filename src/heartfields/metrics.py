"""Evaluation metrics: point-label Dice/F1, corresponding-vertex distances,
Chamfer distances, point-to-surface distance, enclosed volumes, and wall mass.

The accelerated paths (k-d tree nearest neighbors, candidate-filtered
point-to-triangle search) are exact, and each ships with a brute-force
counterpart used as an oracle in the test suite.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

# (point, triangle) pairs per chunk of the exact point-to-mesh searches; at
# this size the exact test's temporaries stay below ~120 MB, even when no
# pair is pruned
PAIR_BUDGET = 2**18


@dataclass
class MetricsReport:
    """One evaluated case. Distances in mm, volumes in mL, masses in g."""

    case_id: str
    dice_lvm: float = np.nan
    dice_rvm: float = np.nan
    ed_mean: float = np.nan
    rmse: float = np.nan
    chamfer_ab: float = np.nan
    chamfer_ba: float = np.nan
    chamfer_sym: float = np.nan
    p2s_mean: float = np.nan
    lv_vol: float = np.nan
    rv_vol: float = np.nan
    lv_mass: float = np.nan
    rv_mass: float = np.nan

    FIELDS = (
        "dice_lvm dice_rvm ed_mean rmse chamfer_ab chamfer_ba chamfer_sym "
        "p2s_mean lv_vol rv_vol lv_mass rv_mass"
    ).split()


def point_dice(pred_labels, ref_labels, cls):
    """Per-class point Dice, 2TP/(2TP+FP+FN); equals the F1 score.

    A class absent from both lists scores 1 (absent-class agreement).
    """
    pred = np.asarray(pred_labels)
    ref = np.asarray(ref_labels)
    if pred.shape != ref.shape:
        raise ValueError(f"label lists differ in length: {pred.shape} vs {ref.shape}")
    p = pred == cls
    r = ref == cls
    tp = int(np.sum(p & r))
    fp = int(np.sum(p & ~r))
    fn = int(np.sum(~p & r))
    if tp + fp + fn == 0:
        return 1.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def corresponding_ed(pred_vertices, ref_vertices):
    """Mean and root-mean-square Euclidean distance between corresponding
    vertices (the inputs must share the template ordering)."""
    a = np.asarray(pred_vertices, dtype=np.float64)
    b = np.asarray(ref_vertices, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"vertex counts differ: {a.shape} vs {b.shape}")
    d = np.linalg.norm(a - b, axis=1)
    return float(d.mean()), float(np.sqrt(np.mean(d * d)))


def chamfer(points_a, points_b):
    """Directed and symmetric Chamfer distances between point sets.

    Returns (cd_ab, cd_ba, cd_sym) where cd_ab is the mean over a in A of
    the distance to its nearest b, and cd_sym = cd_ab + cd_ba (sum
    convention; both directed terms are exposed so the averaged convention
    is recoverable).
    """
    a = np.atleast_2d(np.asarray(points_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(points_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("chamfer distance of an empty point set")
    d_ab = cKDTree(b).query(a)[0]
    d_ba = cKDTree(a).query(b)[0]
    cd_ab = float(d_ab.mean())
    cd_ba = float(d_ba.mean())
    return cd_ab, cd_ba, cd_ab + cd_ba


def chamfer_bruteforce(points_a, points_b):
    """O(n^2) oracle for :func:`chamfer`."""
    a = np.atleast_2d(np.asarray(points_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(points_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("chamfer distance of an empty point set")
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    cd_ab = float(d.min(axis=1).mean())
    cd_ba = float(d.min(axis=0).mean())
    return cd_ab, cd_ba, cd_ab + cd_ba


def _closest_point_on_triangles(p, a, b, c):
    """Closest point to p on each triangle (a, b, c), all (n, 3).

    Ericson's region classification, vectorized: the regions are tested in
    his order, and each pair's point is computed only in the first region
    that holds it. Degenerate triangles are handled by the guarded
    divisions (closest point falls back to a vertex or edge).
    """
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    out = np.empty_like(p)
    rest = np.arange(len(p))  # pairs whose region is not decided yet

    def pick(mask):
        """The undecided pairs inside ``mask``; they are decided from here on."""
        nonlocal rest
        inside = mask[rest]
        hit, rest = rest[inside], rest[~inside]
        return hit

    i = pick((d1 <= 0) & (d2 <= 0))  # vertex a
    out[i] = a[i]
    i = pick((d3 >= 0) & (d4 <= d3))  # vertex b
    out[i] = b[i]
    vc = d1 * d4 - d3 * d2
    i = pick((vc <= 0) & (d1 >= 0) & (d3 <= 0))  # edge ab
    t = d1[i] - d3[i]
    out[i] = a[i] + ab[i] * (d1[i] / np.where(np.abs(t) > 0, t, 1.0))[:, None]
    i = pick((d6 >= 0) & (d5 <= d6))  # vertex c
    out[i] = c[i]
    vb = d5 * d2 - d1 * d6
    i = pick((vb <= 0) & (d2 >= 0) & (d6 <= 0))  # edge ac
    t = d2[i] - d6[i]
    out[i] = a[i] + ac[i] * (d2[i] / np.where(np.abs(t) > 0, t, 1.0))[:, None]
    va = d3 * d6 - d5 * d4
    i = pick((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0))  # edge bc
    t = (d4[i] - d3[i]) + (d5[i] - d6[i])
    out[i] = b[i] + (c[i] - b[i]) * ((d4[i] - d3[i]) / np.where(np.abs(t) > 0, t, 1.0))[:, None]
    i = rest  # interior
    t = va[i] + vb[i] + vc[i]
    t = np.where(np.abs(t) > 0, t, 1.0)
    out[i] = a[i] + ab[i] * (vb[i] / t)[:, None] + ac[i] * (vc[i] / t)[:, None]
    return out


def point_to_triangles_distance(points, tri_a, tri_b, tri_c):
    """Exact min distance from each point to every listed triangle (exhaustive).

    points (n, 3), triangles (m, 3) each corner array; returns (n,) distances.
    """
    points = np.asarray(points, dtype=np.float64)
    n, m = len(points), len(tri_a)
    best = np.full(n, np.inf)
    chunk = max(1, PAIR_BUDGET // max(m, 1))
    for s in range(0, n, chunk):
        p = points[s : s + chunk]
        k = len(p)
        pp = np.repeat(p, m, axis=0)
        aa = np.tile(tri_a, (k, 1))
        bb = np.tile(tri_b, (k, 1))
        cc = np.tile(tri_c, (k, 1))
        q = _closest_point_on_triangles(pp, aa, bb, cc)
        d = np.linalg.norm(pp - q, axis=1).reshape(k, m)
        best[s : s + chunk] = d.min(axis=1)
    return best


def point_to_surface(points, vertices, faces):
    """Mean exact point-to-triangle-mesh distance.

    A vertex nearest-neighbor query gives an attainable upper bound per
    point. Points then go in chunks of ``PAIR_BUDGET // len(faces)`` (at
    least one), taken in the leaf order of a k-d tree over the points so
    that each chunk is spatially compact. A chunk keeps only the triangles
    whose bounding box lies within the chunk's largest upper bound of the
    chunk's point box; it then bounds each of their (point, triangle) pairs
    by |p - centroid| - circumradius and runs the exact point-triangle test
    on the pairs whose bound is within the point's upper one. The nearest
    triangle of every point passes both filters, and each pair's distance
    is computed as in the exhaustive scan, so the result equals it bit for
    bit. Every temporary holds at most ``max(PAIR_BUDGET, len(faces))``
    pairs, whatever the shape of the mesh.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    if points.size == 0:
        raise ValueError("point_to_surface of an empty point set")
    if faces.size == 0:
        raise ValueError("point_to_surface on an empty mesh")
    ta, tb, tc = vertices[faces[:, 0]], vertices[faces[:, 1]], vertices[faces[:, 2]]
    corners = np.stack([ta, tb, tc])
    centroid = (ta + tb + tc) / 3.0
    radius = np.linalg.norm(corners - centroid, axis=2).max(axis=0)
    box_lo, box_hi = corners.min(axis=0), corners.max(axis=0)
    used = np.unique(faces)  # unreferenced vertices must not tighten the bound
    best = cKDTree(vertices[used]).query(points)[0]  # the vertex distance is attainable
    chunk = max(1, PAIR_BUDGET // len(faces))
    order = cKDTree(points, leafsize=chunk).indices
    for s in range(0, len(points), chunk):
        idx = order[s : s + chunk]
        p = points[idx]
        # The gap between the chunk's point box and a triangle's box is at
        # most the distance from any point of the chunk to the triangle, so a
        # triangle whose gap exceeds the chunk's largest upper bound is
        # nearest to none of its points. The gap is rounded like the ball
        # bound below, hence the same 1e-12 slack.
        gap = np.maximum(np.maximum(box_lo - p.max(axis=0), p.min(axis=0) - box_hi), 0.0)
        tri = np.flatnonzero(np.linalg.norm(gap, axis=1) <= best[idx].max() + 1e-12)
        lower = cdist(p, centroid[tri]) - radius[tri]
        pi, ti = np.nonzero(lower <= best[idx, None] + 1e-12)
        ti = tri[ti]
        q = _closest_point_on_triangles(p[pi], ta[ti], tb[ti], tc[ti])
        np.minimum.at(best, idx[pi], np.linalg.norm(p[pi] - q, axis=1))
    return float(best.mean())


def point_to_surface_bruteforce(points, vertices, faces):
    """Exhaustive-scan oracle for :func:`point_to_surface`."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    if points.size == 0:
        raise ValueError("point_to_surface of an empty point set")
    if faces.size == 0:
        raise ValueError("point_to_surface on an empty mesh")
    ta, tb, tc = vertices[faces[:, 0]], vertices[faces[:, 1]], vertices[faces[:, 2]]
    return float(point_to_triangles_distance(points, ta, tb, tc).mean())


def boundary_edges(faces):
    """Directed edges that lack an opposite partner (empty for a closed,
    consistently oriented surface), as (i, j) tuples in increasing order."""
    faces = np.asarray(faces, dtype=np.int64)
    if faces.size == 0:
        return []
    lo = int(faces.min())
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]) - lo
    n = int(e.max()) + 1  # the directed edge (i, j) has the key i * n + j
    keys = np.unique(e[:, 0] * n + e[:, 1])
    i, j = np.divmod(keys, n)
    unpaired = ~np.isin(j * n + i, keys)
    return list(zip((i[unpaired] + lo).tolist(), (j[unpaired] + lo).tolist()))


def enclosed_volume(vertices, faces):
    """Volume (mL) enclosed by a closed triangle surface, via the divergence
    theorem: |sum det(v0, v1, v2)| / 6. Raises on boundary edges."""
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    if boundary_edges(faces):
        raise ValueError("enclosed_volume requires a closed surface (boundary edges present)")
    v0, v1, v2 = vertices[faces[:, 0]], vertices[faces[:, 1]], vertices[faces[:, 2]]
    vol_mm3 = abs(float(np.einsum("ij,ij->i", v0, np.cross(v1, v2)).sum()) / 6.0)
    return vol_mm3 / 1000.0


def wall_mass(outer, inner, density=1.05):
    """Myocardial mass in grams of the wall between two nested closed
    surfaces, given the volume (mL) enclosed by the outer one and by
    everything inside the wall: (outer - inner) times density (g/mL).
    """
    wall = outer - inner
    if wall < 0:
        raise ValueError(f"negative wall volume ({wall:.3f} mL): surfaces inverted or not nested")
    return wall * density


def finite_mean_sd(values):
    """Mean and sample SD (ddof=1) over the finite entries of ``values``.
    The SD is 0 below two such entries, and the mean is nan with none."""
    v = np.asarray(values, dtype=np.float64)
    v = v[np.isfinite(v)]
    return (float(v.mean()) if len(v) else np.nan), (float(v.std(ddof=1)) if len(v) > 1 else 0.0)


def bland_altman_rows(reference, predicted):
    """Per-case (mean, difference) rows plus bias and 1.96 SD limits.

    difference is predicted minus reference; bias and limits skip non-finite pairs.
    """
    ref = np.asarray(reference, dtype=np.float64)
    pred = np.asarray(predicted, dtype=np.float64)
    if ref.shape != pred.shape:
        raise ValueError(f"length mismatch: {ref.shape} vs {pred.shape}")
    rows = np.column_stack([(ref + pred) / 2.0, pred - ref])
    bias, sd = finite_mean_sd(rows[:, 1])
    return rows, bias, bias - 1.96 * sd, bias + 1.96 * sd
