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

    Ericson's region classification, vectorized; degenerate triangles are
    handled by the guarded divisions (closest point falls back to a vertex
    or edge).
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
    done = np.zeros(len(p), dtype=bool)

    def assign(mask, value):
        nonlocal done
        m = mask & ~done
        if m.any():
            out[m] = value[m] if value.ndim == 2 else value
        done |= m

    assign((d1 <= 0) & (d2 <= 0), a)  # vertex a
    assign((d3 >= 0) & (d4 <= d3), b)  # vertex b
    vc = d1 * d4 - d3 * d2
    denom = np.where(np.abs(d1 - d3) > 0, d1 - d3, 1.0)
    assign((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + ab * (d1 / denom)[:, None])  # edge ab
    assign((d6 >= 0) & (d5 <= d6), c)  # vertex c
    vb = d5 * d2 - d1 * d6
    denom = np.where(np.abs(d2 - d6) > 0, d2 - d6, 1.0)
    assign((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + ac * (d2 / denom)[:, None])  # edge ac
    va = d3 * d6 - d5 * d4
    e = (d4 - d3) + (d5 - d6)
    denom = np.where(np.abs(e) > 0, e, 1.0)
    assign(
        (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),
        b + (c - b) * ((d4 - d3) / denom)[:, None],
    )  # edge bc
    total = va + vb + vc
    denom = np.where(np.abs(total) > 0, total, 1.0)
    v = vb / denom
    w = vc / denom
    assign(np.ones(len(p), dtype=bool), a + ab * v[:, None] + ac * w[:, None])  # interior
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
    least one); each chunk bounds every (point, triangle) pair by
    |p - centroid| - circumradius and runs the exact point-triangle test on
    the pairs whose bound is within the upper one, so the result equals the
    exhaustive scan. Every temporary holds at most ``max(PAIR_BUDGET,
    len(faces))`` pairs, whatever the shape of the mesh.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    if faces.size == 0:
        raise ValueError("point_to_surface on an empty mesh")
    ta, tb, tc = vertices[faces[:, 0]], vertices[faces[:, 1]], vertices[faces[:, 2]]
    centroid = (ta + tb + tc) / 3.0
    radius = np.linalg.norm(np.stack([ta, tb, tc]) - centroid, axis=2).max(axis=0)
    used = np.unique(faces)  # unreferenced vertices must not tighten the bound
    best = cKDTree(vertices[used]).query(points)[0]  # the vertex distance is attainable
    chunk = max(1, PAIR_BUDGET // len(faces))
    for s in range(0, len(points), chunk):
        p = points[s : s + chunk]
        lower = cdist(p, centroid) - radius
        pi, ti = np.nonzero(lower <= best[s : s + chunk, None] + 1e-12)
        q = _closest_point_on_triangles(p[pi], ta[ti], tb[ti], tc[ti])
        np.minimum.at(best, s + pi, np.linalg.norm(p[pi] - q, axis=1))
    return float(best.mean())


def point_to_surface_bruteforce(points, vertices, faces):
    """Exhaustive-scan oracle for :func:`point_to_surface`."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    if faces.size == 0:
        raise ValueError("point_to_surface on an empty mesh")
    ta, tb, tc = vertices[faces[:, 0]], vertices[faces[:, 1]], vertices[faces[:, 2]]
    return float(point_to_triangles_distance(points, ta, tb, tc).mean())


def boundary_edges(faces):
    """Directed edges that lack an opposite partner (empty for a closed,
    consistently oriented surface)."""
    faces = np.asarray(faces, dtype=np.int64)
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    fwd = set(map(tuple, e))
    return [edge for edge in fwd if (edge[1], edge[0]) not in fwd]


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
