"""Evaluation metrics: point-label Dice/F1, corresponding-vertex distances,
Chamfer distances, point-to-surface distance, enclosed volumes, and wall mass.

The accelerated paths (k-d tree nearest neighbors, candidate-filtered
point-to-triangle search) are exact, and each ships with a brute-force
counterpart used as an oracle in the test suite.
"""

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

# (point, triangle) pairs per chunk of the exact point-to-mesh searches; at
# this size the exact test's temporaries stay below ~120 MB, even when no
# pair is pruned
PAIR_BUDGET = 2**18


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
    # edge ab, if it has a length: with a == b its pairs go on to vertex c
    # and edge ac
    i = pick((vc <= 0) & (d1 >= 0) & (d3 <= 0) & (np.einsum("ij,ij->i", ab, ab) > 0))
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


def _surface_query(points, vertices, faces):
    """``points`` and ``vertices`` as finite float64 (n, 3) arrays and
    ``faces`` as int64 (m, 3) indices into ``vertices``; raises ValueError."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces)
    if points.size == 0:
        raise ValueError("point_to_surface of an empty point set")
    if faces.size == 0:
        raise ValueError("point_to_surface on an empty mesh")
    for name, a in (("points", points), ("vertices", vertices)):
        if a.ndim != 2 or a.shape[1] != 3:
            raise ValueError(f"{name} must be an (n, 3) array, not shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")
    if faces.ndim != 2 or faces.shape[1] != 3 or not np.issubdtype(faces.dtype, np.integer):
        raise ValueError(f"faces must be an integer (m, 3) array, not {faces.dtype} {faces.shape}")
    lo, hi = faces.min(), faces.max()
    if lo < 0 or hi >= len(vertices):
        raise ValueError(f"face indices must lie in [0, {len(vertices)}), not [{lo}, {hi}]")
    return points, vertices, faces.astype(np.int64)


def _boxes_near(lo, hi, box_lo, box_hi, reach):
    """Indices of the boxes (rows of box_lo, box_hi) within ``reach`` of
    the box [lo, hi], by squared gaps."""
    gap = box_lo - hi
    np.maximum(gap, lo - box_hi, out=gap)
    np.maximum(gap, 0.0, out=gap)
    gap *= gap
    return np.flatnonzero(gap[:, 0] + gap[:, 1] + gap[:, 2] <= reach * reach)


def _pair_bounds(p, centroid, radius, normal, offset, half):
    """Lower bounds of the distance from each point p to each triangle,
    (len(p), len(centroid)): the larger of the ball bound and the plane
    bound (see :func:`point_to_surface`)."""
    lower = cdist(p, centroid)
    lower -= radius
    plane = p @ normal.T
    plane -= offset
    np.abs(plane, out=plane)
    plane -= half
    return np.maximum(lower, plane, out=lower)


def point_to_surface(points, vertices, faces):
    """Exact distance from each point to a triangle mesh, (n,).

    Each point's upper bound starts as its exact distance to the triangle
    whose centroid is nearest to it (a k-d tree query over the centroids,
    then the exact point-triangle test in chunks of at most
    ``PAIR_BUDGET`` points). Being a pair distance, it is attained by a
    pair that the exhaustive scan computes too. Points then go in chunks
    of ``PAIR_BUDGET // len(faces)`` (at least one), taken in the leaf
    order of a k-d tree over the points so that each chunk is spatially
    compact, and the chunks go in groups of eight consecutive ones. Three filters drop what cannot be nearest:

    - group box cull: a group keeps the triangles whose bounding box lies
      within the group's largest upper bound of the group's point box;
    - chunk box cull: each chunk of the group keeps those of them whose
      box lies within the chunk's largest upper bound of the chunk's
      point box (a box gap is at most the distance from any point in the
      one box to anything in the other);
    - pair bound: each (point, triangle) pair of a chunk is kept if the
      larger of two lower bounds of its distance is within the point's
      upper bound. One is the ball bound |p - centroid| - circumradius.
      The other is the plane bound |n.p - offset| - half: with n the
      triangle's computed unit normal, its corners' heights n.x span a
      slab of mid height ``offset`` and half thickness ``half``, which
      holds the whole triangle, and the plane bound is p's distance to
      that slab. A triangle of zero computed area has n = 0, so its plane
      bound is negative and prunes nothing.

    Each bound is a true lower bound up to rounding: the box gaps, the
    ball bound, n's length, the corner heights and the product n.p each
    err by at most a few dozen ulps of the largest coordinate magnitude S
    of the points and corners (the inputs are checked finite). Every
    comparison therefore allows a slack of 2**-40 * S, 8192 such ulps.
    The nearest triangle of every point passes all three filters, and
    the exact point-triangle test computes each surviving pair's distance
    as the exhaustive scan does, so the result equals it bit for bit. Each
    distance is the minimum over all triangles, so it does not depend on
    the other points of the call.
    Every temporary holds at most ``max(PAIR_BUDGET, len(faces))`` pairs
    or boxes, whatever the shape of the mesh.
    """
    points, vertices, faces = _surface_query(points, vertices, faces)
    ta, tb, tc = vertices[faces[:, 0]], vertices[faces[:, 1]], vertices[faces[:, 2]]
    corners = np.stack([ta, tb, tc])
    centroid = (ta + tb + tc) / 3.0
    radius = np.linalg.norm(corners - centroid, axis=2).max(axis=0)
    box_lo, box_hi = corners.min(axis=0), corners.max(axis=0)
    normal = np.cross(tb - ta, tc - ta)
    length = np.linalg.norm(normal, axis=1, keepdims=True)
    normal = np.divide(normal, length, out=np.zeros_like(normal), where=length > 0)
    height = np.einsum("kij,ij->ki", corners, normal)
    top, bottom = height.max(axis=0), height.min(axis=0)
    offset = (top + bottom) / 2.0
    tol = 2.0**-40 * max(np.abs(points).max(), np.abs(corners).max())
    half = (top - bottom) / 2.0 + tol  # the rounding of n.p and of offset
    # the upper bound: each point's distance to its nearest-centroid triangle
    seed = cKDTree(centroid).query(points)[1]
    best = np.empty(len(points))
    for s in range(0, len(points), PAIR_BUDGET):
        p, t = points[s : s + PAIR_BUDGET], seed[s : s + PAIR_BUDGET]
        q = _closest_point_on_triangles(p, ta[t], tb[t], tc[t])
        best[s : s + PAIR_BUDGET] = np.linalg.norm(p - q, axis=1)
    chunk = max(1, PAIR_BUDGET // len(faces))
    order = cKDTree(points, leafsize=chunk).indices
    for g in range(0, len(points), 8 * chunk):
        group = order[g : g + 8 * chunk]
        pg = points[group]
        near = _boxes_near(pg.min(axis=0), pg.max(axis=0), box_lo, box_hi, best[group].max() + tol)
        near_lo, near_hi = box_lo[near], box_hi[near]
        for s in range(0, len(group), chunk):
            idx = group[s : s + chunk]
            p = points[idx]
            reach = best[idx].max() + tol
            tri = near[_boxes_near(p.min(axis=0), p.max(axis=0), near_lo, near_hi, reach)]
            lower = _pair_bounds(p, centroid[tri], radius[tri], normal[tri], offset[tri], half[tri])
            pi, ti = np.nonzero(lower <= best[idx, None] + tol)
            ti = tri[ti]
            q = _closest_point_on_triangles(p[pi], ta[ti], tb[ti], tc[ti])
            np.minimum.at(best, idx[pi], np.linalg.norm(p[pi] - q, axis=1))
    return best


def point_to_surface_bruteforce(points, vertices, faces):
    """Exhaustive-scan oracle for :func:`point_to_surface`."""
    points, vertices, faces = _surface_query(points, vertices, faces)
    ta, tb, tc = vertices[faces[:, 0]], vertices[faces[:, 1]], vertices[faces[:, 2]]
    return point_to_triangles_distance(points, ta, tb, tc)


def boundary_edges(faces):
    """Directed edges that lack an opposite partner (empty for a closed,
    consistently oriented surface), as (i, j) tuples in increasing order."""
    faces = np.asarray(faces, dtype=np.int64)
    if faces.size == 0:
        return []
    lo = int(faces.min())
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]) - lo
    n = int(e.max()) + 1  # the directed edge (i, j) has the key i * n + j
    keys = np.sort(e[:, 0] * n + e[:, 1])
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    i, j = np.divmod(keys, n)
    # each reversed key, looked up in the sorted keys
    reverse = j * n + i
    unpaired = keys[np.searchsorted(keys, reverse) % len(keys)] != reverse
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
