import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heartfields import acquisition as acq
from heartfields import anatomy, metrics


def icosphere(radius=1.0, subdivisions=2):
    """Icosahedron subdivision sphere; returns (vertices, faces)."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=np.float64,
    )
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    for _ in range(subdivisions):
        mid = {}
        new_faces = []
        vlist = list(verts)

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in mid:
                vlist.append((vlist[i] + vlist[j]) / 2.0)
                mid[key] = len(vlist) - 1
            return mid[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(vlist)
        faces = np.array(new_faces, dtype=np.int64)
    verts = verts / np.linalg.norm(verts, axis=1, keepdims=True) * radius
    return verts, faces


def unit_cube():
    v = np.array(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
        dtype=np.float64,
    )
    f = np.array(
        [
            [0, 2, 1], [0, 3, 2],  # bottom (z=0), outward -z
            [4, 5, 6], [4, 6, 7],  # top
            [0, 1, 5], [0, 5, 4],  # y=0
            [1, 2, 6], [1, 6, 5],  # x=1
            [2, 3, 7], [2, 7, 6],  # y=1
            [3, 0, 4], [3, 4, 7],  # x=0
        ],
        dtype=np.int64,
    )
    return v, f


# ---------------------------------------------------------------- point dice


def test_dice_identical_lists():
    labels = np.array([0, 1, 2, 3, 4, 1, 1])
    assert metrics.point_dice(labels, labels, 1) == 1.0


def test_dice_absent_class_is_one():
    assert metrics.point_dice([0, 0], [0, 0], 3) == 1.0


def test_dice_hand_counts():
    # TP=8, FP=2, FN=2 -> 2*8/(16+2+2) = 0.8
    ref = [1] * 10 + [0] * 10
    pred = [1] * 8 + [0] * 2 + [1] * 2 + [0] * 8
    assert metrics.point_dice(pred, ref, 1) == pytest.approx(0.8)


def test_dice_length_mismatch():
    with pytest.raises(ValueError):
        metrics.point_dice([1, 2], [1], 1)


@given(st.integers(0, 30), st.integers(0, 30), st.integers(1, 30))
def test_dice_fp_flip_monotone(fp, fn, tp):
    # flipping one FP to TP never decreases the score
    ref = [1] * (tp + fn) + [0] * (fp + 1)
    pred = [1] * tp + [0] * fn + [1] * (fp + 1)
    before = metrics.point_dice(pred, ref, 1)
    ref2 = [1] * (tp + 1 + fn) + [0] * fp
    pred2 = [1] * (tp + 1) + [0] * fn + [1] * fp
    after = metrics.point_dice(pred2, ref2, 1)
    assert after >= before


# ------------------------------------------------------------------- ED/RMSE


def test_ed_identity_and_translation():
    v = np.random.default_rng(0).standard_normal((50, 3))
    assert metrics.corresponding_ed(v, v) == (0.0, 0.0)
    ed, rmse = metrics.corresponding_ed(v + [0, 2.0, 0], v)
    assert ed == pytest.approx(2.0)
    assert rmse == pytest.approx(2.0)


def test_ed_half_offset():
    v = np.zeros((10, 3))
    moved = v.copy()
    moved[:5, 0] = 2.0
    ed, rmse = metrics.corresponding_ed(moved, v)
    assert ed == pytest.approx(1.0)
    assert rmse == pytest.approx(np.sqrt(2.0))


def test_ed_count_mismatch():
    with pytest.raises(ValueError):
        metrics.corresponding_ed(np.zeros((3, 3)), np.zeros((4, 3)))


# ------------------------------------------------------------------- chamfer


def test_chamfer_identity():
    a = np.random.default_rng(1).standard_normal((20, 3))
    assert metrics.chamfer(a, a) == (0.0, 0.0, 0.0)


def test_chamfer_hand_case():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[3.0, 0, 0], [5.0, 0, 0]])
    cd_ab, cd_ba, cd_sym = metrics.chamfer(a, b)
    assert cd_ab == pytest.approx(3.0)
    assert cd_ba == pytest.approx(4.0)
    assert cd_sym == pytest.approx(7.0)


def test_chamfer_swap_symmetry():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((30, 3)), rng.standard_normal((40, 3))
    assert metrics.chamfer(a, b)[2] == pytest.approx(metrics.chamfer(b, a)[2])


def test_chamfer_matches_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((rng.integers(1, 120), 3)) * rng.uniform(0.1, 50)
        b = rng.standard_normal((rng.integers(1, 120), 3)) * rng.uniform(0.1, 50)
        fast = metrics.chamfer(a, b)
        slow = metrics.chamfer_bruteforce(a, b)
        np.testing.assert_allclose(fast, slow, atol=1e-9)


def test_chamfer_empty_errors():
    with pytest.raises(ValueError):
        metrics.chamfer(np.zeros((0, 3)), np.zeros((3, 3)))


def test_chamfer_rigid_invariance():
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((25, 3)), rng.standard_normal((35, 3))
    # random rotation + translation applied to both sets
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    t = rng.standard_normal(3) * 10
    moved = metrics.chamfer(a @ q.T + t, b @ q.T + t)
    np.testing.assert_allclose(moved, metrics.chamfer(a, b), atol=1e-9)


# ---------------------------------------------------------- point-to-surface


def test_p2s_on_vertices_is_zero():
    v, f = icosphere(10.0, 1)
    assert metrics.point_to_surface(v[::7], v, f).max() == pytest.approx(0.0, abs=1e-12)


def test_p2s_flat_patch_normal_offset():
    # big square patch in z=0 plane, point 5 above it
    v = np.array([[-10, -10, 0], [10, -10, 0], [10, 10, 0], [-10, 10, 0]], dtype=float)
    f = np.array([[0, 1, 2], [0, 2, 3]])
    assert metrics.point_to_surface([[0, 0, 5.0]], v, f).max() == pytest.approx(5.0)


def contour_like(rng, radius):
    """A few noisy planar rings near a sphere of ``radius`` about the origin,
    like the contours of a slice stack, plus far outliers, in shuffled order."""
    rings = []
    for z in rng.uniform(-0.8, 0.8, 4) * radius:
        theta = rng.uniform(0, 2 * np.pi, 40)
        r = np.sqrt(radius**2 - z**2) + rng.normal(0, 0.05 * radius, 40)
        rings.append(np.column_stack([r * np.cos(theta), r * np.sin(theta), np.full(40, z)]))
    far = rng.standard_normal((5, 3))
    far *= rng.uniform(5, 50, (5, 1)) * radius / np.linalg.norm(far, axis=1, keepdims=True)
    return rng.permutation(np.vstack(rings + [far]))


def with_degenerate_faces(v, f):
    """(v, f) plus four zero-area triangles that reach out beyond a sphere
    of radius ~8 about the origin. Two repeat a new corner: one ends at
    vertex 0, which the sphere's faces hold too, and one, ``[n, n, n + 1]``,
    at a vertex that only it holds, so only the segment to it is nearest
    there. Two have three collinear corners: one exactly, so its cross
    product is zero, and one up to rounding, so its cross product is a tiny
    normal of arbitrary direction. The last eight rows of the result are
    the new vertices."""
    q = np.array([11.0, 1.0, 0.5])
    r = q * [1, -1, 1]
    d = np.array([0.1, 0.2, 0.7])
    e = np.array([0.25, 0.5, 1.0])
    extra = np.array([q, q + [0.0, 6.0, 3.0], -q, -q + 0.3 * d, -q + 1.1 * d, r, r + e, r + 3 * e])
    n = len(v)
    new_faces = [[n, n, 0], [n, n, n + 1], [n + 2, n + 3, n + 4], [n + 5, n + 6, n + 7]]
    return np.vstack([v, extra]), np.vstack([f, new_faces])


def planar_probes(rng, v, f):
    """Points in the planes of random triangles of (v, f): inside them,
    and 1e-9 to 1 off them along the normal on either side. Half of them
    lie over a point 1e-9 or 1e-8 (in barycentric weight) from a corner,
    where the plane bound is within rounding of the corner's distance."""
    tri = v[f[rng.choice(len(f), 16, replace=False)]]
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    w = rng.dirichlet(np.ones(3), 16)
    w[:4] = [1 - 2e-9, 1e-9, 1e-9]
    w[4:8] = [1e-8, 1 - 2e-8, 1e-8]
    foot = np.einsum("ij,ijk->ik", w, tri)
    h = np.array([0.0, 1e-9, -1e-9, 1e-6, -1e-3, 0.1, 1.0])
    return (foot[:, None, :] + h[None, :, None] * normal[:, None, :]).reshape(-1, 3)


def test_p2s_matches_bruteforce(monkeypatch):
    rng = np.random.default_rng(5)
    v, f = icosphere(8.0, 1)
    # the same faces over permuted vertices: triangles that cross each other
    # and span the sphere, as on a poorly fitted reconstruction; and again
    # 300 times as far out, like the metre-wide triangles of an exploded decode
    scrambled = rng.permutation(v)
    exploded = rng.permutation(v) * 300.0
    inputs = []
    for _ in range(5):
        pts = rng.uniform(-15, 15, size=(100, 3))
        inputs += [(pts, v), (pts, scrambled), (pts * 50.0, v), (pts * 50.0, scrambled)]
        inputs += [(pts, exploded), (pts * 50.0, exploded)]
    for _ in range(3):
        pts = contour_like(rng, 8.0)
        inputs += [(pts, v), (pts, scrambled), (pts, exploded)]
    dv, df = with_degenerate_faces(v, f)
    near = (dv[-8:] + rng.normal(0, 0.3, (6, 8, 3))).reshape(-1, 3)
    along = dv[-8] + rng.uniform(-0.2, 1.2, (40, 1)) * (dv[-7] - dv[-8])
    near = np.vstack([near, along + rng.normal(0, 0.3, (40, 3))])
    inputs += [(near, dv), (np.vstack([near, contour_like(rng, 8.0)]), dv)]
    # in-plane probes on meshes moved 1e3 and 1e4 away from the origin
    for shift in (1e3, 1e4):
        for verts in (v + shift, scrambled + shift):
            inputs.append((planar_probes(rng, verts, f), verts))

    def check():
        for pts, verts in inputs:
            faces = df if len(verts) == len(dv) else f
            fast = metrics.point_to_surface(pts, verts, faces)
            slow = metrics.point_to_surface_bruteforce(pts, verts, faces)
            np.testing.assert_array_equal(fast, slow)

    check()
    # a triangle with two equal corners is the segment between the other
    # two, whichever corners are equal
    seg = dv[-8:-6]
    pts = seg[0] + rng.uniform(-0.5, 1.5, (60, 1)) * (seg[1] - seg[0]) + rng.normal(0, 1.0, (60, 3))
    ab = seg[1] - seg[0]
    t = np.clip((pts - seg[0]) @ ab / (ab @ ab), 0.0, 1.0)
    exact = np.linalg.norm(pts - (seg[0] + t[:, None] * ab), axis=1)
    for faces in ([[0, 0, 1]], [[1, 1, 0]], [[0, 1, 1]], [[0, 1, 0]]):
        tri = seg[faces[0]]
        np.testing.assert_allclose(
            metrics.point_to_triangles_distance(pts, tri[:1], tri[1:2], tri[2:]), exact, rtol=1e-12
        )
        fast = metrics.point_to_surface(pts, seg, faces)
        np.testing.assert_array_equal(fast, metrics.point_to_surface_bruteforce(pts, seg, faces))
        assert fast.mean() == pytest.approx(exact.mean(), rel=1e-12)
    # chunks of a single point (more faces than the pair budget), of 7
    # points, and of more points than any input holds
    for budget in (len(f) - 1, 7 * len(f), 1000 * len(f)):
        monkeypatch.setattr(metrics, "PAIR_BUDGET", budget)
        check()


def test_p2s_sliver_nearer_than_nearest_centroid():
    # a long sliver passes ~0.5 below the points, far from its centroid,
    # while the small triangle of nearest centroid lies ~1 above them: the
    # seed bound is the small triangle's distance, and the scan must still
    # find the sliver
    v = np.array([[-0.1, -0.1, 1.0], [0.1, -0.1, 1.0], [0.0, 0.1, 1.0],
                  [-100.0, 0.0, -0.5], [100.0, 0.0, -0.5], [100.0, 0.01, -0.5]])
    f = np.array([[0, 1, 2], [3, 4, 5]])
    pts = np.random.default_rng(31).normal(0.0, 0.05, (50, 3))
    tri = v[f]
    assert np.all(np.linalg.norm(pts[:, None] - tri.mean(axis=1), axis=2).argmin(axis=1) == 0)
    small, sliver = (metrics.point_to_triangles_distance(pts, *t[:, None]) for t in tri)
    assert np.all(sliver < small)
    for shift in (0.0, 1e3):
        fast = metrics.point_to_surface(pts + shift, v + shift, f)
        slow = metrics.point_to_surface_bruteforce(pts + shift, v + shift, f)
        np.testing.assert_array_equal(fast, slow)


@pytest.mark.parametrize("budget_per_face", [0.3, 3.0])
def test_p2s_batches_within_pair_budget(monkeypatch, budget_per_face):
    rng = np.random.default_rng(8)
    v, f = icosphere(8.0, 2)
    budget = int(budget_per_face * len(f))
    monkeypatch.setattr(metrics, "PAIR_BUDGET", budget)
    sizes = []
    closest, cdist = metrics._closest_point_on_triangles, metrics.cdist
    boxes_near, pair_bounds = metrics._boxes_near, metrics._pair_bounds

    def closest_counted(p, a, b, c):
        sizes.append(len(p))
        return closest(p, a, b, c)

    def cdist_counted(xa, xb, *args, **kwargs):
        sizes.append(len(xa) * len(xb))
        return cdist(xa, xb, *args, **kwargs)

    def boxes_near_counted(lo, hi, box_lo, box_hi, reach):
        sizes.append(len(box_lo))  # the group and the chunk box culls
        return boxes_near(lo, hi, box_lo, box_hi, reach)

    def pair_bounds_counted(p, centroid, *args):
        # the plane-bound product has the same (points, triangles) shape
        sizes.append(len(p) * len(centroid))
        return pair_bounds(p, centroid, *args)

    monkeypatch.setattr(metrics, "_closest_point_on_triangles", closest_counted)
    monkeypatch.setattr(metrics, "cdist", cdist_counted)
    monkeypatch.setattr(metrics, "_boxes_near", boxes_near_counted)
    monkeypatch.setattr(metrics, "_pair_bounds", pair_bounds_counted)
    pts = np.vstack([rng.uniform(-12, 12, (150, 3)), contour_like(rng, 8.0)])
    # scrambled vertices prune few pairs, so the batches come near the bound
    for verts in (v, rng.permutation(v), rng.permutation(v) * 300.0):
        metrics.point_to_surface(pts, verts, f)
    assert sizes and max(sizes) <= max(budget, len(f))


# float.hex of point_to_surface's mean as computed before the triangle box cull,
# which must keep these bits: a seeded shape's ideal contour points against
# its generating mesh, and (every tenth point) against its vertex-permuted
# mesh; and, as computed before the plane bound, those tenth points against
# the permuted mesh scaled 30 times about the origin, an exploded mesh ~3 m
# across like a poorly trained model's decode. The first and last were
# re-taken when a mesh's landmarks became those of its vertices, which moves
# the contour points by at most 1.8e-15 mm (0x1.fa7f3adb8657ep-54 and
# 0x1.c9b1ab4cf716fp-3 before)
GOLDEN_P2S_HEX = ("0x1.050dc0d1566b9p-53", "0x1.2f39f9f7b053cp-2", "0x1.c9b1ab4cf716dp-3")


def test_p2s_golden(golden_arithmetic):
    topo = anatomy.build_template()
    mesh = anatomy.generate_shape(topo, anatomy.sample_params(11))
    pts, _ = acq.acquire(mesh, "pin", density=6.0).all_points(kind=acq.KIND_CONTOUR)
    scrambled = np.random.default_rng(11).permutation(mesh.vertices)
    got = (
        metrics.point_to_surface(pts, mesh.vertices, topo.faces).mean().hex(),
        metrics.point_to_surface(pts[::10], scrambled, topo.faces).mean().hex(),
        metrics.point_to_surface(pts[::10], scrambled * 30.0, topo.faces).mean().hex(),
    )
    assert got == GOLDEN_P2S_HEX


def test_p2s_of_a_subset_equals_the_full_sets_distances():
    """Each distance is an exact minimum over all triangles, so the points a
    call holds besides it do not change its bits: the per-slice distances
    a case reference keeps are those of one call over every slice."""
    topo = anatomy.build_template()
    mesh = anatomy.generate_shape(topo, anatomy.sample_params(12))
    pts, _ = acq.acquire(mesh, "pin", density=6.0).all_points(kind=acq.KIND_CONTOUR)
    full = metrics.point_to_surface(pts, mesh.vertices, topo.faces)
    rng = np.random.default_rng(12)
    for subset in (np.arange(len(pts))[::-3], rng.choice(len(pts), 25, replace=False), [7]):
        part = metrics.point_to_surface(pts[subset], mesh.vertices, topo.faces)
        np.testing.assert_array_equal(part, full[subset])


def test_p2s_ignores_unreferenced_vertices():
    v = np.array([[-10, -10, 0], [10, -10, 0], [10, 10, 0], [-10, 10, 0], [0, 0, 4.0]])
    f = np.array([[0, 1, 2], [0, 2, 3]])  # vertex 4 not part of any face
    assert metrics.point_to_surface([[0, 0, 5.0]], v, f).max() == pytest.approx(5.0)


def test_p2s_empty_mesh():
    with pytest.raises(ValueError):
        metrics.point_to_surface(np.zeros((2, 3)), np.zeros((0, 3)), np.zeros((0, 3), dtype=int))


@pytest.mark.parametrize("p2s", [metrics.point_to_surface, metrics.point_to_surface_bruteforce])
def test_p2s_empty_point_set_errors(p2s):
    v, f = icosphere(8.0, 1)
    with pytest.raises(ValueError, match="empty point set"):
        p2s(np.zeros((0, 3)), v, f)


@pytest.mark.parametrize("p2s", [metrics.point_to_surface, metrics.point_to_surface_bruteforce])
@pytest.mark.parametrize(
    "points, vertices, faces, match",
    [
        ([[0, 0, 1.0]], None, [[0, 1, -1]], "face indices"),
        ([[0, 0, 1.0]], None, [[0, 1, 4]], "face indices"),
        ([[0, 0, 1.0]], None, [[0.0, 1.0, 2.0]], "integer"),
        ([[0, 0, 1.0]], None, [[0, 1, 2, 3]], "integer"),
        ([[0, 0, 1.0]], [[0, 0, 0], [1, 0, 0], [0, 1, np.nan]], [[0, 1, 2]], "vertices must be finite"),
        ([[0, 0, np.inf]], None, [[0, 1, 2]], "points must be finite"),
        ([[0, 0], [1, 1]], None, [[0, 1, 2]], "points must be an"),
        ([[0, 0, 1.0]], [[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], "vertices must be an"),
    ],
)
def test_p2s_rejects_bad_input(p2s, points, vertices, faces, match):
    if vertices is None:
        vertices = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ValueError, match=match):
        p2s(points, vertices, faces)


def closest_point_masked(p, a, b, c):
    """Oracle for ``metrics._closest_point_on_triangles``: every region's
    candidate over all pairs, assigned through first-match masks."""
    ab, ac, ap = b - a, c - a, p - a
    d1, d2 = np.einsum("ij,ij->i", ab, ap), np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3, d4 = np.einsum("ij,ij->i", ab, bp), np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5, d6 = np.einsum("ij,ij->i", ab, cp), np.einsum("ij,ij->i", ac, cp)
    out = np.empty_like(p)
    done = np.zeros(len(p), dtype=bool)

    def assign(mask, value):
        nonlocal done
        m = mask & ~done
        if m.any():
            out[m] = value[m] if value.ndim == 2 else value
        done |= m

    assign((d1 <= 0) & (d2 <= 0), a)
    assign((d3 >= 0) & (d4 <= d3), b)
    vc = d1 * d4 - d3 * d2
    denom = np.where(np.abs(d1 - d3) > 0, d1 - d3, 1.0)
    assign((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + ab * (d1 / denom)[:, None])
    assign((d6 >= 0) & (d5 <= d6), c)
    vb = d5 * d2 - d1 * d6
    denom = np.where(np.abs(d2 - d6) > 0, d2 - d6, 1.0)
    assign((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + ac * (d2 / denom)[:, None])
    va = d3 * d6 - d5 * d4
    e = (d4 - d3) + (d5 - d6)
    denom = np.where(np.abs(e) > 0, e, 1.0)
    assign(
        (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),
        b + (c - b) * ((d4 - d3) / denom)[:, None],
    )
    total = va + vb + vc
    denom = np.where(np.abs(total) > 0, total, 1.0)
    assign(np.ones(len(p), dtype=bool), a + ab * (vb / denom)[:, None] + ac * (vc / denom)[:, None])
    return out


def test_closest_point_matches_masked_oracle_bitwise():
    rng = np.random.default_rng(31)
    n = 20000
    p, a, b, c = (rng.uniform(-10, 10, (n, 3)) for _ in range(4))
    p[:500] = a[:500]  # points on a vertex
    c[1000:2000] = a[1000:2000]  # two coincident corners: a segment
    b[2000:3000] = c[2000:3000] = a[2000:3000]  # a point
    b[3000:4000] = a[3000:4000] + 2.0 * (c[3000:4000] - a[3000:4000])  # collinear
    p[4000:5000] = a[4000:5000] + 0.3 * (b[4000:5000] - a[4000:5000])  # on edge ab
    q = metrics._closest_point_on_triangles(p, a, b, c)
    assert np.array_equal(q, closest_point_masked(p, a, b, c))


def boundary_edges_oracle(faces):
    """The set-of-tuples formulation of ``metrics.boundary_edges``."""
    faces = np.asarray(faces, dtype=np.int64)
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    fwd = set(map(tuple, e.tolist()))
    return {edge for edge in fwd if (edge[1], edge[0]) not in fwd}


def test_boundary_edges_match_set_oracle():
    topo = anatomy.build_template()
    open_edges = metrics.boundary_edges(topo.faces)
    assert len(open_edges) == 44
    assert set(open_edges) == boundary_edges_oracle(topo.faces)
    mesh = anatomy.generate_shape(topo, anatomy.sample_params(3))
    for name in topo.compartments:
        faces = mesh.compartment(name)[1]
        assert metrics.boundary_edges(faces) == [] == sorted(boundary_edges_oracle(faces))
    v, f = unit_cube()
    for faces in (f[:-1], f[:-3] + 5, np.vstack([f, f[:2]]), f[:0]):
        got = metrics.boundary_edges(faces)
        assert len(got) == len(set(got))
        assert set(got) == boundary_edges_oracle(faces)


# -------------------------------------------------------------------- volume


def test_cube_volume():
    v, f = unit_cube()
    assert metrics.enclosed_volume(v, f) == pytest.approx(0.001)  # 1 mm^3


def test_sphere_volume_within_2pct():
    v, f = icosphere(10.0, 3)
    analytic = 4.0 / 3.0 * np.pi * 1000.0 / 1000.0  # mL
    assert metrics.enclosed_volume(v, f) == pytest.approx(analytic, rel=0.02)


def test_volume_orientation_flip():
    v, f = unit_cube()
    assert metrics.enclosed_volume(v, f[:, ::-1]) == pytest.approx(0.001)


def test_volume_open_surface_errors():
    v, f = unit_cube()
    with pytest.raises(ValueError):
        metrics.enclosed_volume(v, f[:-1])


def test_volume_additivity_disjoint():
    v1, f1 = icosphere(5.0, 2)
    v2, f2 = icosphere(3.0, 2)
    v2 = v2 + [50.0, 0, 0]
    both_v = np.vstack([v1, v2])
    both_f = np.vstack([f1, f2 + len(v1)])
    total = metrics.enclosed_volume(both_v, both_f)
    parts = metrics.enclosed_volume(v1, f1) + metrics.enclosed_volume(v2, f2)
    assert total == pytest.approx(parts, rel=1e-12)


# ---------------------------------------------------------------- wall mass


def test_wall_mass_zero_for_equal_surfaces():
    vol = metrics.enclosed_volume(*icosphere(10.0, 2))
    assert metrics.wall_mass(vol, vol) == pytest.approx(0.0)


def test_wall_mass_concentric_spheres():
    inner = metrics.enclosed_volume(*icosphere(20.0, 3))
    outer = metrics.enclosed_volume(*icosphere(23.0, 3))
    analytic = 4.0 / 3.0 * np.pi * (23.0**3 - 20.0**3) / 1000.0 * 1.05
    assert metrics.wall_mass(outer, inner) == pytest.approx(analytic, rel=0.02)


def test_wall_mass_zero_density():
    inner = metrics.enclosed_volume(*icosphere(5.0, 1))
    outer = metrics.enclosed_volume(*icosphere(7.0, 1))
    assert metrics.wall_mass(outer, inner, density=0.0) == 0.0


def test_wall_mass_inverted_errors():
    inner = metrics.enclosed_volume(*icosphere(5.0, 1))
    outer = metrics.enclosed_volume(*icosphere(7.0, 1))
    with pytest.raises(ValueError):
        metrics.wall_mass(inner, outer)


# ------------------------------------------------------------- bland-altman


def test_bland_altman_identity():
    rows, bias, lo, hi = metrics.bland_altman_rows([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert np.all(rows[:, 1] == 0)
    assert bias == 0 and lo == 0 and hi == 0


def test_bland_altman_constant_offset():
    ref = np.array([10.0, 20.0, 30.0])
    rows, bias, lo, hi = metrics.bland_altman_rows(ref, ref + 5)
    assert bias == pytest.approx(5.0)
    assert lo == pytest.approx(5.0)
    assert hi == pytest.approx(5.0)


def test_bland_altman_bias_is_mean_difference():
    rng = np.random.default_rng(6)
    ref = rng.uniform(50, 150, 20)
    pred = ref + rng.standard_normal(20) * 3
    rows, bias, lo, hi = metrics.bland_altman_rows(ref, pred)
    assert bias == pytest.approx(np.mean(pred - ref))
    assert lo < bias < hi
