import dataclasses
import gc
import hashlib
import re
import weakref
from collections import Counter

import numpy as np
import pytest

from heartfields import acquisition as acq
from heartfields import anatomy, inference, metrics
from heartfields.anatomy import frames, labeling, template
from heartfields.anatomy.template import (
    TAG_BASE_RING,
    TAG_EPI,
    TAG_LV_ENDO,
    TAG_RV_ENDO,
    surface_label,
)
from heartfields.training import build_sample


def label_point(point, mesh):
    """Single-point :func:`anatomy.label_points`, as an AnatomicalLabel."""
    return labeling.AnatomicalLabel(int(anatomy.label_points(np.asarray(point)[None, :], mesh)[0]))


def voxel_box(mesh, spacing):
    """The voxel centers of ``inference.label_box`` over ``mesh``, in C order."""
    lo, dims = inference.label_box(mesh.vertices, spacing)
    index = np.stack(np.meshgrid(*map(np.arange, dims), indexing="ij"), axis=-1).reshape(-1, 3)
    return lo + spacing * index


@pytest.fixture(scope="module")
def topo():
    return anatomy.build_template()


@pytest.fixture(scope="module")
def mesh(topo):
    return anatomy.generate_shape(topo, anatomy.ShapeParams())


# ---------------------------------------------------------------- template


def test_vertex_count_default(topo):
    assert topo.vertex_count == 2597
    assert topo.uvc.shape == (topo.vertex_count, 4)


def test_uvc_ranges(topo):
    u1, u2, u3, u4 = topo.uvc.T
    assert set(np.unique(u1)) <= {0.0, 1.0}
    assert u2.min() >= 0.0 and u2.max() <= 1.0
    assert u3.min() >= 0.0 and u3.max() <= 1.5
    assert u4.min() >= 0.0 and u4.max() <= 1.5
    ring = topo.surface_tag == TAG_BASE_RING
    assert np.all(u3[~ring] <= 1.0) and np.all(u4[~ring] <= 1.0)
    assert np.all(u3[ring] >= 1.0) and np.all(u4[ring] >= 1.0)


def test_uvc_surface_values(topo):
    u2 = topo.uvc[:, 1]
    tag = topo.surface_tag
    np.testing.assert_array_equal(u2 == 0.0, tag == TAG_EPI)
    np.testing.assert_array_equal(
        u2 == 1.0, (tag == TAG_LV_ENDO) | (tag == TAG_RV_ENDO)
    )


def test_uvc_bijective(topo):
    tuples = {tuple(row) for row in topo.uvc}
    assert len(tuples) == topo.vertex_count


def test_apex_vertex_u4_zero(topo):
    pole = topo.blocks["A_pole"][0]
    assert topo.uvc[pole, 3] == 0.0
    assert topo.surface_tag[pole] == TAG_LV_ENDO


def test_lv_free_wall_endo_values(topo):
    # vertex at phi=0 (opposite the RV sector) on the endo sheet
    spec = topo.spec
    vid = topo.blocks["A_trunk"].reshape(spec.n_rows, spec.n_phi)[spec.n_rows // 2, 0]
    u1, u2, u3, u4 = topo.uvc[vid]
    assert u1 == 0.0 and u2 == 1.0
    assert 0.0 <= u3 <= 2.0 / 3.0


def test_uvc_identical_across_shapes_and_builds(topo):
    rebuilt = anatomy.build_template()
    np.testing.assert_array_equal(topo.uvc, rebuilt.uvc)
    m1 = anatomy.generate_shape(topo, anatomy.sample_params(1))
    m2 = anatomy.generate_shape(topo, anatomy.sample_params(2))
    assert m1.topology.uvc is m2.topology.uvc


def topology_sha256(topo):
    """sha256 over the coordinates, tags, faces, compartments (by name)
    and transmural pairs, in fixed little-endian dtypes."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(topo.uvc, dtype="<f8").tobytes())
    ints = [topo.surface_tag, topo.faces, topo.face_group]
    ints += [topo.compartments[name] for name in sorted(topo.compartments)]
    for a in ints + [topo.transmural_pairs]:
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


# computed at commit d80c47a, before the vertex layout moved into
# _Grid.blocks; the template uses no transcendental functions for these
# arrays, so the digests hold on every IEEE platform
GOLDEN_TOPOLOGY_SHA256 = {
    "default": ({}, "5fa6aa45fdd26840e8922d68cbd87d93ea680701d184bc1deb328c041cbdc7d2"),
    "n_phi48": (
        {"n_phi": 48, "n_rows": 20, "k_rv": 12},
        "e5318e6cdfc1781908e9da8ef6fab93ec4263ba4516a4780e913c4ddd932b72f",
    ),
}


@pytest.mark.parametrize(
    "spec, match",
    [(dict(n_phi=24), "n_phi must be a multiple of 16"),
     (dict(k_rv=0), "k_rv must lie strictly inside"),
     (dict(n_rows=18, k_rv=18), "k_rv must lie strictly inside")],
    ids=["n_phi_24", "k_rv_0", "k_rv_at_n_rows"],
)
def test_template_spec_rejects_a_bad_layout(spec, match):
    with pytest.raises(ValueError, match=match):
        anatomy.TemplateSpec(**spec)


@pytest.mark.parametrize("spec", sorted(GOLDEN_TOPOLOGY_SHA256))
def test_template_topology_golden(spec):
    kw, digest = GOLDEN_TOPOLOGY_SHA256[spec]
    assert topology_sha256(anatomy.build_template(anatomy.TemplateSpec(**kw))) == digest


def test_check_unique_uvc_rejects_collisions(topo):
    from dataclasses import replace

    from heartfields.anatomy.template import _check_unique_uvc

    _check_unique_uvc(topo)
    twin = topo.uvc.copy()
    twin[5] = twin[9]
    with pytest.raises(AssertionError, match="1 collisions"):
        _check_unique_uvc(replace(topo, uvc=twin))
    # rows that differ only by the sign of a zero are the same coordinates
    zeros = topo.uvc.copy()
    zeros[:2] = [[0.0, 0.5, 0.25, 0.0], [-0.0, 0.5, 0.25, 0.0]]
    with pytest.raises(AssertionError, match="1 collisions"):
        _check_unique_uvc(replace(topo, uvc=zeros))


def test_compartments_closed_and_oriented(topo, mesh):
    for name in topo.compartments:
        verts, faces = mesh.compartment(name)
        assert metrics.boundary_edges(faces) == []
        signed = float(
            np.einsum(
                "ij,ij->i", verts[faces[:, 0]], np.cross(verts[faces[:, 1]], verts[faces[:, 2]])
            ).sum()
        )
        assert signed > 0.0


# ------------------------------------------------------------------ shapes


def test_generate_deterministic(topo):
    p = anatomy.sample_params(7)
    m1 = anatomy.generate_shape(topo, p)
    m2 = anatomy.generate_shape(topo, p)
    np.testing.assert_array_equal(m1.vertices, m2.vertices)


def test_global_scale_doubles_coordinates(topo):
    from dataclasses import replace

    p = anatomy.ShapeParams()
    base = anatomy.generate_shape(topo, p)
    doubled = anatomy.generate_shape(topo, replace(p, global_scale=2.0))
    np.testing.assert_allclose(doubled.vertices, 2.0 * base.vertices, atol=1e-9)


def test_lv_cavity_volume_matches_analytic(topo, mesh):
    params = anatomy.ShapeParams()  # the parameters the mesh fixture is built from
    a, b, c = params.lv_semi_axes
    fb = params.base_truncation_fraction
    full = 4.0 / 3.0 * np.pi * a * b * c
    # fraction of the ellipsoid kept above the truncation plane z = -fb*c
    kept = 1.0 - (2.0 / 3.0 - (fb - fb**3 / 3.0)) / (4.0 / 3.0)
    analytic = full * kept / 1000.0
    measured = metrics.enclosed_volume(*mesh.compartment("lv_cavity"))
    assert measured == pytest.approx(analytic, rel=0.05)


def test_degenerate_params_rejected():
    for bad, match in [
        (dict(lv_semi_axes=(9.0, 9.0, 40.0), lv_wall_thickness=10.0), "degenerate shape"),
        (dict(lv_semi_axes=(26.0, -24.0, 52.0)), "semi-axis b must be positive"),
        (dict(rv_wall_thickness=0.0), "rv_wall_thickness must be positive"),
        (dict(global_scale=float("nan")), "global_scale must be positive"),
        (dict(base_truncation_fraction=0.9), r"base_truncation_fraction outside \[0.2, 0.8\]"),
    ]:
        with pytest.raises(ValueError, match=match):
            anatomy.ShapeParams(**bad).validate()


def test_shape_params_check_themselves_when_built():
    """Parameters are checked when built, by ``dataclasses.replace`` too,
    and are immutable: the semi-axes are kept as a tuple."""
    with pytest.raises(ValueError, match="^global_scale must be positive, got nan$"):
        anatomy.ShapeParams(global_scale=float("nan"))
    with pytest.raises(ValueError, match="^degenerate shape: wall thickness >= LV semi-axis$"):
        dataclasses.replace(anatomy.ShapeParams(), lv_wall_thickness=30.0)
    axes = [26.0, 24.0, 52.0]
    params = anatomy.ShapeParams(lv_semi_axes=axes)
    axes[0] = -1.0
    assert params.lv_semi_axes == (26.0, 24.0, 52.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.global_scale = 2.0


# ------------------------------------------------------------------ frames


def test_cardiac_frame_hand_case():
    f = anatomy.cardiac_frame([0, 0, 10.0], [5.0, 0, 10.0], [0, 0, -10.0])
    np.testing.assert_allclose(f.origin, [0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(f.rotation[:, 2], [0, 0, -1], atol=1e-12)  # ZA
    np.testing.assert_allclose(f.rotation[:, 1], [1, 0, 0], atol=1e-12)  # YA
    np.testing.assert_allclose(f.rotation[:, 0], [0, 1, 0], atol=1e-12)  # XA


def test_frame_rigid_equivariance():
    rng = np.random.default_rng(8)
    mvc, tvc, lva = rng.standard_normal((3, 3)) * 20
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    t = rng.standard_normal(3) * 15
    move = lambda p: p @ q.T + t
    f1 = anatomy.cardiac_frame(mvc, tvc, lva)
    f2 = anatomy.cardiac_frame(move(mvc), move(tvc), move(lva))
    pts = rng.standard_normal((12, 3)) * 30
    np.testing.assert_allclose(
        anatomy.apply_frame(f2, move(pts)), anatomy.apply_frame(f1, pts), atol=1e-9
    )


def test_frame_orthonormal_random():
    rng = np.random.default_rng(9)
    for _ in range(50):
        mvc, tvc, lva = rng.standard_normal((3, 3)) * 30
        f = anatomy.cardiac_frame(mvc, tvc, lva)
        np.testing.assert_allclose(f.rotation.T @ f.rotation, np.eye(3), atol=1e-10)
        assert np.linalg.det(f.rotation) == pytest.approx(1.0, abs=1e-10)


def test_frame_degenerate_errors():
    with pytest.raises(frames.DegenerateFrameError, match="MVC and LVA coincide"):
        anatomy.cardiac_frame([0, 0, 0], [1, 1, 1], [0, 0, 0])
    with pytest.raises(frames.DegenerateFrameError, match="TVC is collinear"):
        anatomy.cardiac_frame([0, 0, 10], [0, 0, 5], [0, 0, -10.0])
    for rotation, match in [
        (2.0 * np.eye(3), "not orthonormal"),
        ([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "not orthonormal"),
        (np.diag([1.0, 1.0, -1.0]), "left-handed"),
    ]:
        with pytest.raises(frames.DegenerateFrameError, match=match):
            anatomy.CardiacFrame(rotation, np.zeros(3))


def test_apply_frame_basics():
    f = anatomy.cardiac_frame([0, 0, 10.0], [5.0, 0, 10.0], [0, 0, -10.0])
    np.testing.assert_allclose(anatomy.apply_frame(f, f.origin), [0, 0, 0], atol=1e-12)
    za_tip = f.origin + f.rotation[:, 2]
    np.testing.assert_allclose(anatomy.apply_frame(f, za_tip), [0, 0, 1], atol=1e-12)
    pts = np.random.default_rng(10).standard_normal((7, 3)) * 25
    np.testing.assert_allclose(
        anatomy.invert_frame(f, anatomy.apply_frame(f, pts)), pts, atol=1e-12
    )


def test_generated_shape_frame_is_canonical(mesh):
    f = anatomy.cardiac_frame(**mesh.landmarks)
    np.testing.assert_allclose(f.rotation, np.eye(3), atol=1e-9)
    moved = anatomy.apply_frame(f, mesh.vertices)
    np.testing.assert_allclose(moved + f.origin, mesh.vertices + f.origin, atol=1e-9)


def test_landmarks_follow_the_vertices(topo):
    mesh = anatomy.generate_shape(topo, anatomy.sample_params(3))
    before = mesh.landmarks
    mesh = dataclasses.replace(mesh, vertices=mesh.vertices * 2.0 + np.array([1.0, -2.0, 3.0]))
    after = mesh.landmarks
    assert after.keys() == before.keys() == {"mvc", "tvc", "lva"}
    for name in after:
        np.testing.assert_allclose(after[name], before[name] * 2.0 + [1.0, -2.0, 3.0], atol=1e-12)
    np.testing.assert_array_equal(after["mvc"], mesh.vertices[topo.blocks["M_c"][0]])
    np.testing.assert_array_equal(after["lva"], mesh.vertices[topo.blocks["A_pole"][0]])


# ---------------------------------------------------------------- labeling


def test_one_hot_rejects_labels_outside_0_4():
    one_hot = labeling.AnatomicalLabel.one_hot
    np.testing.assert_array_equal(one_hot([0, 4, 2]), np.eye(5)[[0, 4, 2]])
    assert one_hot([]).shape == (0, 5)
    for bad in ([-1], [0, 5], [3, 255]):
        with pytest.raises(ValueError, match="0-4"):
            one_hot(bad)


def test_label_cavity_center(mesh):
    assert label_point([0.0, 0.0, 0.0], mesh) == labeling.AnatomicalLabel.LV


def test_label_far_outside(mesh):
    lo, hi = mesh.bounds()
    assert label_point(hi + 50.0, mesh) == labeling.AnatomicalLabel.BG


def lv_free_wall_midpoint(topo, mesh):
    """The point halfway across the LV free wall on a mid trunk row."""
    j = topo.spec.n_rows // 2
    endo, epi = (mesh.vertices[topo.blocks[sheet][j, 0]] for sheet in ("A_trunk", "B_trunk"))
    return 0.5 * (endo + epi)


def test_label_midwall_lv_free_wall(topo, mesh):
    assert label_point(lv_free_wall_midpoint(topo, mesh), mesh) == labeling.AnatomicalLabel.LVM


def test_label_partition_and_nesting(mesh):
    rng = np.random.default_rng(11)
    lo, hi = mesh.bounds()
    pts = rng.uniform(lo - 10, hi + 10, size=(800, 3))
    labels = anatomy.label_points(pts, mesh)
    assert labels.min() >= 0 and labels.max() <= 4
    heart = labeling.RayCastIndex(*mesh.compartment("heart"))
    inside = heart.contains(pts)
    # anything labeled non-BG must be inside the heart exterior and vice versa
    np.testing.assert_array_equal(labels > 0, inside)


def test_labeling_matches_winding_oracle(mesh):
    rng = np.random.default_rng(12)
    lo, hi = mesh.bounds()
    pts = rng.uniform(lo - 5, hi + 5, size=(250, 3))
    for name in ("lv_cavity", "rv_cavity", "heart"):
        verts, faces = mesh.compartment(name)
        fast = labeling.RayCastIndex(verts, faces).contains(pts)
        oracle = labeling.winding_number_contains(pts, verts, faces)
        np.testing.assert_array_equal(fast, oracle)


def test_label_points_cache_frees_mesh(topo):
    # a mesh with other vertices is another mesh, with a labeler of its own,
    # and the labeler a mesh keeps must not keep it alive through a cycle
    mesh = anatomy.generate_shape(topo, anatomy.sample_params(3))
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 200.0]])
    np.testing.assert_array_equal(anatomy.label_points(pts, mesh), [1, 0])
    mesh = dataclasses.replace(mesh, vertices=mesh.vertices + [0.0, 0.0, 200.0])
    np.testing.assert_array_equal(anatomy.label_points(pts, mesh), [0, 1])
    np.testing.assert_array_equal(anatomy.Labeler(mesh).label(pts), [0, 1])
    ref = weakref.ref(mesh)
    gc.disable()
    try:
        del mesh
        assert ref() is None
    finally:
        gc.enable()


def test_mesh_vertices_are_read_only(topo):
    """A labeled mesh's vertices cannot change under its labeler: writing
    into them or assigning them raises, and moving the shape takes
    ``dataclasses.replace``, whose mesh labels as a fresh labeler does."""
    mesh = anatomy.generate_shape(topo, anatomy.sample_params(3))
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 200.0]])
    np.testing.assert_array_equal(anatomy.label_points(pts, mesh), [1, 0])
    with pytest.raises(ValueError, match="read-only"):
        mesh.vertices += [0.0, 0.0, 200.0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh.vertices = mesh.vertices + [0.0, 0.0, 200.0]
    np.testing.assert_array_equal(anatomy.label_points(pts, mesh), [1, 0])
    moved = dataclasses.replace(mesh, vertices=mesh.vertices + [0.0, 0.0, 200.0])
    np.testing.assert_array_equal(anatomy.label_points(pts, moved), [0, 1])
    np.testing.assert_array_equal(anatomy.Labeler(moved).label(pts), [0, 1])


def test_mesh_owns_a_copy_of_its_vertices(topo, mesh):
    a = np.array(mesh.vertices)
    other = anatomy.InstanceMesh(topo, a)
    assert a.flags.writeable and not np.shares_memory(a, other.vertices)
    a += 1.0
    np.testing.assert_array_equal(other.vertices, mesh.vertices)
    assert other.vertices.dtype == np.float64 and not other.vertices.flags.writeable


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda v: v[:-1], r"vertex array shape \(2596, 3\) does not match"),
        (lambda v: v[:, :2], r"vertex array shape \(2597, 2\) does not match"),
        (lambda v: np.where(np.arange(len(v))[:, None] == 5, np.nan, v), "non-finite"),
        (lambda v: v + [0.0, np.inf, 0.0], "non-finite"),
    ],
    ids=["short", "2d", "nan", "inf"],
)
def test_mesh_rejects_bad_vertices(topo, mesh, edit, match):
    """Construction and ``dataclasses.replace`` run the same checks."""
    with pytest.raises(ValueError, match=match):
        anatomy.InstanceMesh(topo, edit(mesh.vertices))
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(mesh, vertices=edit(mesh.vertices))


def test_fallback_matches_winding_oracle(mesh):
    # the lax_4ch plane is vertical and holds template meridian edges, so
    # the vertical ray from every point of its grid in the box grazes an
    # edge and the re-cast decides the point; the jittered surface samples
    # probe the band near the surface, where a nudged re-cast must keep its
    # side
    plane = next(p for p in acq.standard_views(mesh) if p.view == "lax_4ch")
    s = acq.slice_mesh(mesh, [plane], density=4.0)[0]
    grid = s.points[s.kinds == acq.KIND_GRID]
    rng = np.random.default_rng(17)
    # re-cast queries of the grid per compartment, nudged ones twice; only
    # the queries in the compartment's box are cast at all
    fallback_points = {"lv_cavity": 262, "rv_cavity": 79, "heart": 531}
    for name in ("lv_cavity", "rv_cavity", "heart"):
        verts, faces = mesh.compartment(name)
        edges = np.unique(np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1), axis=0)
        surface = np.vstack([verts[np.unique(faces)], verts[edges].mean(axis=1)])
        surface = surface[rng.choice(len(surface), 600, replace=False)]
        jittered = [surface + rng.normal(0.0, sd, surface.shape) for sd in (1e-6, 1e-4)]
        index = labeling.RayCastIndex(verts, faces)
        for k, queries in enumerate([grid, *jittered]):
            # the grid's lowest row lies on the flat base, where containment
            # is a tie; the oracle decides only points off the surface by
            # more than a nudge
            dist = metrics.point_to_surface(queries, verts, faces)
            pts = queries[dist > 2 * labeling._NUDGE]
            fast = index.contains(pts)
            np.testing.assert_array_equal(fast, labeling.winding_number_contains(pts, verts, faces))
            if k == 0:
                assert index.fallback_points == fallback_points[name]
                if name != "rv_cavity":
                    boxed = np.all((pts >= index.lo) & (pts <= index.hi), axis=1)
                    assert index.fallback_points == np.count_nonzero(boxed)


def test_box_cull_keeps_every_label(topo):
    # containment with the box cull equals the cast of every query (an
    # infinite box) on sample and grid points, on-surface points, the
    # basal-cap ties, and points just outside each face of the surface's
    # box, whose nudged copies may lie inside it
    base = anatomy.generate_shape(topo, anatomy.sample_params(4))
    edges = np.unique(np.sort(topo.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1), axis=0)
    rng = np.random.default_rng(23)
    for mesh in (base, anatomy.InstanceMesh(topo, base.vertices + 1e3)):
        lo, hi = mesh.bounds()
        grids = [
            s.points[s.kinds == acq.KIND_GRID]
            for density in (2.0, 4.0)
            for s in acq.slice_mesh(mesh, acq.standard_views(mesh), density=density)
        ]
        grid = np.vstack(grids)
        ties = grid[grid[:, 2] == mesh.vertices[:, 2].min()]
        assert len(ties) > 0
        shared = [rng.uniform(lo - 20, hi + 20, (3000, 3)), grid, mesh.vertices,
                  mesh.vertices[edges].mean(axis=1), ties]
        for name in ("lv_cavity", "rv_cavity", "heart"):
            verts, faces = mesh.compartment(name)
            tri = verts[faces].reshape(-1, 3)
            box = (tri.min(axis=0), tri.max(axis=0))
            # some of the compartment's vertices moved onto each face of its
            # box and then k nudges outward
            used = rng.choice(np.unique(faces), 150, replace=False)
            on_faces = []
            for axis in range(3):
                for side, sign in zip(box, (-1.0, 1.0)):
                    for k in (0.0, 0.5, 1.0, 2.0, 20.0):
                        q = verts[used]
                        q[:, axis] = side[axis] + sign * k * labeling._NUDGE
                        on_faces.append(q)
            pts = np.vstack(shared + on_faces)
            culled = labeling.RayCastIndex(verts, faces)
            cast = labeling.RayCastIndex(verts, faces)
            cast.lo, cast.hi = np.full(3, -np.inf), np.full(3, np.inf)
            np.testing.assert_array_equal(culled.contains(pts), cast.contains(pts))
            assert 0 < culled.fallback_points < cast.fallback_points


def reference_cross_z(index, xy, tris):
    """The vertical crossing test with every term computed per pair from
    the triangle's corners: the oracle for the per-triangle terms that
    :class:`labeling.RayCastIndex` keeps, which must match it bit for bit."""
    t = index.v[index.f[tris]]
    a, b, c = t[:, 0], t[:, 1], t[:, 2]
    ab, bc, ca = b[:, :2] - a[:, :2], c[:, :2] - b[:, :2], a[:, :2] - c[:, :2]
    d0 = labeling._cross2(ab, xy - a[:, :2])
    d1 = labeling._cross2(bc, xy - b[:, :2])
    d2 = labeling._cross2(ca, xy - c[:, :2])
    area = labeling._cross2(ab, c[:, :2] - a[:, :2])
    pos = (d0 > 0) & (d1 > 0) & (d2 > 0)
    neg = (d0 < 0) & (d1 < 0) & (d2 < 0)
    strict = pos | neg
    eps = labeling._EPS_EDGE
    scale = np.abs(area) + 1e-300
    near_edge = (
        (np.minimum(np.abs(d0), np.minimum(np.abs(d1), np.abs(d2))) < eps * scale)
        | (np.abs(area) < 1e-14)
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        la = d1 / area
        lb = d2 / area
        lc = d0 / area
        z_hit = la * a[:, 2] + lb * b[:, 2] + lc * c[:, 2]
    return strict, z_hit[strict], near_edge & ~strict


def test_kept_triangle_terms_match_per_call_reference(topo, monkeypatch):
    # every (vertical line, triangle) pair the crossing test sees while
    # labeling slice grids, 2 mm voxel boxes, classification samples,
    # on-surface points and basal-cap ties of three shapes and of one moved
    # 1e3 mm away
    pairs = 0
    cross_z = labeling.RayCastIndex._cross_z

    def checked_cross_z(index, xy, tris):
        nonlocal pairs
        cross, z, graze = cross_z(index, xy, tris)
        ref_strict, ref_z, ref_graze = reference_cross_z(index, xy, tris)
        np.testing.assert_array_equal(cross, np.flatnonzero(ref_strict))
        np.testing.assert_array_equal(z.view(np.int64), ref_z.view(np.int64))
        np.testing.assert_array_equal(graze, ref_graze)
        pairs += len(tris)
        return cross, z, graze

    monkeypatch.setattr(labeling.RayCastIndex, "_cross_z", checked_cross_z)
    meshes = [anatomy.generate_shape(topo, anatomy.sample_params(seed)) for seed in (1, 2, 3)]
    meshes.append(anatomy.InstanceMesh(topo, meshes[0].vertices + 1e3))
    edges = np.unique(np.sort(topo.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1), axis=0)
    for mesh in meshes:
        slices = acq.slice_mesh(mesh, acq.standard_views(mesh), density=4.0)
        anatomy.label_points(voxel_box(mesh, 2.0), mesh)
        build_sample(mesh, "case000", seg_n=4000, reg_n=3000, seed=0)
        grid = np.vstack([s.points[s.kinds == acq.KIND_GRID] for s in slices])
        # the grid rows in the plane of the flat basal cap
        ties = grid[grid[:, 2] == mesh.vertices[:, 2].min()]
        assert len(ties) > 0
        on_mesh = np.vstack([mesh.vertices, mesh.vertices[edges].mean(axis=1), ties])
        anatomy.label_points(on_mesh, mesh)
    # a tetrahedron with a vertical face that has no vertical edge: the
    # face has no (x, y) area, but no query lies on its projected edges
    tet = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.5]])
    axes = np.linspace(-0.5, 2.5, 13), np.linspace(-0.5, 1.5, 9), np.linspace(-0.5, 1.5, 9)
    lattice = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, 3)
    for shift in (0.0, 1e3):
        index = labeling.RayCastIndex(tet + shift, [[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]])
        index.contains(lattice + shift)
        assert index.fallback_points > 0
    assert pairs > 10**6


def test_shared_lines_match_one_line_per_query(topo, mesh, monkeypatch):
    # labels and re-cast counts are the same whether the queries on one
    # vertical line share its crossings or each query casts a line of its
    # own: on a short-axis stack, the grazing lax_4ch grid, a 2 mm voxel
    # box, random points, the basal-cap ties and no queries, of a shape and
    # of the shape moved 1e3 mm away
    rng = np.random.default_rng(31)
    for shape in (mesh, anatomy.InstanceMesh(topo, mesh.vertices + 1e3)):
        planes = acq.standard_views(shape)
        grids = {p.view: s.points[s.kinds == acq.KIND_GRID]
                 for p, s in zip(planes, acq.slice_mesh(shape, planes, density=4.0))}
        grid = np.vstack(list(grids.values()))
        lo, hi = shape.bounds()
        sets = {
            "sax": np.vstack([g for view, g in grids.items() if view.startswith("sax")]),
            "lax_4ch": grids["lax_4ch"],
            "box": voxel_box(shape, 2.0),
            "random": rng.uniform(lo - 10, hi + 10, (3000, 3)),
            "ties": grid[grid[:, 2] == shape.vertices[:, 2].min()],
            "none": np.empty((0, 3)),
        }
        for name, pts in sets.items():
            if name in ("sax", "lax_4ch", "box"):
                assert len(np.unique(pts[:, :2], axis=0)) < len(pts) / 2, name
            shared = labeling.Labeler(shape)
            labels = shared.label(pts)
            with monkeypatch.context() as m:
                m.setattr(labeling, "_lines", lambda xy: (xy, np.arange(len(xy))))
                alone = labeling.Labeler(shape)
                np.testing.assert_array_equal(alone.label(pts), labels, err_msg=name)
            for compartment in ("lv", "rv", "heart"):
                cast = [getattr(lab, compartment).fallback_points for lab in (shared, alone)]
                assert cast[0] == cast[1], (name, compartment)
            if name == "lax_4ch":
                assert shared.heart.fallback_points > 0
        # one query per call, on the ties and part of the lax_4ch grid
        some = np.vstack([sets["ties"], sets["lax_4ch"][rng.choice(len(sets["lax_4ch"]), 100)]])
        shared, alone = labeling.Labeler(shape), labeling.Labeler(shape)
        labels = shared.label(some)
        np.testing.assert_array_equal([alone.label(p[None])[0] for p in some], labels)
        assert [i.fallback_points for i in (shared.lv, shared.rv, shared.heart)] == [
            i.fallback_points for i in (alone.lv, alone.rv, alone.heart)]


def test_grid_built_once_per_index(mesh, monkeypatch):
    builds = []
    buckets = labeling._buckets

    def counted(footprints):
        builds.append(len(footprints))
        return buckets(footprints)

    monkeypatch.setattr(labeling, "_buckets", counted)
    index = labeling.RayCastIndex(*mesh.compartment("heart"))
    assert builds == [len(index.f)]
    # the vertices graze the vertical ray and so are nudged and cast again
    pts = np.vstack([mesh.vertices, np.random.default_rng(3).uniform(*mesh.bounds(), (500, 3))])
    first = index.contains(pts)
    assert index.fallback_points > 0
    for _ in range(3):
        np.testing.assert_array_equal(index.contains(pts), first)
    assert builds == [len(index.f)]


def test_buckets_hold_each_triangle_in_its_box_cells():
    rng = np.random.default_rng(21)
    footprints = rng.uniform(0.0, 10.0, size=(60, 1, 2)) + rng.uniform(0.0, 2.0, size=(60, 3, 2))
    gmin, gspan, buckets, offsets = labeling._buckets(footprints)
    n_cells = labeling._CELLS**2
    assert len(offsets) == n_cells + 1 and offsets[-1] == len(buckets)
    bucket_cell = np.repeat(np.arange(n_cells), np.diff(offsets))
    # each bucket lists its triangles once, in triangle order
    assert np.all((np.diff(buckets) > 0) | (np.diff(bucket_cell) > 0))
    # points anywhere in a footprint box, its corners included, find the
    # triangle in their cell
    lo = footprints.min(axis=1)
    hi = footprints.max(axis=1)
    frac = np.vstack([[[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], rng.uniform(size=(20, 2))])
    pts = lo[:, None] + frac * (hi - lo)[:, None]
    cells = labeling._cell(pts.reshape(-1, 2), gmin, gspan)
    owner = np.repeat(np.arange(60), len(frac))
    assert np.isin(cells * 60 + owner, bucket_cell * 60 + buckets).all()


@pytest.mark.parametrize(
    "points",
    [np.zeros((2, 2)), [], np.zeros(3), np.zeros((1, 2, 3)), [[0.0, np.nan, 0.0]], [[np.inf, 1.0, 2.0]]],
)
def test_labeling_rejects_points_not_finite_n_by_3(mesh, points):
    shape = re.escape(str(np.shape(points)))
    with pytest.raises(ValueError, match=shape):
        labeling.RayCastIndex(*mesh.compartment("heart")).contains(points)
    with pytest.raises(ValueError, match=shape):
        anatomy.label_points(points, mesh)


def test_labeling_empty_query(mesh):
    inside = labeling.RayCastIndex(*mesh.compartment("heart")).contains(np.empty((0, 3)))
    assert inside.shape == (0,) and inside.dtype == bool
    labels = anatomy.label_points(np.empty((0, 3)), mesh)
    assert labels.shape == (0,) and labels.dtype == np.int8


def test_labeling_on_surface_terminates(mesh):
    # queries exactly on vertices and on the corners of the index grid
    # graze every ray; each must still get one decision
    lo, hi = mesh.bounds()
    corners = np.array(
        [[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
    )
    for name in ("lv_cavity", "rv_cavity", "heart"):
        verts, faces = mesh.compartment(name)
        index = labeling.RayCastIndex(verts, faces)
        ticks = index.gmin[:, None] + index.gspan[:, None] * np.linspace(0.0, 1.0, 7)
        grid_corners = np.array(
            [[x, y, z] for x in ticks[0] for y in ticks[1] for z in (lo[2], 0.0, hi[2])]
        )
        pts = np.vstack([verts, corners, grid_corners])
        inside = index.contains(pts)
        assert inside.shape == (len(pts),) and inside.dtype == bool
        assert index.fallback_points > 0
    labels = anatomy.label_points(np.vstack([mesh.vertices, corners]), mesh)
    assert labels.min() >= 0 and labels.max() <= 4


def test_labeling_nudges_once_then_uses_winding_number():
    # a tetrahedron with an edge along (1, 1, 1): a query on that edge
    # stays on it when nudged by the same amount along every axis, so it
    # grazes every ray before and after the nudge
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    index = labeling.RayCastIndex(verts, faces)
    pts = np.array([[0.5, 0.5, 0.5], [0.5, 0.25, 0.1], [0.7, 0.2, 0.5]])
    inside = index.contains(pts)
    # the edge query and its nudged copy; the winding number decides it then
    assert index.fallback_points == 2
    np.testing.assert_array_equal(inside, labeling.winding_number_contains(pts, verts, faces))


def test_interior_point_contract(mesh):
    from heartfields.anatomy.shapes import interior_points_batch

    endo, epi = mesh.topology.transmural_pairs[0]
    pos, uvc = interior_points_batch(mesh, [0, 0], [0.5, 0.999])
    np.testing.assert_allclose(pos[0], 0.5 * (mesh.vertices[endo] + mesh.vertices[epi]), atol=1e-12)
    assert uvc[0, 1] == pytest.approx(0.5)
    np.testing.assert_allclose(pos[1], mesh.vertices[endo], atol=0.05)
    for bad in (0.0, 1.0, -0.2, 1.3, np.nan):
        with pytest.raises(ValueError):
            interior_points_batch(mesh, [0, 0], [0.5, bad])


def test_interior_sweep_stays_myocardial(mesh):
    from heartfields.anatomy.shapes import interior_points_batch

    rng = np.random.default_rng(13)
    n = 1000
    idx = rng.integers(0, len(mesh.topology.transmural_pairs), size=n)
    ts = rng.uniform(0.1, 0.9, size=n)
    pos, uvc = interior_points_batch(mesh, idx, ts)
    np.testing.assert_allclose(uvc[:, 1], ts, atol=1e-12)
    labels = anatomy.label_points(pos, mesh)
    assert set(np.unique(labels)) <= {
        int(labeling.AnatomicalLabel.LVM),
        int(labeling.AnatomicalLabel.RVM),
    }


def test_vertex_labels_rule(topo):
    labels = topo.vertex_labels()
    tag = topo.surface_tag
    assert np.all(labels[tag == TAG_LV_ENDO] == labeling.AnatomicalLabel.LV)
    assert np.all(labels[tag == TAG_RV_ENDO] == labeling.AnatomicalLabel.RV)
    epi = labels[tag == TAG_EPI]
    assert set(np.unique(epi)) <= {labeling.AnatomicalLabel.LVM, labeling.AnatomicalLabel.RVM}


def test_surface_label_rule_and_its_callers(topo, mesh, monkeypatch):
    """The rule breaks a tie at u1 = 0.5 to RVM. Vertex labels and contour
    labels go through ``surface_label``, and the labeler's myocardium split
    through its ``myocardium_label`` part, so all three break it alike."""
    L = labeling.AnatomicalLabel
    below = np.nextafter(0.5, 0.0)
    tag = np.array([TAG_LV_ENDO, TAG_RV_ENDO, TAG_EPI, TAG_BASE_RING, TAG_EPI, TAG_BASE_RING])
    labels = surface_label(tag, np.array([0.5, 0.5, 0.5, 0.5, below, below]))
    assert labels.dtype == np.int8
    np.testing.assert_array_equal(labels, [L.LV, L.RV, L.RVM, L.RVM, L.LVM, L.LVM])

    calls = Counter()

    def spy(fn):
        def counted(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return counted

    # every module binding of the two functions
    for module, name in ((template, "surface_label"), (acq, "surface_label"),
                         (template, "myocardium_label"), (labeling, "myocardium_label")):
        monkeypatch.setattr(module, name, spy(getattr(module, name)))

    topo.vertex_labels()
    assert calls == {"surface_label": 1, "myocardium_label": 1}
    calls.clear()
    labeler = labeling.Labeler(mesh)
    mid = lv_free_wall_midpoint(topo, mesh)
    assert labeler.label(mid[None]) == L.LVM
    assert calls == {"myocardium_label": 1}
    labeler.u1 = np.full_like(labeler.u1, 0.5)
    assert labeler.label(mid[None]) == L.RVM
    calls.clear()
    acq.slice_mesh(mesh, [acq.standard_views(mesh)[0]], density=8.0)
    # the contour labels' rule call, then the split of the grid's labeler
    assert calls == {"surface_label": 1, "myocardium_label": 2}


# --------------------------------------------------------------------- I/O


def test_ply_roundtrip(tmp_path, mesh):
    path = tmp_path / "shape.ply"
    before = dict(vars(mesh.topology))
    anatomy.write_mesh_ply(path, mesh)
    verts, uvc, tags, faces = anatomy.read_mesh_ply(path)
    np.testing.assert_array_equal(verts, mesh.vertices)
    np.testing.assert_array_equal(uvc, mesh.topology.uvc)
    np.testing.assert_array_equal(tags, mesh.topology.surface_tag)
    np.testing.assert_array_equal(faces, mesh.topology.faces)
    # the writer keeps nothing on the topology
    assert vars(mesh.topology).keys() == before.keys()


@pytest.mark.parametrize("comment", ["shape\nend_header", "line\rbreak", "sh\u00e4pe"])
def test_ply_comment_must_be_one_ascii_line(tmp_path, mesh, comment):
    path = tmp_path / "shape.ply"
    with pytest.raises(ValueError, match="one line of ASCII text"):
        anatomy.write_mesh_ply(path, mesh, comment)
    assert not path.exists()
    anatomy.write_mesh_ply(path, mesh, "shape 7")
    assert b"\ncomment shape 7\n" in path.read_bytes()
    np.testing.assert_array_equal(anatomy.read_mesh_ply(path)[0], mesh.vertices)


FINE_SPEC = {"n_phi": 64, "n_rows": 49, "k_rv": 36}
# sha256 of write_mesh_ply's bytes for ShapeParams() on the default
# template (no comment) and on FINE_SPEC (comment "shape fine"), taken when
# the PLY body became binary little-endian
GOLDEN_PLY_SHA256 = {
    "default": "f479927873c5291eb3008b6ac107104624e764157bf56aa94bbdb8da3ca6f60f",
    "fine": "6459849b3e9204218e19645bd7085d8f0b7324aaff93e59babc368d8722efdca",
}


@pytest.fixture(scope="module")
def fine_mesh():
    fine = anatomy.build_template(anatomy.TemplateSpec(**FINE_SPEC))
    return anatomy.generate_shape(fine, anatomy.ShapeParams())


def test_ply_golden(tmp_path, mesh, fine_mesh, golden_arithmetic):
    for name, m, comment in (("default", mesh, None), ("fine", fine_mesh, "shape fine")):
        path = tmp_path / f"{name}.ply"
        anatomy.write_mesh_ply(path, m, comment)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_PLY_SHA256[name]


def test_ply_truncated_or_corrupt_rejected(tmp_path, mesh):
    path = tmp_path / "shape.ply"
    anatomy.write_mesh_ply(path, mesh)
    data = path.read_bytes()
    body = data.index(b"end_header\n") + len(b"end_header\n")
    header, n_vertex = data[:body], len(mesh.vertices)
    faces = body + 57 * n_vertex  # a vertex record is 7 float64 and a uchar
    last_face = len(data) - 13  # a face record is a uchar and 3 int32
    topo = mesh.topology
    ascii_rows = "".join(
        "%r %r %r %r %r %r %r %d\n" % tuple(r)
        for r in np.column_stack([mesh.vertices, topo.uvc, topo.surface_tag]).tolist()
    ) + "".join("3 %d %d %d\n" % tuple(f) for f in topo.faces.tolist())
    header_error, size_error = "not a binary PLY written by write_mesh_ply", "the body holds"
    bad = {
        "empty": (b"", header_error),
        "header_only": (header, size_error),
        "no_faces": (data[:faces], size_error),
        "half_vertices": (data[: body + 57 * (n_vertex // 2)], size_error),
        "last_face_cut": (data[:-1], size_error),
        "one_byte_too_many": (data + b"\0", size_error),
        "no_header": (data[body:], header_error),
        "no_end_header": (data.replace(b"end_header\n", b""), header_error),
        "ascii": (header.replace(b"binary_little_endian", b"ascii") + ascii_rows.encode(),
                  "regenerate ASCII PLYs of older runs with generate --force"),
        "big_endian": (data.replace(b"binary_little_endian", b"binary_big_endian"), header_error),
        "float32_x": (data.replace(b"float64 x", b"float32 x"), header_error),
        "two_vertices_more": (
            data.replace(b"vertex %d" % n_vertex, b"vertex %d" % (n_vertex + 2)), size_error),
        "quad_face": (data[:last_face] + b"\4" + data[last_face + 1 :], "not a triangle"),
        "face_index_999999": (data[:-4] + np.int32(999999).tobytes(), f"outside the {n_vertex}"),
        "face_index_minus_1": (data[:-4] + np.int32(-1).tobytes(), f"outside the {n_vertex}"),
    }
    for name, (content, error) in bad.items():
        cut = tmp_path / f"{name}.ply"
        cut.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(f"{cut}: ") + ".*" + re.escape(error)):
            anatomy.read_mesh_ply(cut)
