import gc
import weakref

import numpy as np
import pytest

from heartfields import acquisition as acq
from heartfields import anatomy, metrics
from heartfields.anatomy import frames, labeling
from heartfields.anatomy.template import (
    TAG_BASE_RING,
    TAG_EPI,
    TAG_LV_ENDO,
    TAG_RV_ENDO,
)


def label_point(point, mesh):
    """Single-point :func:`anatomy.label_points`, as an AnatomicalLabel."""
    return labeling.AnatomicalLabel(int(anatomy.label_points(np.asarray(point)[None, :], mesh)[0]))


@pytest.fixture(scope="module")
def topo():
    return anatomy.build_template()


@pytest.fixture(scope="module")
def mesh(topo):
    return anatomy.generate_shape(topo, anatomy.default_params())


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

    p = anatomy.default_params()
    base = anatomy.generate_shape(topo, p)
    doubled = anatomy.generate_shape(topo, replace(p, global_scale=2.0))
    np.testing.assert_allclose(doubled.vertices, 2.0 * base.vertices, atol=1e-9)


def test_lv_cavity_volume_matches_analytic(topo, mesh):
    a, b, c = mesh.params.lv_semi_axes
    fb = mesh.params.base_truncation_fraction
    full = 4.0 / 3.0 * np.pi * a * b * c
    # fraction of the ellipsoid kept above the truncation plane z = -fb*c
    kept = 1.0 - (2.0 / 3.0 - (fb - fb**3 / 3.0)) / (4.0 / 3.0)
    analytic = full * kept / 1000.0
    measured = metrics.enclosed_volume(*mesh.compartment("lv_cavity"))
    assert measured == pytest.approx(analytic, rel=0.05)


def test_degenerate_params_rejected():
    p = anatomy.ShapeParams(lv_semi_axes=(9.0, 9.0, 40.0), lv_wall_thickness=10.0)
    with pytest.raises(ValueError):
        p.validate()


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
    with pytest.raises(frames.DegenerateFrameError):
        anatomy.cardiac_frame([0, 0, 0], [1, 1, 1], [0, 0, 0])
    with pytest.raises(frames.DegenerateFrameError):
        anatomy.cardiac_frame([0, 0, 10], [0, 0, 5], [0, 0, -10.0])


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


# ---------------------------------------------------------------- labeling


def test_label_cavity_center(mesh):
    assert label_point([0.0, 0.0, 0.0], mesh) == labeling.AnatomicalLabel.LV


def test_label_far_outside(mesh):
    lo, hi = mesh.bounds()
    assert label_point(hi + 50.0, mesh) == labeling.AnatomicalLabel.BG


def test_label_midwall_lv_free_wall(topo, mesh):
    # construct the point from the parametric wall pair at half thickness
    spec = topo.spec
    a_row = topo.blocks["A_trunk"].reshape(spec.n_rows, spec.n_phi)
    b_row = topo.blocks["B_trunk"].reshape(spec.n_rows, spec.n_phi)
    j = spec.n_rows // 2
    endo, epi = mesh.vertices[a_row[j, 0]], mesh.vertices[b_row[j, 0]]
    mid = 0.5 * (endo + epi)
    assert label_point(mid, mesh) == labeling.AnatomicalLabel.LVM


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
    # the cached labeler must not keep its mesh alive through a cycle
    mesh = anatomy.generate_shape(topo, anatomy.default_params())
    anatomy.label_points(np.zeros((1, 3)), mesh)
    ref = weakref.ref(mesh)
    gc.disable()
    try:
        del mesh
        assert ref() is None
    finally:
        gc.enable()


def test_fallback_matches_winding_oracle(mesh):
    # the lax_4ch plane is vertical and holds template meridian edges, so
    # the vertical ray from every point of its grid grazes an edge and the
    # oblique fallback decides the point
    plane = next(p for p in acq.standard_views(mesh) if p.view == "lax_4ch")
    s = acq.slice_mesh(mesh, plane, density=4.0)
    grid = s.points[s.kinds == acq.KIND_GRID]
    for name in ("lv_cavity", "rv_cavity", "heart"):
        verts, faces = mesh.compartment(name)
        # the grid's lowest row lies on the flat base, where containment is
        # a tie; the oracle decides only points off the surface
        tri = verts[faces]
        off = metrics.point_to_triangles_distance(grid, tri[:, 0], tri[:, 1], tri[:, 2]) > 1e-6
        pts = grid[off]
        index = labeling.RayCastIndex(verts, faces)
        fast = index.contains(pts)
        np.testing.assert_array_equal(fast, labeling.winding_number_contains(pts, verts, faces))
        assert index.fallback_points > 0
        if name != "rv_cavity":
            assert index.fallback_points == len(pts)


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
    assert set(np.unique(epi)) <= {3, 4}


# --------------------------------------------------------------------- I/O


def test_ply_roundtrip(tmp_path, mesh):
    path = tmp_path / "shape.ply"
    anatomy.write_mesh_ply(path, mesh)
    verts, uvc, tags, faces = anatomy.read_mesh_ply(path)
    np.testing.assert_allclose(verts, mesh.vertices, atol=1e-6, rtol=1e-6)
    np.testing.assert_allclose(uvc, mesh.topology.uvc, atol=1e-9)
    np.testing.assert_array_equal(tags, mesh.topology.surface_tag)
    np.testing.assert_array_equal(faces, mesh.topology.faces)


def test_ply_truncated_or_corrupt_rejected(tmp_path, mesh):
    path = tmp_path / "shape.ply"
    anatomy.write_mesh_ply(path, mesh)
    lines = path.read_text().splitlines(keepends=True)
    body = lines.index("end_header\n") + 1
    n_vertex = len(mesh.vertices)
    bad = {
        "no_faces": lines[: body + n_vertex],
        "last_face_cut": lines[:-1],
        "half_vertices": lines[: body + n_vertex // 2],
        "garbled_vertex": lines[:body] + ["1 2 x 4 5 6 7 0\n"] + lines[body + 1 :],
    }
    for name, content in bad.items():
        cut = tmp_path / f"{name}.ply"
        cut.write_text("".join(content))
        with pytest.raises(ValueError, match=name):
            anatomy.read_mesh_ply(cut)


def test_landmarks_roundtrip(tmp_path, mesh):
    path = tmp_path / "landmarks.json"
    anatomy.write_landmarks(path, mesh.landmarks)
    back = anatomy.read_landmarks(path)
    for k in ("mvc", "tvc", "lva"):
        np.testing.assert_allclose(back[k], mesh.landmarks[k])
