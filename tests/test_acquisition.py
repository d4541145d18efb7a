import hashlib

import numpy as np
import pytest

from heartfields import acquisition as acq
from heartfields import anatomy
from heartfields.anatomy.labeling import AnatomicalLabel, RayCastIndex
from heartfields.training import build_sample


@pytest.fixture(scope="module")
def mesh():
    topo = anatomy.build_template()
    return anatomy.generate_shape(topo, anatomy.default_params())


@pytest.fixture(scope="module")
def contours(mesh):
    return acq.acquire(mesh, "case000", density=3.0)


# ------------------------------------------------------------------- planes


def test_standard_views_sax_count(mesh):
    planes = acq.standard_views(mesh)
    sax = [p for p in planes if p.view.startswith("sax")]
    lax = [p for p in planes if p.view.startswith("lax")]
    # default shape spans ~90 mm along the long axis -> 9-10 SAX planes
    assert 9 <= len(sax) <= 10
    assert sorted(p.view for p in lax) == ["lax_2ch", "lax_3ch", "lax_4ch"]


def test_sax_normals_parallel_to_long_axis(mesh):
    frame = anatomy.cardiac_frame(**mesh.landmarks)
    za = frame.rotation[:, 2]
    for p in acq.standard_views(mesh):
        if p.view.startswith("sax"):
            assert abs(abs(p.normal @ za) - 1.0) < 1e-12


def test_sax_spacing_10mm(mesh):
    planes = [p for p in acq.standard_views(mesh) if p.view.startswith("sax")]
    origins = np.array([p.origin for p in planes])
    za = planes[0].normal
    z = origins @ za
    np.testing.assert_allclose(np.diff(z), -10.0, atol=1e-9)


def test_lax_planes_contain_long_axis(mesh):
    for p in acq.standard_views(mesh):
        if p.view.startswith("lax"):
            for lm in ("mvc", "lva"):
                assert abs((mesh.landmarks[lm] - p.origin) @ p.normal) < 1e-9


def test_4ch_passes_through_tvc(mesh):
    p = next(q for q in acq.standard_views(mesh) if q.view == "lax_4ch")
    assert abs((mesh.landmarks["tvc"] - p.origin) @ p.normal) < 1e-9


def test_short_mesh_single_plane(mesh):
    planes = acq.standard_views(mesh, spacing=500.0)
    assert sum(p.view.startswith("sax") for p in planes) == 1


# ------------------------------------------------------------------ slicing


def test_midventricular_slice_has_all_labels(mesh):
    frame = anatomy.cardiac_frame(**mesh.landmarks)
    planes = [p for p in acq.standard_views(mesh) if p.view.startswith("sax")]
    mid = planes[len(planes) // 2]
    s = acq.slice_mesh(mesh, mid, density=2.0)
    grid_labels = s.labels[s.kinds == acq.KIND_GRID]
    assert set(np.unique(grid_labels)) == {0, 1, 2, 3, 4}


def test_far_plane_all_background(mesh):
    frame = anatomy.cardiac_frame(**mesh.landmarks)
    za = frame.rotation[:, 2]
    plane = acq.SlicePlane(
        view="sax99",
        origin=mesh.landmarks["lva"] + 200.0 * za,
        normal=za,
        e1=frame.rotation[:, 0],
        e2=frame.rotation[:, 1],
    )
    s = acq.slice_mesh(mesh, plane, density=4.0)
    assert np.all(s.labels == AnatomicalLabel.BG)
    assert np.sum(s.kinds == acq.KIND_CONTOUR) == 0


def test_planarity(contours):
    for s in contours.slices:
        d = (s.points - s.plane.origin) @ s.plane.normal
        assert np.abs(d).max() < 1e-9


def test_grid_density_scaling(mesh):
    plane = next(
        p for p in acq.standard_views(mesh) if p.view == "sax04"
    )
    coarse = acq.slice_mesh(mesh, plane, density=4.0)
    fine = acq.slice_mesh(mesh, plane, density=2.0)
    n_coarse = np.sum(coarse.kinds == acq.KIND_GRID)
    n_fine = np.sum(fine.kinds == acq.KIND_GRID)
    assert n_fine >= 3.9 * n_coarse


def test_grid_label_fidelity(mesh, contours):
    # grid labels must equal the containment labels of their positions
    s = contours.slices[3]
    grid = s.kinds == acq.KIND_GRID
    relabeled = anatomy.label_points(s.points[grid], mesh)
    np.testing.assert_array_equal(relabeled, s.labels[grid])


# sha256 of int8 label arrays of the default shape, computed at commit
# fbd1246 (per-cell and per-point ray-casting loops): any change to
# labeling must keep every label bit-identical
GOLDEN_GRID_LABELS_SHA256 = "e821c741fcc1d31c121e97f07aae668089d2dfd3ae9fe8d43825f272a1fe054c"
GOLDEN_SEG_LABELS_SHA256 = "4c3a9d270ef35e35f049de2a13f822884c6c59d9caeee4ef066568e221108614"


def test_golden_label_hashes(mesh, contours):
    def sha(labels):
        return hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int8).tobytes()).hexdigest()

    # grid labels of acquire(density=3.0), concatenated in slice order
    grid = np.concatenate([s.labels[s.kinds == acq.KIND_GRID] for s in contours.slices])
    assert grid.size == 13032
    assert sha(grid) == GOLDEN_GRID_LABELS_SHA256
    sample = build_sample(mesh, "case000", seg_n=8000, reg_n=3000, seed=0)
    assert sha(sample.seg_labels) == GOLDEN_SEG_LABELS_SHA256


def test_contour_points_lie_on_surfaces(mesh, contours):
    # contour points should be within a face-chord of the exact surface
    from heartfields.metrics import point_to_surface

    s = contours.slices[4]
    pts = s.points[s.kinds == acq.KIND_CONTOUR]
    d = point_to_surface(pts, mesh.vertices, mesh.topology.faces)
    assert d < 1e-9


# ------------------------------------------------------------- misalignment


def test_misalignment_zero_sigma_identity(contours):
    spec = acq.MisalignmentSpec(sigma=0.0, seed=5)
    shifted = acq.inject_misalignment(contours, spec)
    assert shifted.provenance == "misaligned"
    for a, b in zip(shifted.slices, contours.slices):
        np.testing.assert_array_equal(a.points, b.points)


def test_misalignment_roundtrip(contours):
    spec = acq.MisalignmentSpec(sigma=3.0, seed=6)
    shifted = acq.inject_misalignment(contours, spec)
    restored = acq.remove_misalignment(shifted)
    for a, b in zip(restored.slices, contours.slices):
        np.testing.assert_allclose(a.points, b.points, atol=1e-12)
        np.testing.assert_array_equal(a.labels, b.labels)


def test_misalignment_preserves_structure(contours):
    spec = acq.MisalignmentSpec(sigma=3.0, seed=7)
    shifted = acq.inject_misalignment(contours, spec)
    for a, b in zip(shifted.slices, contours.slices):
        assert len(a.points) == len(b.points)
        np.testing.assert_array_equal(a.labels, b.labels)
        # pairwise in-plane distances unchanged by a rigid shift
        pa, pb = a.points[:40], b.points[:40]
        da = np.linalg.norm(pa[:, None] - pa[None, :], axis=2)
        db = np.linalg.norm(pb[:, None] - pb[None, :], axis=2)
        np.testing.assert_allclose(da, db, atol=1e-9)


def test_misalignment_deterministic(contours):
    spec = acq.MisalignmentSpec(sigma=3.0, seed=8)
    s1 = acq.inject_misalignment(contours, spec)
    s2 = acq.inject_misalignment(contours, spec)
    for a, b in zip(s1.slices, s2.slices):
        np.testing.assert_array_equal(a.points, b.points)


def test_misalignment_mean_magnitude():
    # gaussian 2-vector: E|shift| = sigma * sqrt(pi/2)
    plane = acq.SlicePlane("sax00", [0, 0, 0], [0, 0, 1.0], [1.0, 0, 0], [0, 1.0, 0])
    slices = [
        acq.Slice(plane, np.zeros((1, 3)), np.zeros(1, dtype=np.int8), np.zeros(1, dtype=np.uint8))
        for _ in range(100)
    ]
    cs = acq.ContourSet("mc", slices)
    shifted = acq.inject_misalignment(cs, acq.MisalignmentSpec(sigma=3.0, seed=9))
    mags = [np.linalg.norm(s.shift) for s in shifted.slices]
    expected = 3.0 * np.sqrt(np.pi / 2.0)
    assert abs(np.mean(mags) - expected) / expected < 0.2


# ------------------------------------------------------------------ subsets


def test_subset_full_row(contours):
    row = acq.ABLATION_ROWS[0]
    sub = acq.select_subset(contours, row)
    views = set(sub.views())
    assert "lax_3ch" in views and "lax_4ch" in views and "lax_2ch" not in views
    n_sax = sum(v.startswith("sax") for v in contours.views())
    assert sum(v.startswith("sax") for v in views) == n_sax


def test_subset_half_sax(contours):
    sub = acq.select_subset(contours, acq.ABLATION_ROWS[4])
    views = sub.views()
    n_sax = sum(v.startswith("sax") for v in contours.views())
    assert len(views) == int(np.ceil(n_sax / 2))
    assert all(v.startswith("sax") for v in views)
    assert "sax00" in views  # most apical retained


def test_subset_idempotent(contours):
    row = acq.ABLATION_ROWS[1]
    once = acq.select_subset(contours, row)
    twice = acq.select_subset(once, row)
    assert once.views() == twice.views()


def test_subset_monotone(contours):
    for row in acq.ABLATION_ROWS:
        sub = acq.select_subset(contours, row)
        assert set(sub.views()) <= set(contours.views())


def test_subset_empty_errors(contours):
    with pytest.raises(ValueError):
        acq.AblationConfig(False, False, True, True)
    lax_only = acq.ContourSet(
        "x", [s for s in contours.slices if s.plane.view.startswith("sax")]
    )
    with pytest.raises(ValueError):
        acq.select_subset(lax_only, acq.AblationConfig(True, True, False, False))


# --------------------------------------------------------------------- I/O


def test_contour_roundtrip(tmp_path, contours):
    path = tmp_path / "contours.json"
    acq.save_contours(path, contours)
    back = acq.load_contours(path)
    assert back.shape_id == contours.shape_id
    assert back.provenance == contours.provenance
    assert back.views() == contours.views()
    for a, b in zip(back.slices, contours.slices):
        np.testing.assert_allclose(a.points, b.points, atol=1e-12)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.kinds, b.kinds)
