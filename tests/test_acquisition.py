import base64
import hashlib
import json
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from conftest import views

from heartfields import acquisition as acq
from heartfields import anatomy
from heartfields.anatomy.labeling import AnatomicalLabel, RayCastIndex
from heartfields.training import build_sample


@pytest.fixture(scope="module")
def mesh():
    topo = anatomy.build_template()
    return anatomy.generate_shape(topo, anatomy.ShapeParams())


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


@pytest.mark.parametrize("field", ["origin", "normal", "e1", "e2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_slice_plane_rejects_frame_not_finite(field, bad):
    frame = {"origin": [0.0, 0.0, 0.0], "normal": [0.0, 0.0, 1.0], "e1": [1.0, 0.0, 0.0],
             "e2": [0.0, 1.0, 0.0]}
    acq.SlicePlane("sax00", **frame)
    frame[field] = [bad, 0.0, 0.0]
    with pytest.raises(ValueError, match=f"^{field} is not \\(3,\\) finite numbers"):
        acq.SlicePlane("sax00", **frame)
    # a frame all of whose vectors are bad names the first
    with pytest.raises(ValueError, match="^origin is not"):
        acq.SlicePlane("sax00", **{k: [bad] * 3 for k in frame})


@pytest.mark.parametrize("field", ["e1", "e2"])
def test_slice_plane_rejects_scaled_axis(tmp_path, field):
    """An in-plane axis of length 2 would lay the slice grid at twice the
    spacing; it is rejected on construction and in a contour file."""
    frame = {"origin": [0.0, 0.0, 0.0], "normal": [0.0, 0.0, 1.0], "e1": [1.0, 0.0, 0.0],
             "e2": [0.0, 1.0, 0.0]}
    good = acq.Slice(acq.SlicePlane("sax00", **frame), np.zeros((1, 3)), np.zeros(1, np.int8),
                     np.zeros(1, np.uint8))
    path = tmp_path / "scaled.json"
    acq.save_contours(path, acq.ContourSet("x", [good]))
    frame[field] = [2.0 * x for x in frame[field]]
    with pytest.raises(ValueError, match=f"^plane {field} must be unit length$"):
        acq.SlicePlane("sax00", **frame)
    doc = json.loads(path.read_text())
    doc["slices"][0][field] = frame[field]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"slice 'sax00': plane {field} must be unit length"):
        acq.load_contours(path)


@pytest.mark.parametrize("first, second", [("e1", "e2"), ("e1", "normal"), ("e2", "normal")])
def test_slice_plane_rejects_axes_not_orthogonal(first, second):
    frame = {"origin": [0.0, 0.0, 0.0], "normal": [0.0, 0.0, 1.0], "e1": [1.0, 0.0, 0.0],
             "e2": [0.0, 1.0, 0.0]}
    # a unit axis tilted toward another by 0.1 rad
    frame[first] = list(np.cos(0.1) * np.array(frame[first]) + np.sin(0.1) * np.array(frame[second]))
    with pytest.raises(ValueError, match="^plane axes must be orthonormal$"):
        acq.SlicePlane("sax00", **frame)


@pytest.mark.parametrize("bad", [0.0, -10.0, -2.0, np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["spacing", "density"])
def test_spacing_and_density_must_be_positive_and_finite(mesh, monkeypatch, name, bad):
    # the check comes before any labeling; unchecked, a negative or infinite
    # spacing gave 4 planes, a negative density grids without points, and
    # 0 or nan failed inside np.arange
    def no_labels(points, mesh):
        raise AssertionError("labeled before the check")

    monkeypatch.setattr(acq, "label_points", no_labels)
    match = re.escape(f"{name} must be positive and finite, got {bad!r}")
    with pytest.raises(ValueError, match=match):
        acq.acquire(mesh, "case000", **{name: bad})
    with pytest.raises(ValueError, match=match):
        if name == "spacing":
            acq.standard_views(mesh, spacing=bad)
        else:
            acq.slice_mesh(mesh, acq.standard_views(mesh), density=bad)


def test_short_mesh_single_plane(mesh):
    planes = acq.standard_views(mesh, spacing=500.0)
    assert sum(p.view.startswith("sax") for p in planes) == 1


# ------------------------------------------------------------------ slicing


def test_midventricular_slice_has_all_labels(mesh):
    frame = anatomy.cardiac_frame(**mesh.landmarks)
    planes = [p for p in acq.standard_views(mesh) if p.view.startswith("sax")]
    mid = planes[len(planes) // 2]
    s = acq.slice_mesh(mesh, [mid], density=2.0)[0]
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
    s = acq.slice_mesh(mesh, [plane], density=4.0)[0]
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
    coarse = acq.slice_mesh(mesh, [plane], density=4.0)[0]
    fine = acq.slice_mesh(mesh, [plane], density=2.0)[0]
    n_coarse = np.sum(coarse.kinds == acq.KIND_GRID)
    n_fine = np.sum(fine.kinds == acq.KIND_GRID)
    assert n_fine >= 3.9 * n_coarse


def test_lone_plane_slices_as_among_all_views(mesh, contours):
    # one plane, given alone, gets the slice it gets when all views are
    # labeled in one call
    for k in (0, len(contours.slices) - 1):
        ref = contours.slices[k]
        s = acq.slice_mesh(mesh, ref.plane, density=3.0)
        assert s.plane is ref.plane
        for got, want in ((s.points, ref.points), (s.labels, ref.labels), (s.kinds, ref.kinds)):
            np.testing.assert_array_equal(got, want)
    assert acq.slice_mesh(mesh, [], density=3.0) == []


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
# sha256 of the float64 contour points then the int8 contour labels of
# acquire(density=3.0), computed at commit 270c25f (per-face slicing loop)
# and re-taken when a mesh's landmarks became those of its vertices (the
# points move by at most 7.1e-15 mm, no label changes)
GOLDEN_CONTOUR_SHA256 = "58a156b5e3c42bb2f62d402c4fc761b3bb6ec579d846f047244b95b86218ba2c"


def test_golden_label_hashes(mesh, contours):
    def sha(labels):
        return hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int8).tobytes()).hexdigest()

    # grid labels of acquire(density=3.0), concatenated in slice order
    grid = np.concatenate([s.labels[s.kinds == acq.KIND_GRID] for s in contours.slices])
    assert grid.size == 13032
    assert sha(grid) == GOLDEN_GRID_LABELS_SHA256
    sample = build_sample(mesh, "case000", seg_n=8000, reg_n=3000, seed=0)
    assert sha(sample.seg_labels) == GOLDEN_SEG_LABELS_SHA256
    pts, labels = contours.all_points(kind=acq.KIND_CONTOUR)
    assert pts.shape == (4816, 3)
    digest = hashlib.sha256(pts.astype(np.float64).tobytes() + labels.astype(np.int8).tobytes())
    assert digest.hexdigest() == GOLDEN_CONTOUR_SHA256


# per sample_params seed: sha256 of the int8 grid labels of acquire(density=2.0),
# concatenated in slice order, and of the build_sample seg labels, computed at
# commit 0dbb1d0 (vertical cast with three oblique fallback directions)
GOLDEN_SEED_LABELS_SHA256 = {
    1000: (
        23840,
        "b3edc58aa3cc3e73acddd25662c01bf5adf75fca7393810cbe37caeb951e467c",
        "5482b3f650683fc3cf1cd8b2cb1d6a2219b700db2e6698146a60aab35ab31a4a",
    ),
    9000: (
        32452,
        "0405609e0f4ae7fe5b61635cc66767bcc2fca316928741562da1d31e2e04dc92",
        "c72e96f0592728ef2e4a49ea2efda414b53ff635f40d657d64f979043e5895f5",
    ),
    500000: (
        30096,
        "e90e3461bfd9fd52594def47ab8d8d8698d15b2d17d9d28dd8216172b4cab2cd",
        "afb10f291a587446cc819239b407e3d9d024049716c76ea455a37b8720b24daf",
    ),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SEED_LABELS_SHA256))
def test_golden_label_hashes_per_seed(mesh, seed):
    def sha(labels):
        return hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int8).tobytes()).hexdigest()

    n_grid, grid_digest, seg_digest = GOLDEN_SEED_LABELS_SHA256[seed]
    shape = anatomy.generate_shape(mesh.topology, anatomy.sample_params(seed))
    slices = acq.acquire(shape, "case000", density=2.0).slices
    grid = np.concatenate([s.labels[s.kinds == acq.KIND_GRID] for s in slices])
    assert grid.size == n_grid
    assert sha(grid) == grid_digest
    sample = build_sample(shape, "case000", seg_n=8000, reg_n=3000, seed=0)
    assert sha(sample.seg_labels) == seg_digest


def test_contour_points_lie_on_surfaces(mesh, contours):
    # contour points should be within a face-chord of the exact surface
    from heartfields.metrics import point_to_surface

    s = contours.slices[4]
    pts = s.points[s.kinds == acq.KIND_CONTOUR]
    d = point_to_surface(pts, mesh.vertices, mesh.topology.faces)
    assert d.max() < 1e-9


# ------------------------------------------------------------- misalignment


def test_misalignment_zero_sigma_identity(contours):
    shifted = acq.inject_misalignment(contours, sigma=0.0, seed=5)
    assert shifted.provenance == "misaligned"
    for a, b in zip(shifted.slices, contours.slices):
        np.testing.assert_array_equal(a.points, b.points)
    for sigma in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="^sigma must be nonnegative and finite"):
            acq.inject_misalignment(contours, sigma=sigma, seed=5)


def remove_misalignment(contours):
    """Subtract the recorded per-slice shifts (inverse of injection)."""
    slices = [acq.Slice(s.plane, s.points - (s.shift[0] * s.plane.e1 + s.shift[1] * s.plane.e2),
                        s.labels, s.kinds) for s in contours.slices]
    return acq.ContourSet(contours.shape_id, slices, provenance="ideal")


def test_misalignment_roundtrip(contours):
    shifted = acq.inject_misalignment(contours, sigma=3.0, seed=6)
    restored = remove_misalignment(shifted)
    for a, b in zip(restored.slices, contours.slices):
        np.testing.assert_allclose(a.points, b.points, atol=1e-12)
        np.testing.assert_array_equal(a.labels, b.labels)


def test_misalignment_preserves_structure(contours):
    shifted = acq.inject_misalignment(contours, sigma=3.0, seed=7)
    for a, b in zip(shifted.slices, contours.slices):
        assert len(a.points) == len(b.points)
        np.testing.assert_array_equal(a.labels, b.labels)
        # pairwise in-plane distances unchanged by a rigid shift
        pa, pb = a.points[:40], b.points[:40]
        da = np.linalg.norm(pa[:, None] - pa[None, :], axis=2)
        db = np.linalg.norm(pb[:, None] - pb[None, :], axis=2)
        np.testing.assert_allclose(da, db, atol=1e-9)


def test_misalignment_deterministic(contours):
    s1 = acq.inject_misalignment(contours, sigma=3.0, seed=8)
    s2 = acq.inject_misalignment(contours, sigma=3.0, seed=8)
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
    shifted = acq.inject_misalignment(cs, sigma=3.0, seed=9)
    mags = [np.linalg.norm(s.shift) for s in shifted.slices]
    expected = 3.0 * np.sqrt(np.pi / 2.0)
    assert abs(np.mean(mags) - expected) / expected < 0.2


# ------------------------------------------------------------------ subsets


def test_subset_full_row(contours):
    kept = set(views(acq.select_subset(contours, "3ch+4ch+allsax")))
    assert "lax_3ch" in kept and "lax_4ch" in kept and "lax_2ch" not in kept
    n_sax = sum(v.startswith("sax") for v in views(contours))
    assert sum(v.startswith("sax") for v in kept) == n_sax


def test_subset_half_sax(contours):
    kept = views(acq.select_subset(contours, "halfsax"))
    n_sax = sum(v.startswith("sax") for v in views(contours))
    assert len(kept) == int(np.ceil(n_sax / 2))
    assert all(v.startswith("sax") for v in kept)
    assert "sax00" in kept  # most apical retained


def test_subset_idempotent(contours):
    once = acq.select_subset(contours, "4ch+allsax")
    twice = acq.select_subset(once, "4ch+allsax")
    assert views(once) == views(twice)


def test_subset_monotone(contours):
    for row in acq.ABLATION_ROWS:
        sub = acq.select_subset(contours, row)
        assert set(views(sub)) <= set(views(contours))


def test_subset_empty_errors(contours):
    lax_only = acq.ContourSet(
        "x", [s for s in contours.slices if not s.plane.view.startswith("sax")]
    )
    with pytest.raises(ValueError):
        acq.select_subset(lax_only, "allsax")


# --------------------------------------------------------------------- I/O


# sha256 of the bytes save_contours writes for acquire(density=3.0) in
# contour format 3; it moves with the file layout and with GOLDEN_CONTOUR_SHA256
GOLDEN_CONTOUR_FILE_SHA256 = "d4e8039745187c9ff2f45974b34344cbce2c2909300d7d93f0c4649ba1ea2062"


def test_contour_roundtrip(tmp_path, contours):
    path = tmp_path / "contours.json"
    acq.save_contours(path, contours)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CONTOUR_FILE_SHA256
    back = acq.load_contours(path)
    assert back.shape_id == contours.shape_id
    assert back.provenance == contours.provenance
    assert views(back) == views(contours)
    for a, b in zip(back.slices, contours.slices):
        for k in ("origin", "normal", "e1", "e2", "spacing"):
            np.testing.assert_array_equal(getattr(a.plane, k), getattr(b.plane, k))
        for k in ("points", "labels", "kinds", "shift"):
            np.testing.assert_array_equal(getattr(a, k), getattr(b, k))
            assert getattr(a, k).dtype == getattr(b, k).dtype
        for k in ("points", "labels", "kinds"):
            arr = getattr(a, k)
            assert not arr.flags.writeable and arr.flags.owndata and arr.dtype.isnative, k
    again = tmp_path / "again.json"
    acq.save_contours(again, back)
    assert again.read_bytes() == path.read_bytes()
    no_points = acq.Slice(contours.slices[0].plane, np.zeros((0, 3)), np.zeros(0, np.int8), np.zeros(0, np.uint8))
    acq.save_contours(path, acq.ContourSet("empty", [no_points]))
    assert acq.load_contours(path).slices[0].points.shape == (0, 3)


@pytest.mark.parametrize("seed", [9000, 9001, 9002])
def test_contours_regenerate_from_the_shape_ply(tmp_path, seed):
    """The contour files of a held-out shape come back byte for byte when
    its stored PLY is read and sliced again: a mesh's landmarks, and with
    them its view planes, are functions of its vertices alone."""
    topo = anatomy.build_template()
    mesh = anatomy.generate_shape(topo, anatomy.sample_params(seed))
    anatomy.write_mesh_ply(tmp_path / "shape.ply", mesh)
    back = anatomy.InstanceMesh(topo, anatomy.read_mesh_ply(tmp_path / "shape.ply")[0])
    for name, m in (("generated", mesh), ("read_back", back)):
        ideal = acq.acquire(m, "test", spacing=10.0, density=4.0)
        acq.save_contours(tmp_path / f"{name}_ideal.json", ideal)
        misaligned = acq.inject_misalignment(ideal, 3.0, 77)
        acq.save_contours(tmp_path / f"{name}_misaligned.json", misaligned)
    for tag in ("ideal", "misaligned"):
        generated = (tmp_path / f"generated_{tag}.json").read_bytes()
        assert (tmp_path / f"read_back_{tag}.json").read_bytes() == generated, tag


def _b64(raw):
    return base64.b64encode(raw).decode("ascii")


def test_contour_file_rejects_corrupt_input(tmp_path, contours):
    sub = acq.select_subset(contours, "halfsax")
    path = tmp_path / "good.json"
    acq.save_contours(path, sub)
    text = path.read_text()
    doc = json.loads(text)
    first = sub.slices[0]
    n, xyz = len(first.points), first.points.astype("<f8").tobytes()
    block = doc["slices"][0]["xyz"]
    old_layout = {k: v for k, v in doc.items() if k != "format"}
    old_layout["slices"] = [
        {k: v for k, v in doc["slices"][0].items() if k not in ("n", "xyz", "labels", "kinds")}
        | {"points": [{"xyz": p, "label": lab, "kind": ("grid", "contour")[kind]}
                      for p, lab, kind in zip(first.points.tolist(), first.labels.tolist(),
                                              first.kinds.tolist())]}
    ]

    def edited(**changes):
        d = json.loads(text)
        d["slices"][0].update(changes)
        return json.dumps(d)

    def with_point(value):
        points = first.points.copy()
        points[n // 2, 1] = value
        return edited(xyz=_b64(points.astype("<f8").tobytes()))

    no_spacing = json.loads(text)
    del no_spacing["slices"][0]["spacing"]
    file_errors = {
        "truncated": (text[: len(text) // 2], "Unterminated string"),
        "old_layout": (json.dumps(old_layout), "missing key 'format'"),
        "format_2": (text.replace('"format": 3', '"format": 2'), "format 2"),
        "view_number": (edited(view=7), "slice 7: view is not a string"),
    }
    slice_errors = {
        "no_spacing": (json.dumps(no_spacing), "missing key 'spacing'"),
        "short_labels": (edited(labels=_b64(first.labels[:-1].tobytes())),
                         f"labels block holds {n - 1} bytes, not the {n} of n = {n}"),
        "short_kinds": (edited(kinds=_b64(first.kinds[:-1].tobytes())),
                        f"kinds block holds {n - 1} bytes, not the {n} of n = {n}"),
        "kind_2": (edited(kinds=_b64(np.uint8([2, *first.kinds[1:]]).tobytes())), "kinds outside"),
        "label_5": (edited(labels=_b64(np.int8([5, *first.labels[1:]]).tobytes())),
                    "labels outside"),
        "xyz_2d": (edited(xyz=_b64(first.points[:, :2].astype("<f8").tobytes())),
                   f"xyz block holds {16 * n} bytes"),
        "xyz_list": (edited(xyz=first.points.tolist()), "xyz block is not base64"),
        # urlsafe-alphabet characters, which a lenient decoder would skip
        "not_alphabet": (edited(xyz=block[:40] + "-_-_" + block[40:]), "xyz block is not base64"),
        "byte_short": (edited(xyz=_b64(xyz[:-1])), f"xyz block holds {24 * n - 1} bytes"),
        "row_short": (edited(xyz=_b64(xyz[:-24])), f"xyz block holds {24 * (n - 1)} bytes"),
        "n_off": (edited(n=n + 1),
                  f"xyz block holds {24 * n} bytes, not the {24 * (n + 1)} of n = {n + 1}"),
        "spacing_text": (edited(spacing="10"), "spacing is not a finite number: '10'"),
        "n_float": (edited(n=float(n)), f"n is not a point count: {float(n)}"),
        "nan_xyz": (with_point(np.nan), f"xyz is not {(n, 3)} finite numbers"),
        "inf_xyz": (with_point(np.inf), f"xyz is not {(n, 3)} finite numbers"),
    }
    for name, (content, reason) in (file_errors | slice_errors).items():
        corrupt = tmp_path / f"{name}.json"
        corrupt.write_text(content)
        with pytest.raises(ValueError, match=name) as err:
            acq.load_contours(corrupt)
        assert reason in str(err.value), (name, str(err.value))
        if name in slice_errors:
            assert f"slice {first.plane.view!r}: " in str(err.value), (name, str(err.value))


def test_slice_rejects_what_load_would(contours):
    """A slice checks itself when built, with the message a contour file's
    slice gets, naming its view once; so save_contours writes no slice
    that load_contours rejects."""
    good = contours.slices[1]
    n = len(good.points)
    not_finite = good.points.copy()
    not_finite[0, 2] = np.inf
    bad = {
        "not_finite": (dict(points=not_finite), "xyz is not"),
        "xyz_2d": (dict(points=good.points[:, :2]), "xyz is not"),
        "short_labels": (dict(labels=good.labels[:-1]), f"{n} xyz, {n - 1} labels and {n} kinds"),
        "short_kinds": (dict(kinds=good.kinds[:-1]), f"{n} xyz, {n} labels and {n - 1} kinds"),
        # 257 would wrap to label 1 as int8
        "label_257": (dict(labels=np.r_[257, good.labels[1:].astype(np.int64)]), "labels outside"),
        "kind_2": (dict(kinds=np.r_[np.uint8(2), good.kinds[1:]]), "kinds outside"),
        "shift_nan": (dict(shift=np.array([0.0, np.nan])), "shift is not"),
    }
    for name, (changes, reason) in bad.items():
        with pytest.raises(ValueError, match=f"^slice {good.plane.view!r}: ") as err:
            replace(good, **changes)
        assert reason in str(err.value), (name, str(err.value))
        assert str(err.value).count(good.plane.view) == 1, (name, str(err.value))
    with pytest.raises(ValueError, match="^spacing is not a finite number: inf$"):
        replace(good.plane, spacing=np.inf)


def test_planes_and_slices_are_immutable():
    """A plane and a slice own read-only copies of their arrays, so the
    checks they passed when built stay true."""
    frame = [np.zeros(3), np.array([0.0, 0, 1]), np.array([1.0, 0, 0]), np.array([0.0, 1, 0])]
    arrays = [np.zeros((2, 3)), np.zeros(2, np.int8), np.ones(2, np.uint8), np.zeros(2)]
    s = acq.Slice(acq.SlicePlane("sax00", *frame), *arrays)
    held = [s.plane.origin, s.plane.normal, s.plane.e1, s.plane.e2, s.points, s.labels, s.kinds,
            s.shift]
    for given, kept in zip(frame + arrays, held, strict=True):
        assert given.flags.writeable and not np.shares_memory(given, kept)
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 1
    with pytest.raises(FrozenInstanceError):
        s.points = np.ones((2, 3))
    with pytest.raises(FrozenInstanceError):
        s.plane.spacing = 5.0
