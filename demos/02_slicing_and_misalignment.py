"""Sparse slice acquisition and breath-hold style misalignment.

Slices one shape into the standard short-axis stack plus three long-axis
views, then injects per-slice in-plane shifts to create the misaligned
twin used for the robustness experiments.
"""

import os

import numpy as np

from heartfields import acquisition as acq
from heartfields import anatomy

topo = anatomy.build_template()
mesh = anatomy.generate_shape(topo, anatomy.ShapeParams())

planes = acq.standard_views(mesh)
print(f"{len(planes)} planes: " + ", ".join(p.view for p in planes))

contours = acq.acquire(mesh, "demo", density=2.0)
for s in contours.slices[:4] + contours.slices[-3:]:
    n_grid = int(np.sum(s.kinds == acq.KIND_GRID))
    n_contour = int(np.sum(s.kinds == acq.KIND_CONTOUR))
    classes = np.unique(s.labels)
    print(f"{s.plane.view}: {n_grid} grid points, {n_contour} contour points, labels {classes}")

# a misaligned twin: same labels per index, rigid in-plane shifts per slice
shifted = acq.inject_misalignment(contours, sigma=3.0, seed=5)
mags = [float(np.linalg.norm(s.shift)) for s in shifted.slices]
print(f"injected shifts: mean {np.mean(mags):.2f} mm, max {np.max(mags):.2f} mm")
# each slice records its shift, so subtracting it restores the ideal points
err = max(
    np.abs(a.points - (a.shift[0] * a.plane.e1 + a.shift[1] * a.plane.e2) - b.points).max()
    for a, b in zip(shifted.slices, contours.slices)
)
print(f"shift removal round-trip error: {err:.2e} mm")

# ablation subsets of the slice set (the rows of the slice-sparsity study)
for row in acq.ABLATION_ROWS:
    sub = acq.select_subset(contours, row)
    print(f"row {row:>16}: {len(sub.slices)} slices")

acq.save_contours("demo_contours.json", shifted)
back = acq.load_contours("demo_contours.json")
for a, b in zip(back.slices, shifted.slices, strict=True):
    for k in ("points", "labels", "kinds"):
        assert np.array_equal(getattr(a, k), getattr(b, k)), (a.plane.view, k)
size_mb = os.path.getsize("demo_contours.json") / 1e6
print(f"wrote and read back demo_contours.json: {size_mb:.2f} MB, arrays exact")
