"""Tour of the synthetic biventricular shape family.

Builds the fixed template, generates a few cohort members, and checks the
properties everything downstream relies on: coordinate ranges, surface
values, template correspondence, and compartment volumes.
"""

import json
import os

import numpy as np

from heartfields import anatomy, metrics

topo = anatomy.build_template()
print(f"template: {topo.vertex_count} vertices, {len(topo.faces)} faces")
print(f"surface tags: { {t: int(np.sum(topo.surface_tag == i)) for i, t in enumerate(anatomy.SURFACE_TAGS)} }")

# coordinate conventions: u1 picks the ventricle, u2 runs from the
# epicardium (0) to the endocardium (1), u3 rotates around the ventricles
# (junctions at 0 and 2/3, septum up to 1), u4 runs apex (0) to base (1);
# the basal ring band uses the extended 1..1.5 range of u3/u4
u1, u2, u3, u4 = topo.uvc.T
print(f"u1 values: {sorted(set(u1))}")
print(f"u2 range: [{u2.min():.2f}, {u2.max():.2f}]")
print(f"u3 range: [{u3.min():.2f}, {u3.max():.2f}]   u4 range: [{u4.min():.2f}, {u4.max():.2f}]")

# three cohort members from different seeds
for seed in (0, 1, 2):
    params = anatomy.sample_params(seed)
    mesh = anatomy.generate_shape(topo, params)
    long_axis = np.linalg.norm(mesh.landmarks["lva"] - mesh.landmarks["mvc"])
    lv = metrics.enclosed_volume(*mesh.compartment("lv_cavity"))
    rv = metrics.enclosed_volume(*mesh.compartment("rv_cavity"))
    print(
        f"seed {seed}: long axis {long_axis:.1f} mm, "
        f"LV {lv:.0f} mL, RV {rv:.0f} mL, wall {params.lv_wall_thickness:.1f} mm"
    )

# correspondence: every shape carries the same coordinates at each vertex,
# only the positions differ
m1 = anatomy.generate_shape(topo, anatomy.sample_params(10))
m2 = anatomy.generate_shape(topo, anatomy.sample_params(11))
assert m1.topology.uvc is m2.topology.uvc
moved = np.linalg.norm(m1.vertices - m2.vertices, axis=1)
print(f"vertex displacement between two shapes: mean {moved.mean():.1f} mm")

# labels: sample points around one shape and count the five classes
mesh = anatomy.generate_shape(topo, anatomy.ShapeParams())
rng = np.random.default_rng(0)
lo, hi = mesh.bounds()
pts = rng.uniform(lo - 10, hi + 10, size=(4000, 3))
labels = anatomy.label_points(pts, mesh)
names = [l.name for l in anatomy.AnatomicalLabel]
print("label census:", dict(zip(names, np.bincount(labels, minlength=len(anatomy.AnatomicalLabel)).tolist())))

anatomy.write_mesh_ply("demo_shape.ply", mesh, comment="demo cohort member")
back = anatomy.read_mesh_ply("demo_shape.ply")
kept = (mesh.vertices, topo.uvc, topo.surface_tag, topo.faces)
for name, a, b in zip(("vertices", "uvc", "tags", "faces"), back, kept, strict=True):
    assert np.array_equal(a, b), name
with open("demo_shape_landmarks.json", "w") as f:
    json.dump({k: v.tolist() for k, v in mesh.landmarks.items()}, f, indent=1)
    f.write("\n")
size_kb = os.path.getsize("demo_shape.ply") / 1e3
print(f"wrote demo_shape.ply ({size_kb:.0f} kB, read back exactly) / demo_shape_landmarks.json")
