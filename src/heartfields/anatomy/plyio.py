"""ASCII PLY mesh I/O with ventricular-coordinate vertex properties.

Every mesh of one template topology shares the coordinates, tags and faces
of its PLY text; only x, y, z differ. :func:`write_mesh_ply` therefore
formats the ``u1 u2 u3 u4 tag`` tail of each vertex row and the whole face
block once per topology object, on its first write, and keeps them on the
object, as :func:`~heartfields.anatomy.labeling.label_points` keeps its
labeler on a mesh; each mesh then formats only its positions. The text
assumes the topology is not mutated: a topology's ``uvc``,
``surface_tag`` and ``faces`` must not change once a mesh of it has been
written.
"""

import numpy as np

from .template import SURFACE_TAGS


def _topology_text(topo):
    """``(vertex_rows, face_rows)`` of ``topo``'s PLY body: a format string
    of one row per vertex that takes its x, y, z and holds its coordinates
    and tag, and the face rows. Built on the first call, kept on ``topo``."""
    cached = getattr(topo, "_ply_text", None)
    if cached is None:
        vertex_rows = "".join(
            "%%.9g %%.9g %%.9g %.9g %.9g %.9g %.9g %d\n" % tuple(r)
            for r in np.column_stack([topo.uvc, topo.surface_tag]).tolist()
        )
        face_rows = "".join("3 %d %d %d\n" % tuple(f) for f in topo.faces.tolist())
        cached = topo._ply_text = (vertex_rows, face_rows)
    return cached


def write_mesh_ply(path, mesh, comment=None):
    """Write vertices (x, y, z, u1..u4, tag) and the anatomical faces."""
    topo = mesh.topology
    v = np.asarray(mesh.vertices, dtype=np.float64)
    vertex_rows, face_rows = _topology_text(topo)
    lines = [
        "ply",
        "format ascii 1.0",
        f"comment tag legend: {' '.join(f'{i}={t}' for i, t in enumerate(SURFACE_TAGS))}",
    ]
    if comment:
        lines.append(f"comment {comment}")
    lines += [
        f"element vertex {len(v)}",
        "property float64 x",
        "property float64 y",
        "property float64 z",
        "property float64 u1",
        "property float64 u2",
        "property float64 u3",
        "property float64 u4",
        "property uchar tag",
        f"element face {len(topo.faces)}",
        "property list uchar int32 vertex_indices",
        "end_header",
    ]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n" + vertex_rows % tuple(v.ravel().tolist()) + face_rows)


def read_mesh_ply(path):
    """Read a PLY written by :func:`write_mesh_ply`.

    Returns (vertices, uvc, tags, faces) arrays.
    """
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "ply":
        raise ValueError(f"{path}: not a PLY file")
    n_vertex = n_face = None
    body = None
    for i, line in enumerate(lines):
        if line.startswith("element vertex"):
            n_vertex = int(line.split()[-1])
        elif line.startswith("element face"):
            n_face = int(line.split()[-1])
        elif line == "end_header":
            body = i + 1
            break
    if body is None or n_vertex is None or n_face is None:
        raise ValueError(f"{path}: malformed PLY header")
    if len(lines) < body + n_vertex + n_face:
        raise ValueError(f"{path}: {len(lines) - body} body lines, the header declares "
                         f"{n_vertex} vertices and {n_face} faces")
    try:
        vdata = np.loadtxt(lines[body : body + n_vertex], ndmin=2)
        fdata = np.loadtxt(lines[body + n_vertex : body + n_vertex + n_face],
                           dtype=np.int64, usecols=(1, 2, 3), ndmin=2)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    if vdata.shape[1] != 8:
        raise ValueError(f"{path}: vertex rows hold {vdata.shape[1]} values, not 8")
    if fdata.size and not (0 <= fdata.min() and fdata.max() < n_vertex):
        raise ValueError(f"{path}: a face index lies outside the {n_vertex} vertices")
    return vdata[:, :3], vdata[:, 3:7], vdata[:, 7].astype(np.int8), fdata

