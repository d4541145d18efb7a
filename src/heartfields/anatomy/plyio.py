"""ASCII PLY mesh I/O with ventricular-coordinate vertex properties,
plus the landmark sidecar JSON."""

import json

import numpy as np

from .template import SURFACE_TAGS


def write_mesh_ply(path, mesh, comment=None):
    """Write vertices (x, y, z, u1..u4, tag) and the anatomical faces."""
    topo = mesh.topology
    v, uvc, tag = mesh.vertices, topo.uvc, topo.surface_tag
    faces = topo.faces
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
        f"element face {len(faces)}",
        "property list uchar int32 vertex_indices",
        "end_header",
    ]
    rows = [
        "%.9g %.9g %.9g %.9g %.9g %.9g %.9g %d" % tuple(r)
        for r in np.column_stack([v, uvc, tag]).tolist()
    ]
    rows += ["3 %d %d %d" % tuple(f) for f in faces.tolist()]
    with open(path, "w") as f:
        f.write("\n".join(lines + rows) + "\n")


def read_mesh_ply(path):
    """Read a PLY written by :func:`write_mesh_ply`.

    Returns (vertices, uvc, tags, faces) arrays.
    """
    with open(path) as f:
        lines = f.read().splitlines()
    if lines[0] != "ply":
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
    return vdata[:, :3], vdata[:, 3:7], vdata[:, 7].astype(np.int8), fdata


def write_landmarks(path, landmarks):
    with open(path, "w") as f:
        json.dump({k: [float(x) for x in v] for k, v in landmarks.items()}, f, indent=1)
        f.write("\n")


def read_landmarks(path):
    with open(path) as f:
        raw = json.load(f)
    return {k: np.asarray(v, dtype=np.float64) for k, v in raw.items()}
