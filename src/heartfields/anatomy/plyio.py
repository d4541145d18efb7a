"""Binary little-endian PLY mesh I/O with ventricular-coordinate vertex
properties (Turk, "The PLY Polygon File Format", 1994): every value reads
back bit for bit. The reader accepts only the header the writer emits, so
ASCII PLYs of older runs are not read."""

import re

import numpy as np

from .template import SURFACE_TAGS

# one record per vertex and per face, packed as the header declares them
_VERTEX = np.dtype([("xyz", "<f8", 3), ("uvc", "<f8", 4), ("tag", "u1")])
_FACE = np.dtype([("count", "u1"), ("indices", "<i4", 3)])
_LEGEND = "tag legend: " + " ".join(f"{i}={t}" for i, t in enumerate(SURFACE_TAGS))


def _header(n_vertex, n_face, comments):
    lines = ["ply", "format binary_little_endian 1.0"]
    lines += [f"comment {c}" for c in comments]
    lines += [f"element vertex {n_vertex}"]
    lines += [f"property float64 {p}" for p in ("x", "y", "z", "u1", "u2", "u3", "u4")]
    lines += ["property uchar tag", f"element face {n_face}",
              "property list uchar int32 vertex_indices", "end_header", ""]
    return "\n".join(lines)


def write_mesh_ply(path, mesh, comment=None):
    """Write vertices (x, y, z, u1..u4, tag) and the anatomical faces.

    ``comment`` becomes one header line, so a comment holding a line break
    or non-ASCII text raises a ``ValueError`` before the file is opened.
    """
    if comment and (not comment.isascii() or "\n" in comment or "\r" in comment):
        raise ValueError(f"a PLY comment must be one line of ASCII text, not {comment!r}")
    topo = mesh.topology
    vertices = np.empty(len(mesh.vertices), _VERTEX)
    vertices["xyz"] = mesh.vertices
    vertices["uvc"] = topo.uvc
    vertices["tag"] = topo.surface_tag
    faces = np.empty(len(topo.faces), _FACE)
    faces["count"] = 3
    faces["indices"] = topo.faces
    header = _header(len(vertices), len(faces), [_LEGEND] + ([comment] if comment else []))
    with open(path, "wb") as f:
        f.write(header.encode("ascii") + vertices.tobytes() + faces.tobytes())


def read_mesh_ply(path):
    """Read a PLY written by :func:`write_mesh_ply`.

    Returns (vertices, uvc, tags, faces) arrays. A header other than the
    writer's, a body whose length is not the header's counts, a face that
    is not a triangle or a face index outside the vertices raises a
    ``ValueError`` naming ``path``.
    """
    with open(path, "rb") as f:
        data = f.read()
    head, end, body = data.partition(b"\nend_header\n")
    header = (head + end).decode("ascii", "replace")
    # a header without a count line cannot equal the writer's with count 0
    n_vertex, n_face = (int(m.group(1)) if m else 0 for m in (
        re.search(rf"^element {e} (\d+)$", header, re.M) for e in ("vertex", "face")))
    if header != _header(n_vertex, n_face, re.findall(r"^comment (.*)$", header, re.M)):
        raise ValueError(f"{path}: not a binary PLY written by write_mesh_ply "
                         "(regenerate ASCII PLYs of older runs with generate --force)")
    size = n_vertex * _VERTEX.itemsize + n_face * _FACE.itemsize
    if len(body) != size:
        raise ValueError(f"{path}: the body holds {len(body)} bytes, the header's "
                         f"{n_vertex} vertices and {n_face} faces take {size}")
    v = np.frombuffer(body, _VERTEX, n_vertex)
    f = np.frombuffer(body, _FACE, n_face, offset=n_vertex * _VERTEX.itemsize)
    if np.any(f["count"] != 3):
        raise ValueError(f"{path}: a face is not a triangle")
    if np.any((f["indices"] < 0) | (f["indices"] >= n_vertex)):
        raise ValueError(f"{path}: a face index lies outside the {n_vertex} vertices")
    return (v["xyz"].astype(np.float64), v["uvc"].astype(np.float64),
            v["tag"].astype(np.int8), f["indices"].astype(np.int64))
