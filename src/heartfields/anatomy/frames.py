"""Cardiac coordinate frame from valve/apex landmarks.

The frame is built from three landmarks: the mitral valve centroid (MVC),
the tricuspid valve centroid (TVC), and the LV endocardial apex (LVA).
Its origin is the MVC-LVA midpoint, Z points from the origin toward the
apex, Y is the component of the origin-to-TVC direction orthogonal to Z,
and X completes the right-handed triad as Y x Z.
"""

from dataclasses import dataclass

import numpy as np


class DegenerateFrameError(ValueError):
    pass


@dataclass
class CardiacFrame:
    rotation: np.ndarray  # (3, 3), columns are the X/Y/Z axes
    origin: np.ndarray  # (3,)

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.origin = np.asarray(self.origin, dtype=np.float64)
        r = self.rotation
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-10):
            raise DegenerateFrameError("rotation is not orthonormal")
        if np.linalg.det(r) < 0:
            raise DegenerateFrameError("rotation is left-handed")


def cardiac_frame(mvc, tvc, lva):
    """Construct the cardiac frame from the three landmarks."""
    mvc = np.asarray(mvc, dtype=np.float64)
    tvc = np.asarray(tvc, dtype=np.float64)
    lva = np.asarray(lva, dtype=np.float64)
    origin = (mvc + lva) / 2.0
    za = lva - origin
    nz = np.linalg.norm(za)
    if nz < 1e-12:
        raise DegenerateFrameError("MVC and LVA coincide")
    za = za / nz
    ya = tvc - origin
    ya = ya - (ya @ za) * za
    ny = np.linalg.norm(ya)
    if ny < 1e-12:
        raise DegenerateFrameError("TVC is collinear with the MVC-LVA axis")
    ya = ya / ny
    xa = np.cross(ya, za)
    return CardiacFrame(np.column_stack([xa, ya, za]), origin)


def apply_frame(frame, points):
    """World points -> cardiac coordinates, p' = R^T (p - O)."""
    p = np.asarray(points, dtype=np.float64)
    return (p - frame.origin) @ frame.rotation


def invert_frame(frame, points):
    """Cardiac coordinates back to world points."""
    p = np.asarray(points, dtype=np.float64)
    return p @ frame.rotation.T + frame.origin
