"""Shape family: parameter sampling, instance generation, averaging."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import template as tpl
from .frames import apply_frame, cardiac_frame
from .labeling import Labeler


@dataclass(frozen=True)
class ShapeParams:
    """Size parameters of one cohort member (all lengths in mm), checked when built."""

    lv_semi_axes: tuple = (26.0, 24.0, 52.0)  # endocardial a, b, c
    lv_wall_thickness: float = 10.0
    rv_crescent_offset: float = 20.0
    rv_wall_thickness: float = 3.0
    base_truncation_fraction: float = 0.55
    global_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "lv_semi_axes", tuple(self.lv_semi_axes))
        self.validate()

    def validate(self):
        a, b, c = self.lv_semi_axes
        for name, v in [
            ("semi-axis a", a),
            ("semi-axis b", b),
            ("semi-axis c", c),
            ("lv_wall_thickness", self.lv_wall_thickness),
            ("rv_crescent_offset", self.rv_crescent_offset),
            ("rv_wall_thickness", self.rv_wall_thickness),
            ("global_scale", self.global_scale),
        ]:
            if not v > 0:
                raise ValueError(f"{name} must be positive, got {v}")
        if not 0.2 <= self.base_truncation_fraction <= 0.8:
            raise ValueError("base_truncation_fraction outside [0.2, 0.8]")
        if self.lv_wall_thickness >= min(a, b, c):
            raise ValueError("degenerate shape: wall thickness >= LV semi-axis")
        return self


DEFAULT_RANGES = {
    "a": (23.0, 29.0),
    "b_over_a": (0.85, 1.0),
    "c": (46.0, 58.0),
    "wall": (8.0, 12.0),
    "rv_offset": (17.0, 23.0),
    "trunc": (0.5, 0.6),
    "scale": (0.9, 1.1),
}


def sample_params(seed):
    """Draw one cohort member's parameters; deterministic per seed."""
    rng = np.random.default_rng(seed)

    def u(key):
        lo, hi = DEFAULT_RANGES[key]
        return float(rng.uniform(lo, hi))

    a = u("a")
    return ShapeParams(
        lv_semi_axes=(a, a * u("b_over_a"), u("c")),
        lv_wall_thickness=u("wall"),
        rv_crescent_offset=u("rv_offset"),
        rv_wall_thickness=3.0,
        base_truncation_fraction=u("trunc"),
        global_scale=u("scale"),
    )


@dataclass(frozen=True, eq=False)
class InstanceMesh:
    """One cohort member: template-corresponding vertex positions (mm,
    cardiac coordinates); its valve/apex ``landmarks`` are those of the
    vertices. Immutable: it owns a read-only copy of its vertices, and
    other vertices make another mesh (``dataclasses.replace``)."""

    topology: tpl.TemplateTopology
    vertices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.array(self.vertices, dtype=np.float64))
        self.vertices.flags.writeable = False
        if self.vertices.shape != (self.topology.vertex_count, 3):
            raise ValueError(
                f"vertex array shape {self.vertices.shape} does not match the "
                f"template ({self.topology.vertex_count} vertices)"
            )
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError("non-finite vertex positions")

    @cached_property
    def labeler(self):
        """The mesh's :class:`Labeler`, built on first use."""
        return Labeler(self)

    @property
    def landmarks(self):
        """{"mvc", "tvc", "lva"} -> (3,) arrays, read off the vertices."""
        return tpl.landmarks_from_vertices(self.topology, self.vertices)

    def compartment(self, name):
        """(vertices, faces) of one closed compartment surface."""
        return self.vertices, self.topology.compartments[name]

    def bounds(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


def generate_shape(topology, params):
    """Evaluate one shape of the family and canonicalize it to its own
    cardiac frame (the geometry is a deterministic function of the
    parameters)."""
    pos = tpl.evaluate_positions(topology, params)
    frame = cardiac_frame(**tpl.landmarks_from_vertices(topology, pos))
    return InstanceMesh(topology, apply_frame(frame, pos))


def interior_points_batch(mesh, pair_indices, ts):
    """Points inside the wall by linear interpolation across transmural pairs.

    Each pair is an (endo, epi) template vertex pair; returns (positions,
    uvc) with position = lerp(epi, endo, t), so the transmural coordinate
    comes out as t (epi end has u2 = 0, endo end u2 = 1). Every t must lie
    strictly inside (0, 1).
    """
    topo = mesh.topology
    pairs = topo.transmural_pairs[pair_indices]
    ts = np.asarray(ts, dtype=np.float64)[:, None]
    if not np.all((ts > 0.0) & (ts < 1.0)):
        raise ValueError("t must lie strictly inside (0, 1)")
    endo_pos, epi_pos = mesh.vertices[pairs[:, 0]], mesh.vertices[pairs[:, 1]]
    endo_uvc, epi_uvc = topo.uvc[pairs[:, 0]], topo.uvc[pairs[:, 1]]
    pos = (1.0 - ts) * epi_pos + ts * endo_pos
    uvc = (1.0 - ts) * epi_uvc + ts * endo_uvc
    return pos, uvc
