"""Synthetic biventricular shape family.

A fixed-topology template (structured sheets for LV endocardium, outer
wall, RV cavity, plus a basal ring band) carries per-vertex ventricular
coordinates and surface tags; per-shape geometry is evaluated analytically
from a handful of size parameters, so every generated shape is in exact
template correspondence.
"""

from .frames import CardiacFrame, apply_frame, cardiac_frame, invert_frame
from .labeling import Labeler, label_points
from .plyio import read_mesh_ply, write_mesh_ply
from .shapes import (
    InstanceMesh,
    ShapeParams,
    generate_shape,
    sample_params,
)
from .template import (
    SURFACE_TAGS,
    AnatomicalLabel,
    TemplateSpec,
    TemplateTopology,
    build_template,
)

__all__ = [
    "AnatomicalLabel",
    "CardiacFrame",
    "InstanceMesh",
    "Labeler",
    "ShapeParams",
    "SURFACE_TAGS",
    "TemplateSpec",
    "TemplateTopology",
    "apply_frame",
    "build_template",
    "cardiac_frame",
    "generate_shape",
    "invert_frame",
    "label_points",
    "read_mesh_ply",
    "sample_params",
    "write_mesh_ply",
]
