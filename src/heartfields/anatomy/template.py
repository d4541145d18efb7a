"""Fixed-topology biventricular template.

The template is assembled from structured sheets on a shared azimuth grid:

* sheet A: LV endocardial bowl (truncated ellipsoid, apex rings, pole),
* sheet B: the LV epicardial ellipsoid bowl. Outside the RV sector (and
  above the RV apex row) it is true epicardium; inside the sector below
  the RV apex it is the septal RV endocardium, which in this family
  coincides with the LV epicardial locus,
* sheet C: RV free-wall epicardium, sheet B radially offset by the
  crescent bulge plus the RV wall thickness (both windows vanish at the
  sector tips and at the RV apex row, so C stitches onto B),
* sheet D: RV endocardial free wall (bulge only),
* basal ring bands E spanning the wall tops in the truncation plane, plus
  the mitral center vertex used as the fan apex of the flat base caps.

Per-vertex ventricular coordinates are functions of the grid alone, so
every generated shape carries the identical coordinate tuple at each
vertex index. Closed compartment surfaces (heart exterior, LV epicardial
volume, LV cavity, RV cavity) are provided as separate face arrays over
the same vertex indices for containment and volume queries.
"""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

SURFACE_TAGS = ("lv_endo", "rv_endo", "epi", "base_ring")
TAG_LV_ENDO, TAG_RV_ENDO, TAG_EPI, TAG_BASE_RING = range(4)


class AnatomicalLabel(IntEnum):
    BG = 0
    LV = 1
    RV = 2
    LVM = 3
    RVM = 4

    @staticmethod
    def one_hot(labels):
        """(n, len(AnatomicalLabel)) float one-hot rows of integer labels;
        raises ``ValueError`` for a label outside the legend."""
        n = len(AnatomicalLabel)
        labels = np.asarray(labels, dtype=np.int64).ravel()
        if labels.size and not (0 <= labels.min() and labels.max() < n):
            raise ValueError(f"labels must lie in 0-{n - 1}, got {labels.min()}..{labels.max()}")
        return np.eye(n)[labels]


def myocardium_label(u1):
    """Myocardium by transventricular ``u1`` (int8): LVM where u1 < 0.5, else RVM."""
    return np.where(u1 < 0.5, AnatomicalLabel.LVM, AnatomicalLabel.RVM).astype(np.int8)


def surface_label(tag, u1):
    """Label (int8) of surface points by their tag and ``u1``: endocardium
    takes its blood pool, any other surface :func:`myocardium_label`."""
    labels = myocardium_label(u1)
    labels[tag == TAG_LV_ENDO] = AnatomicalLabel.LV
    labels[tag == TAG_RV_ENDO] = AnatomicalLabel.RV
    return labels


# fraction of the LV endo apex height where the shared trunk rows stop and
# per-sheet apex cap rows take over
_TRUNK_TOP = 0.88
# apex cap rows of the LV endocardial and epicardial bowls (sheets A and B)
# and basal ring rows of the LV and RV wall tops, the same at every spec
N_APEX_ENDO, N_APEX_EPI, RINGS_LV, RINGS_RV = 7, 8, 3, 2


@dataclass
class TemplateSpec:
    """Resolution knobs. ``n_phi`` must be a multiple of 16 so the RV
    sector tips land exactly on grid columns."""

    n_phi: int = 32
    n_rows: int = 25
    k_rv: int = 18

    def __post_init__(self):
        if self.n_phi % 16:
            raise ValueError("n_phi must be a multiple of 16")
        if not 1 <= self.k_rv < self.n_rows:
            raise ValueError("k_rv must lie strictly inside the trunk rows")


@dataclass
class TemplateTopology:
    grid: "_Grid"  # the vertex layout the topology was built on
    uvc: np.ndarray  # (V, 4)
    surface_tag: np.ndarray  # (V,) int8 indices into SURFACE_TAGS
    faces: np.ndarray  # anatomical surface faces (no cap fans)
    face_group: np.ndarray  # per-face tag index, same legend as vertices
    compartments: dict  # name -> (F, 3) closed oriented face arrays
    transmural_pairs: np.ndarray  # (P, 2) endo/epi vertex index pairs

    @property
    def spec(self):
        return self.grid.spec

    @property
    def blocks(self):
        return self.grid.blocks

    @property
    def vertex_count(self):
        return self.uvc.shape[0]

    def vertex_labels(self):
        """Label per vertex: :func:`surface_label` of its tag and ``u1``."""
        return surface_label(self.surface_tag, self.uvc[:, 0])


def _band_faces(matrix, wrap):
    """Triangulate a (rows, cols) vertex-index matrix; consecutive rows are
    joined by quads, columns optionally wrap. Quads go row by row, each as
    the triangles (v00, v01, v11) and (v00, v11, v10). Degenerate triangles
    (repeated indices, as happens along stitched seams) are dropped."""
    m = np.asarray(matrix, dtype=np.int64)
    cols = m.shape[1]
    c = np.arange(cols if wrap else cols - 1)
    v00, v01 = m[:-1, c], m[:-1, (c + 1) % cols]
    v10, v11 = m[1:, c], m[1:, (c + 1) % cols]
    quads = np.stack([v00, v01, v11, v00, v11, v10], axis=-1)
    return _drop_degenerate(quads.reshape(-1, 3))


def _fan(ring, apex, downward=False):
    ring = np.asarray(ring, dtype=np.int64)
    a, b = ring, np.roll(ring, -1)
    if downward:
        a, b = b, a
    return _drop_degenerate(np.column_stack([a, b, np.full(len(ring), apex)]))


def _drop_degenerate(faces):
    if faces.size == 0:
        return faces.reshape(0, 3)
    ok = (
        (faces[:, 0] != faces[:, 1])
        & (faces[:, 1] != faces[:, 2])
        & (faces[:, 0] != faces[:, 2])
    )
    return faces[ok]


def _lv_rotational(phi, phi_ant, phi_post, half_width):
    """Rotational coordinate on LV surfaces: 0 at the posterior junction,
    2/3 at the anterior junction around the free wall, rising to 1 across
    the septum from anterior to posterior."""
    phi = np.asarray(phi, dtype=np.float64)
    septal = (phi > phi_ant) & (phi < phi_post)
    u = np.empty_like(phi)
    u[septal] = 2.0 / 3.0 + (phi[septal] - phi_ant) / (2.0 * half_width) / 3.0
    x = np.mod(phi[~septal] - phi_post, 2.0 * np.pi)
    u[~septal] = (2.0 / 3.0) * x / (2.0 * np.pi - 2.0 * half_width)
    return u


def _rv_rotational(phi, phi_ant, phi_post, half_width):
    """Counter-rotating free-wall coordinate on RV surfaces: 0 at the
    posterior junction, 2/3 at the anterior junction."""
    return (2.0 / 3.0) * (phi_post - np.asarray(phi)) / (2.0 * half_width)


def _ring_rotational(phi):
    return 1.0 + 0.5 * np.mod(phi, 2.0 * np.pi) / (2.0 * np.pi)


class _Grid:
    """The template's vertex layout: the shared azimuth grid, the RV
    sector, the row fractions of the RV wall and the basal rings, and the
    vertex index ``blocks`` of every sheet: {name: vertex indices} in
    storage order, sheets and rings shaped (rows, cols) and single vertices
    (1,)."""

    def __init__(self, spec):
        self.spec = spec
        nphi = spec.n_phi
        sector = 3 * nphi // 16  # tip offset in columns
        mid = nphi // 2
        self.jl, self.jh = mid - sector, mid + sector
        self.interior = np.arange(self.jl + 1, self.jh)
        self.n_int = self.interior.size
        self.phi = 2.0 * np.pi * np.arange(nphi) / nphi
        self.dphi = 2.0 * np.pi / nphi
        self.half_width = sector * self.dphi
        self.phi_ant = np.pi - self.half_width
        self.phi_post = np.pi + self.half_width
        self.in_sector = np.zeros(nphi, dtype=bool)
        self.in_sector[self.interior] = True
        self.lam = (spec.k_rv - np.arange(spec.k_rv)) / spec.k_rv  # 1 at base, 0 at RV apex row
        self.rho_lv = np.arange(1, RINGS_LV + 1) / (RINGS_LV + 1)  # endo -> epi
        self.rho_rv = np.arange(1, RINGS_RV + 1) / (RINGS_RV + 1)

        shapes = {
            "A_trunk": (spec.n_rows, nphi),
            "A_apex": (N_APEX_ENDO, nphi),
            "A_pole": (1,),
            "B_trunk": (spec.n_rows, nphi),
            "B_apex": (N_APEX_EPI, nphi),
            "B_pole": (1,),
            "C": (spec.k_rv, self.n_int),
            "D": (spec.k_rv, self.n_int),
            "E_lv": (RINGS_LV, nphi),
            "E_rv": (RINGS_RV, self.n_int),
            "M_c": (1,),
        }
        blocks, off = {}, 0
        for name, shape in shapes.items():
            n = int(np.prod(shape))
            blocks[name] = np.arange(off, off + n).reshape(shape)
            off += n
        self.blocks, self.vertex_count = blocks, off
        # the RV cavity's base rim, whose centroid stands in for the tricuspid valve
        self.rv_rim = np.concatenate([blocks["B_trunk"][0, self.jl : self.jh + 1], blocks["D"][0]])


def build_template(spec=None):
    """Construct the template topology (indices, coordinates, tags, faces,
    compartments). Geometry is evaluated separately per shape.

    Coordinates are functions of the parametric grid alone (never of shape
    size parameters), which is what makes them identical across every
    generated shape.
    """
    spec = spec or TemplateSpec()
    krv = spec.k_rv
    g = _Grid(spec)
    jl, jh, interior = g.jl, g.jh, g.interior

    blocks, nv = g.blocks, g.vertex_count
    a_trunk, a_apex, a_pole = blocks["A_trunk"], blocks["A_apex"], blocks["A_pole"]
    b_trunk, b_apex, b_pole = blocks["B_trunk"], blocks["B_apex"], blocks["B_pole"]
    c_grid, d_grid = blocks["C"], blocks["D"]
    e_lv, e_rv, m_c = blocks["E_lv"], blocks["E_rv"], blocks["M_c"]
    # sheet B's sector columns above the RV apex row are septal RV endocardium
    septal = np.zeros(b_trunk.shape, dtype=bool)
    septal[:krv] = g.in_sector

    # ---------------------------------------------------- coordinates, tags
    uvc = np.zeros((nv, 4))
    tag = np.zeros(nv, dtype=np.int8)
    u3_lv = _lv_rotational(g.phi, g.phi_ant, g.phi_post, g.half_width)

    # sheets A and B: u4 descends one ladder step per row from the base row
    # (1) to the pole (0)
    sheet_a = np.vstack([a_trunk, a_apex])
    uvc[sheet_a, 1] = 1.0
    uvc[sheet_a, 2] = u3_lv
    uvc[sheet_a, 3] = 1.0 - np.arange(len(sheet_a))[:, None] / len(sheet_a)
    tag[sheet_a] = TAG_LV_ENDO
    uvc[a_pole] = (0.0, 1.0, 0.0, 0.0)
    tag[a_pole] = TAG_LV_ENDO

    sheet_b = np.vstack([b_trunk, b_apex])
    uvc[b_trunk, 0] = septal
    uvc[b_trunk, 1] = septal
    uvc[sheet_b, 2] = u3_lv
    uvc[sheet_b, 3] = 1.0 - np.arange(len(sheet_b))[:, None] / len(sheet_b)
    tag[sheet_b] = TAG_EPI
    tag[b_trunk[septal]] = TAG_RV_ENDO
    tag[b_pole] = TAG_EPI  # the epicardial pole keeps the zero tuple

    # sheets C and D: RV free wall (rows 0..krv-1, interior columns)
    u3_rv = _rv_rotational(g.phi[interior], g.phi_ant, g.phi_post, g.half_width)
    for grid, u2, surface in ((c_grid, 0.0, TAG_EPI), (d_grid, 1.0, TAG_RV_ENDO)):
        uvc[grid, 0] = 1.0
        uvc[grid, 1] = u2
        uvc[grid, 2] = u3_rv
        uvc[grid, 3] = g.lam[:, None]
        tag[grid] = surface

    # basal ring bands
    u3_ring = _ring_rotational(g.phi)
    rho_lv, rho_rv = g.rho_lv[:, None], g.rho_rv[:, None]
    uvc[e_lv, 0] = g.in_sector & (rho_lv > 0.5)
    uvc[e_lv, 1] = 1.0 - rho_lv
    uvc[e_lv, 2] = u3_ring
    uvc[e_lv, 3] = 1.0 + 0.25 * rho_lv
    uvc[e_rv, 0] = 1.0
    uvc[e_rv, 1] = 1.0 - rho_rv
    uvc[e_rv, 2] = u3_ring[interior]
    uvc[e_rv, 3] = 1.25 + 0.25 * rho_rv
    uvc[m_c] = (0.0, 0.5, 1.0, 1.5)
    tag[e_lv] = tag[e_rv] = tag[m_c] = TAG_BASE_RING

    # ---------------------------------------------------------------- faces
    def bowl(sheet, pole):
        return np.vstack([_band_faces(sheet, wrap=True), _fan(sheet[-1], pole[0])])

    faces_a = bowl(sheet_a, a_pole)
    faces_b = bowl(sheet_b, b_pole)

    # exterior: B with the sector rows below the RV apex replaced by C
    ext = sheet_b.copy()
    ext[:krv, interior] = c_grid
    faces_ext = bowl(ext, b_pole)

    # RV free wall patches share the tip columns and the apex row with B
    def sector_matrix(core):
        rows = np.column_stack([b_trunk[:krv, jl], core, b_trunk[:krv, jh]])
        return np.vstack([rows, b_trunk[krv, jl : jh + 1]])

    c_mat = sector_matrix(c_grid)
    d_mat = sector_matrix(d_grid)
    faces_c = _band_faces(c_mat, wrap=False)
    faces_d = _band_faces(d_mat, wrap=False)

    # basal bands: endo rim -> rings -> epi rim (LV), and RV wall top, whose
    # rings run between the rim's tip vertices
    faces_e_lv = _band_faces(np.vstack([a_trunk[0], e_lv, b_trunk[0]]), wrap=True)
    tip_l, tip_r = (np.full((RINGS_RV, 1), b_trunk[0, j]) for j in (jl, jh))
    e_rv_mat = np.vstack([d_mat[0], np.hstack([tip_l, e_rv, tip_r]), c_mat[0]])
    faces_e_rv = _band_faces(e_rv_mat, wrap=False)

    faces = np.vstack([faces_a, faces_b, faces_c, faces_d, faces_e_lv, faces_e_rv])
    face_group = np.concatenate(
        [
            np.full(len(faces_a), TAG_LV_ENDO, dtype=np.int8),
            _majority_tag(faces_b, tag),
            np.full(len(faces_c), TAG_EPI, dtype=np.int8),
            np.full(len(faces_d), TAG_RV_ENDO, dtype=np.int8),
            np.full(len(faces_e_lv), TAG_BASE_RING, dtype=np.int8),
            np.full(len(faces_e_rv), TAG_BASE_RING, dtype=np.int8),
        ]
    )

    # ---------------------------------------------------------- compartments
    compartments = {
        "lv_cavity": np.vstack([faces_a, _fan(a_trunk[0], m_c[0], downward=True)]),
        "lv_epi_volume": np.vstack([faces_b, _fan(b_trunk[0], m_c[0], downward=True)]),
        "heart": np.vstack([faces_ext, _fan(ext[0], m_c[0], downward=True)]),
        "rv_cavity": np.vstack(
            [
                _band_faces(b_trunk[: krv + 1, jl : jh + 1], wrap=False)[:, ::-1],
                faces_d,
                _band_faces(np.vstack([b_trunk[0, jl : jh + 1], d_mat[0]]), wrap=False),
            ]
        ),
    }

    # ------------------------------------------------------ transmural pairs
    # LV wall only: the septum has no epicardial partner (its outer face is
    # the septal RV endocardium) and the thin RV free wall is sampled at its
    # surface vertices rather than by interpolation
    pairs = np.vstack([
        np.column_stack([a_trunk[~septal], b_trunk[~septal]]),
        [[a_pole[0], b_pole[0]]],
    ])

    topo = TemplateTopology(
        grid=g,
        uvc=uvc,
        surface_tag=tag,
        faces=faces,
        face_group=face_group,
        compartments=compartments,
        transmural_pairs=pairs,
    )
    _check_unique_uvc(topo)
    return topo


def landmarks_from_vertices(topology, positions):
    """Landmark triple read off template vertex positions: mitral center
    vertex, LV endocardial apex pole, and the RV cavity base-rim centroid
    as the tricuspid stand-in."""
    blocks = topology.blocks
    return {
        "mvc": positions[blocks["M_c"][0]].copy(),
        "tvc": positions[topology.grid.rv_rim].mean(axis=0),
        "lva": positions[blocks["A_pole"][0]].copy(),
    }


def _majority_tag(faces, tag):
    t = tag[faces]  # (F, 3)
    out = np.where(
        (t[:, 1] == t[:, 2]) & (t[:, 0] != t[:, 1]), t[:, 1], t[:, 0]
    )
    return out.astype(np.int8)


def _check_unique_uvc(topo):
    # rows equal after rounding to 12 decimals collide; adding 0.0 turns
    # -0.0 into 0.0, which compare equal
    unique = len(np.unique(np.round(topo.uvc, 12) + 0.0, axis=0))
    if unique != topo.vertex_count:
        raise AssertionError(
            f"template coordinates are not unique: {topo.vertex_count - unique} collisions"
        )


# ------------------------------------------------------------------ geometry


def _ellipsoid_sheet(pos, trunk, apex, pole, ax, by, cz, z_rows, cos_top, cosp, sinp):
    """Place one truncated-ellipsoid bowl with semi-axes ``(ax, by, cz)``:
    trunk rows at heights ``z_rows``, apex cap rows evenly spaced in polar
    angle below the one whose cosine is ``cos_top``, and the pole. Returns
    the trunk rows' cross-section scale factors."""
    s = np.sqrt(np.maximum(0.0, 1.0 - (z_rows / cz) ** 2))
    pos[trunk, 0] = np.outer(ax * s, cosp)
    pos[trunk, 1] = np.outer(by * s, sinp)
    pos[trunk, 2] = z_rows[:, None]
    n = len(apex)
    theta = np.arccos(cos_top) * ((n - np.arange(n)) / (n + 1))
    pos[apex, 0] = np.outer(ax * np.sin(theta), cosp)
    pos[apex, 1] = np.outer(by * np.sin(theta), sinp)
    pos[apex, 2] = (cz * np.cos(theta))[:, None]
    pos[pole] = (0.0, 0.0, cz)
    return s


def evaluate_positions(topo, params):
    """Vertex positions (mm) in the canonical build frame of the shape with
    the size parameters ``params`` (a :class:`~.shapes.ShapeParams`)."""
    (a, b, c), wall = params.lv_semi_axes, params.lv_wall_thickness
    g = topo.grid
    nrows, krv = g.spec.n_rows, g.spec.k_rv
    blocks = topo.blocks
    interior = g.interior

    z_base = -params.base_truncation_fraction * c
    z_top = _TRUNK_TOP * c
    t = np.arange(nrows) / (nrows - 1)
    z_rows = z_base + t * (z_top - z_base)

    pos = np.zeros((topo.vertex_count, 3))
    cosp, sinp = np.cos(g.phi), np.sin(g.phi)

    # sheets A (endocardium) and B (epicardium, wall-thickness offset)
    at, bt = blocks["A_trunk"], blocks["B_trunk"]
    _ellipsoid_sheet(
        pos, at, blocks["A_apex"], blocks["A_pole"], a, b, c, z_rows, _TRUNK_TOP, cosp, sinp
    )
    ce = c + wall
    s_b = _ellipsoid_sheet(
        pos, bt, blocks["B_apex"], blocks["B_pole"],
        a + wall, b + wall, ce, z_rows, _TRUNK_TOP * c / ce, cosp, sinp,
    )

    # RV sheets: radial offsets added to the epicardial ellipse cross-sections.
    # The cavity bulge tapers smoothly to the RV apex row; the wall keeps its
    # nominal thickness except for short stitch ramps onto sheet B (two rows
    # at the RV apex, two columns at the sector tips).
    lam = g.lam
    taper = np.sqrt(np.maximum(0.0, 1.0 - (1.0 - lam) ** 2))
    wall_ramp_z = np.clip(lam * krv / 2.0, 0.0, 1.0)
    bulge_win = np.cos(np.pi * (g.phi[interior] - np.pi) / (2.0 * g.half_width))
    wall_win = np.clip((g.half_width - np.abs(g.phi[interior] - np.pi)) / (2.0 * g.dphi), 0.0, 1.0)
    cg, dg = blocks["C"], blocks["D"]
    ax = ((a + wall) * s_b[:krv])[:, None]
    bx = ((b + wall) * s_b[:krv])[:, None]
    bulge = (params.rv_crescent_offset * taper)[:, None] * bulge_win
    outer = bulge + (params.rv_wall_thickness * wall_ramp_z)[:, None] * wall_win
    for grid, radial in ((dg, bulge), (cg, outer)):
        pos[grid, 0] = (ax + radial) * cosp[interior]
        pos[grid, 1] = (bx + radial) * sinp[interior]
        pos[grid, 2] = z_rows[:krv, None]

    # basal bands
    rho_lv, rho_rv = g.rho_lv[:, None, None], g.rho_rv[:, None, None]
    pos[blocks["E_lv"]] = (1.0 - rho_lv) * pos[at[0]] + rho_lv * pos[bt[0]]
    pos[blocks["E_rv"]] = (1.0 - rho_rv) * pos[dg[0]] + rho_rv * pos[cg[0]]
    pos[blocks["M_c"]] = (0.0, 0.0, z_base)
    return pos * params.global_scale
