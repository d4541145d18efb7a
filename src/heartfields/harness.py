"""Experiment harness: staged pipeline commands wired over the library.

Stages write into one output directory and record every artifact with a
content hash in ``manifest.json``, so identical configurations and seeds
reproduce identical artifact hashes end to end.

    generate     synthesize the train cohort and the paired ideal /
                 misaligned test contour sets
    train        run the joint auto-decoder loop, write the checkpoint
    reconstruct  latent optimization + mesh prediction per case/condition
    evaluate     metrics CSVs against the generating meshes
    report       human-readable markdown summary
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass, fields

import numpy as np
import scipy

from . import acquisition as acq
from . import anatomy, inference, metrics, training
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint

# every test condition: (the contour file it reads, the BCE weight of its
# latent fit, the ablation row that selects its slices or None). Consistently
# sliced contours get the heavier BCE weighting, misaligned ones equal BCE
# and Dice weights.
CONDITIONS = {
    "ideal": ("ideal", 10.0, None),
    "misaligned": ("misaligned", 1.0, None),
    **{f"ablation:{row}": ("ideal", 10.0, row) for row in acq.ABLATION_ROWS},
}


@dataclass
class ExperimentConfig(training.TrainConfig):
    """The training settings it inherits plus those of the other stages."""

    out_dir: str = "runs/default"
    # cohort
    train_shapes: int = 200
    test_shapes: int = 40
    train_seed0: int = 1000
    test_seed0: int = 9000
    # acquisition
    spacing: float = 10.0
    density: float = 2.0
    sigma: float = 3.0
    misalign_seed: int = 77
    # point budgets (reg must cover all template vertices)
    seg_points: int = 8000
    reg_points: int = 3000
    margin: float = 20.0
    checkpoint_every: int = 0  # 0: final only
    # inference
    infer_steps: int = 300
    infer_lr: float = 1e-2
    infer_points: int = 2500
    infer_budget_s: float = 30.0

    def validate(self):
        train_range = range(self.train_seed0, self.train_seed0 + self.train_shapes)
        test_range = range(self.test_seed0, self.test_seed0 + self.test_shapes)
        if set(train_range) & set(test_range):
            raise ValueError("train and test seed ranges overlap")
        training.require(self, lambda v: v >= 0, "nonnegative", "train_shapes", "test_shapes",
                         "checkpoint_every", "train_seed0", "test_seed0", "misalign_seed")
        training.require(self, lambda v: v >= 1, "at least 1", "infer_steps", "infer_points")
        training.require(self, lambda v: 0 < v < math.inf, "positive and finite", "spacing",
                         "density", "infer_lr", "infer_budget_s")
        training.require(self, lambda v: 0 <= v < math.inf, "nonnegative and finite", "margin",
                         "sigma")
        return super().validate()

    def hash(self):
        """Hash of the settings; ``out_dir`` is where a run lives, not what it is."""
        payload = json.dumps(
            {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out_dir"},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def parse_config_file(path):
    """Plain-text key=value configuration ('#' starts a comment); a key set
    twice raises ``ValueError`` naming both lines."""
    values, lines = {}, {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in lines:
                raise ValueError(f"{path}:{lineno}: key {key!r} already set on line {lines[key]}")
            values[key], lines[key] = val, lineno
    return values


def _typed(values):
    """``values`` converted to the types of the ExperimentConfig defaults;
    a ``ValueError`` names an unknown key or one whose value does not parse."""
    kinds = {f.name: type(f.default) for f in fields(ExperimentConfig)}
    out = {}
    for key, val in values.items():
        if key not in kinds:
            raise ValueError(f"unknown config key {key!r}")
        kind = kinds[key]
        try:
            out[key] = kind(val)
        except (TypeError, ValueError) as e:
            raise ValueError(f"config key {key!r}: cannot parse {val!r} as {kind.__name__}") from e
    return out


def load_config(path=None, overrides=None):
    """The config of file ``path`` (see :func:`parse_config_file`) with the
    non-``None`` ``overrides`` on top; an error in a file value names ``path``."""
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    values = parse_config_file(path) if path else {}
    try:
        values = _typed({k: v for k, v in values.items() if k not in overrides})
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    return ExperimentConfig(**values, **_typed(overrides)).validate()


# -------------------------------------------------------------------- layout
# The only code that names run artifacts. Every name is relative to the run
# directory, as the manifest records it.

MANIFEST = "manifest.json"
CHECKPOINT = "checkpoint.nihc"
TRAIN_LOG = "train_log.csv"
REPORT = "report.md"
SHAPES, SAMPLES, CONTOURS, RECON, EVAL = "shapes", "samples", "contours", "recon", "eval"
# every stage's outputs, in pipeline order: a stage reads those of the stages before it
STAGES = {"generate": (SHAPES, SAMPLES, CONTOURS), "train": (CHECKPOINT, TRAIN_LOG),
          "reconstruct": (RECON,), "evaluate": (EVAL,), "report": (REPORT,)}
PER_CASE_CSV, SUMMARY_CSV, BLAND_ALTMAN_CSV = (
    os.path.join(EVAL, f"{name}.csv") for name in ("per_case", "summary", "bland_altman")
)


def _shape_ply(sid):
    return os.path.join(SHAPES, f"{sid}.ply")


def _sample_npys(sid):
    """The (seg, reg) point-sample files of shape ``sid``."""
    return tuple(os.path.join(SAMPLES, f"{sid}_{part}.npy") for part in ("seg", "reg"))


def _contour_json(case, preset):
    return os.path.join(CONTOURS, f"{case}_{preset}.json")


# suffixes of the files of one reconstruction
RECON_PLY, RECON_LATENT, RECON_TRACE = ".ply", "_latent.npy", "_trace.csv"
RECON_LABELS, RECON_LABEL_HEADER = "_labels.u8", "_labels.json"


def _recon(condition, case="", suffix=""):
    """``recon/<condition, ":" -> "_">/<case><suffix>``, or the condition's directory."""
    return os.path.join(RECON, condition.replace(":", "_"), case + suffix)


def _write(root, rel, write, *args):
    """Write artifact ``rel`` of the run in ``root`` by ``write(path, *args)``
    to a temporary file next to it and rename that over ``rel``, so no reader
    sees a partial file. Returns ``rel`` for the manifest."""
    path = os.path.join(root, rel)
    folder, name = os.path.split(path)
    os.makedirs(folder, exist_ok=True)
    stem, ext = os.path.splitext(name)
    tmp = os.path.join(folder, f".{stem}.tmp{ext}")  # np.save needs the ".npy"
    try:
        write(tmp, *args)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return rel


def _write_text(path, text):
    with open(path, "w", newline="") as f:
        f.write(text)


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


# ------------------------------------------------------------------ manifest


class Manifest:
    def __init__(self, root):
        self.root = root
        self.doc = {"config_hash": None, "stages": {}}
        self._clock = time.perf_counter()
        path = os.path.join(root, MANIFEST)
        if os.path.exists(path):
            with open(path) as f:
                try:
                    self.doc = json.load(f)
                except ValueError as e:  # invalid JSON or text
                    raise ValueError(f"{path}: invalid JSON: {e}") from e
            if not isinstance(self.doc, dict) or not isinstance(self.doc.get("stages"), dict):
                raise ValueError(f"{path}: not a manifest: no object with a 'stages' object")
            for name, stage in self.doc["stages"].items():
                if not (isinstance(stage, dict) and isinstance(stage.get("artifacts"), dict)
                        and type(stage.get("duration_s")) in (int, float)):
                    raise ValueError(f"{path}: stage {name!r} is not a record: no object with "
                                     "an 'artifacts' object and a numeric 'duration_s'")

    def record_stage(self, name, config, artifacts, **extra):
        self.doc["stages"].pop(name, None)
        self.add_to_stage(name, config, artifacts, **extra)

    def add_to_stage(self, name, config, artifacts, **extra):
        """Add ``artifacts``, hashing only them, and the time since the last
        record (or the opening) to stage ``name``; a dict in ``extra`` updates the recorded one."""
        now = time.perf_counter()
        duration, self._clock = now - self._clock, now
        self.doc["config_hash"] = config.hash()
        stage = self.doc["stages"].setdefault(name, {"duration_s": 0.0})
        stage["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        stage["duration_s"] = round(stage["duration_s"] + duration, 3)
        hashes = {rel: file_hash(os.path.join(self.root, rel)) for rel in artifacts}
        for key, value in {"artifacts": hashes, **extra}.items():
            stage[key] = {**stage.get(key, {}), **value} if isinstance(value, dict) else value
        self.save()

    def begin(self, name):
        """Remove the records, then the files, of every stage after ``name``:
        they were made from what stage ``name`` is about to replace."""
        later = list(STAGES)[list(STAGES).index(name) + 1:]
        if any(stage in self.doc["stages"] for stage in later):
            self.doc["stages"] = {k: v for k, v in self.doc["stages"].items() if k not in later}
            self.save()
        _remove(self.root, [rel for stage in later for rel in STAGES[stage]])

    def save(self):
        text = json.dumps(self.doc, indent=1, sort_keys=True) + "\n"
        _write(self.root, MANIFEST, _write_text, text)

    def artifact_hashes(self):
        """Stage-independent content view used by the determinism checks."""
        out = {}
        for stage in self.doc["stages"].values():
            out.update(stage["artifacts"])
        return out

    def stage_artifacts(self, name):
        return self.doc["stages"].get(name, {}).get("artifacts", {})


def _compute_env(dtype):
    """The compute dtype and numerical libraries a stage's numbers rest on,
    for its manifest record."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "compute_dtype": np.dtype(dtype).name,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def file_hash(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _shape_ids(config):
    train = [f"train_{i:04d}" for i in range(config.train_shapes)]
    test = [f"test_{i:04d}" for i in range(config.test_shapes)]
    return train, test


# ------------------------------------------------------------------ generate


def _remove(root, rels):
    """Delete the files and directories ``rels`` of the run in ``root``."""
    for rel in rels:
        path = os.path.join(root, rel)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)


def cmd_generate(config, force=False):
    """Synthesize the cohorts and test contours. ``force`` starts a new run:
    once the config validates and the point budgets fit the template, it
    removes the manifest and every stage's outputs."""
    config.validate()
    root = config.out_dir
    topo = anatomy.build_template()
    v = topo.vertex_count
    if config.seg_points <= v or config.reg_points < v:
        raise ValueError(
            f"seg_points must exceed and reg_points reach the template's {v} vertices, "
            f"got {config.seg_points} and {config.reg_points}"
        )
    if force:
        _remove(root, (MANIFEST, *STAGES["generate"]))
    elif os.path.exists(os.path.join(root, MANIFEST)):
        raise FileExistsError(f"{root} already holds a run; pass --force to overwrite")
    manifest = Manifest(root)
    manifest.begin("generate")

    train_ids, test_ids = _shape_ids(config)
    artifacts = []

    def shape(sid, seed):
        mesh = anatomy.generate_shape(topo, anatomy.sample_params(seed))
        artifacts.append(
            _write(root, _shape_ply(sid), anatomy.write_mesh_ply, mesh, f"shape {sid}")
        )
        return mesh

    for i, sid in enumerate(train_ids):
        mesh = shape(sid, config.train_seed0 + i)
        sample = training.build_sample(
            mesh,
            sid,
            seg_n=config.seg_points,
            reg_n=config.reg_points,
            margin=config.margin,
            seed=config.train_seed0 + i,
        )
        seg = np.column_stack([sample.seg_xyz, sample.seg_labels.astype(np.float64)])
        reg = np.column_stack([sample.reg_uvc, sample.reg_xyz])
        for rel, data in zip(_sample_npys(sid), (seg, reg)):
            artifacts.append(_write(root, rel, np.save, data))

    for i, sid in enumerate(test_ids):
        mesh = shape(sid, config.test_seed0 + i)
        ideal = acq.acquire(mesh, sid, spacing=config.spacing, density=config.density)
        misaligned = acq.inject_misalignment(ideal, config.sigma, config.misalign_seed)
        for tag, cs in (("ideal", ideal), ("misaligned", misaligned)):
            artifacts.append(_write(root, _contour_json(sid, tag), acq.save_contours, cs))

    manifest.record_stage("generate", config, artifacts)
    return manifest


def _load_sample(root, sid, dtype):
    """Read shape ``sid``'s point samples, with coordinates cast to ``dtype``
    and no copy of the file's float64 arrays kept; raise ``ValueError``
    naming the file unless seg is (n, 4) with labels of the legend, reg is
    (m, 7), and every cast coordinate is finite."""
    paths = [os.path.join(root, rel) for rel in _sample_npys(sid)]
    seg, reg = (np.load(path) for path in paths)
    for path, arr, width in zip(paths, (seg, reg), (4, 7)):
        if arr.ndim != 2 or arr.shape[1] != width:
            raise ValueError(f"{path}: expected an (n, {width}) array, got shape {arr.shape}")
    if not np.isin(seg[:, 3], list(anatomy.AnatomicalLabel)).all():
        raise ValueError(f"{paths[0]}: labels must be integers in 0-{max(anatomy.AnatomicalLabel)}")
    # checked as cast: a finite float64 can overflow float32
    with np.errstate(over="ignore"):
        seg_xyz, reg = seg[:, :3].astype(dtype), reg.astype(dtype)
    for path, arr in zip(paths, (seg_xyz, reg)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: coordinates must be finite in {np.dtype(dtype)}")
    return training.TrainingSample(
        shape_id=sid,
        seg_xyz=seg_xyz,
        seg_labels=seg[:, 3].astype(np.int8),
        reg_uvc=reg[:, :4],
        reg_xyz=reg[:, 4:],
    )


def _read_mesh(path, topo):
    """The mesh of template ``topo`` in the PLY ``path``; a ``ValueError``
    names the file unless its faces, coordinates and tags are the template's."""
    verts, uvc, tags, faces = anatomy.read_mesh_ply(path)
    for name, ours, template in (("faces", faces, topo.faces), ("coordinates", uvc, topo.uvc),
                                 ("tags", tags, topo.surface_tag)):
        if not np.array_equal(ours, template):
            raise ValueError(f"{path}: not a mesh of the run's template: its {name} differ")
    return anatomy.InstanceMesh(topo, verts)


def load_instance_mesh(root, sid, topo=None):
    return _read_mesh(os.path.join(root, _shape_ply(sid)), topo or anatomy.build_template())


# -------------------------------------------------------------------- train


def cmd_train(config, resume=False):
    """Train the model and write its checkpoint. Once the config and any
    resume pass the checks of training and the samples load in the
    config's dtype, the old model's outputs go; a rejected run removes nothing."""
    root = config.out_dir
    manifest = Manifest(root)
    train_ids, _ = _shape_ids(config)
    prior = load_checkpoint(os.path.join(root, CHECKPOINT)) if resume else None
    training.check_train(config, len(train_ids), prior)
    samples = [_load_sample(root, sid, config.np_dtype) for sid in train_ids]
    manifest.begin("train")

    def on_epoch(state):
        # the last epoch's checkpoint is the final one, written below
        done = len(state.log)
        if config.checkpoint_every and done % config.checkpoint_every == 0 and done < config.epochs:
            _write_checkpoint(root, state)

    result = training.train(samples, config, resume=prior, on_epoch=on_epoch)
    # the checkpoint's log holds every epoch, those before a resume too
    rows = [training.LOG_COLUMNS] + [[f"{x:.8g}" for x in row] for row in result.log]
    artifacts = [_write_checkpoint(root, result),
                 _write(root, TRAIN_LOG, _write_text, _csv_text(rows))]
    manifest.record_stage("train", config, artifacts,
                          **_compute_env(result.seg_net.parameters.dtype))
    return result


def _write_checkpoint(root, result):
    """Persist a :class:`training.TrainResult` as the run's checkpoint."""
    return _write(
        root,
        CHECKPOINT,
        save_checkpoint,
        Checkpoint(
            seg_net=result.seg_net,
            reg_net=result.reg_net,
            latent_codes=result.latents.codes,
            stats=result.stats,
            opt=result.opt,
            log=result.log,
        ),
    )


def load_model(root):
    """(checkpoint, latent stats) of the run in ``root`` for reconstruction:
    the checkpoint holds the nets, latent codes and stats only; the Adam
    moments and log, which only training reads, are dropped once
    :func:`load_checkpoint` has checked them."""
    ckpt = load_checkpoint(os.path.join(root, CHECKPOINT))
    return Checkpoint(ckpt.seg_net, ckpt.reg_net, ckpt.latent_codes, ckpt.stats), ckpt.stats


# -------------------------------------------------------------- reconstruct


def _check_conditions(conditions):
    """Raise ``ValueError`` naming every known condition unless each of
    ``conditions`` is one, or naming a condition listed twice."""
    for i, condition in enumerate(conditions):
        if condition not in CONDITIONS:
            raise ValueError(
                f"unknown condition {condition!r}; known conditions: {', '.join(CONDITIONS)}"
            )
        if condition in conditions[:i]:
            raise ValueError(f"condition {condition!r} is listed twice")


def _condition_contours(root, case, condition, load=None):
    """The contour set ``case`` is fitted to under ``condition``, from the
    contour file that ``load(path)`` reads (default
    :func:`acquisition.load_contours`); an unknown condition raises
    ``ValueError`` before any file is read."""
    _check_conditions([condition])
    tag, _, row = CONDITIONS[condition]
    cs = (load or acq.load_contours)(os.path.join(root, _contour_json(case, tag)))
    return cs if row is None else acq.select_subset(cs, row)


def reconstruct_case(config, ckpt, stats, case, condition, dense_spacing=None, topo=None):
    """One case under one condition, plus a label volume at ``dense_spacing``
    mm unless it is ``None``; returns (artifacts, duration_s). A spacing that
    is not positive and finite raises ``ValueError`` before any file is read."""
    if dense_spacing is not None and not 0.0 < dense_spacing < math.inf:
        raise ValueError(f"dense_spacing must be positive and finite, got {dense_spacing}")
    root = config.out_dir
    cs = _condition_contours(root, case, condition)
    weights = inference.InferenceWeights(
        lambda_bce=CONDITIONS[condition][1],
        steps=config.infer_steps,
        max_points=config.infer_points,
        lr=config.infer_lr,
    )
    t0 = time.perf_counter()
    rec = inference.optimize_latent(
        cs,
        ckpt.seg_net,
        stats,
        weights,
        seed=acq.stable_hash(f"{case}:{condition}"),
    )
    topo = topo or anatomy.build_template()
    mesh = inference.predict_mesh(ckpt.reg_net, rec.latent, topo)
    duration = time.perf_counter() - t0

    trace = [["step", "loss"]] + [[i, f"{v:.8g}"] for i, v in enumerate(rec.loss_trace)]
    # (suffix, writer, arguments): all computed before a file is written
    files = [
        (RECON_PLY, anatomy.write_mesh_ply, mesh, f"reconstruction {case}"),
        (RECON_LATENT, np.save, rec.latent),
        (RECON_TRACE, _write_text, _csv_text(trace)),
    ]
    if dense_spacing is not None:
        lo, dims = inference.label_box(mesh.vertices, dense_spacing)
        labels = inference.predict_dense_labels(ckpt.seg_net, rec.latent, lo, dense_spacing, dims)
        files += [
            (RECON_LABELS, inference.write_label_data, labels),
            (RECON_LABEL_HEADER, inference.write_label_header, labels, lo, dense_spacing),
        ]
    rels = [_write(root, _recon(condition, case, suffix), write, *args)
            for suffix, write, *args in files]
    return rels, duration


def cmd_reconstruct(config, cases=None, conditions=None, dense_spacing=None):
    """Reconstruct every case under every condition, each case joining the
    manifest once its files are written. A missing contour file raises
    ``FileNotFoundError``, and an unknown condition or case, a checkpoint
    without latent stats or a ``dense_spacing`` :func:`reconstruct_case`
    rejects ``ValueError``, before any contour is read or file written."""
    conditions = conditions or ["ideal", "misaligned"]
    _check_conditions(conditions)
    root = config.out_dir
    manifest = Manifest(root)
    _, test_ids = _shape_ids(config)
    cases = cases or test_ids
    for i, case in enumerate(cases):
        if case not in test_ids:
            known = f"{test_ids[0]} to {test_ids[-1]}" if test_ids else "none"
            raise ValueError(f"unknown case {case!r}; known cases: {known}")
        if case in cases[:i]:
            raise ValueError(f"case {case!r} is listed twice")
    contours = {_contour_json(case, CONDITIONS[c][0]) for c in conditions for case in cases}
    missing = sorted(rel for rel in contours if not os.path.exists(os.path.join(root, rel)))
    if missing:
        raise FileNotFoundError(f"{root} lacks the contour files {', '.join(missing)}")
    ckpt, stats = load_model(root)
    if stats is None:
        raise ValueError(
            f"{os.path.join(root, CHECKPOINT)} holds no latent stats for the fit's prior: "
            "its model was trained on fewer than 2 shapes"
        )
    topo = anatomy.build_template()
    env = _compute_env(ckpt.seg_net.parameters.dtype)
    for condition in conditions:
        for case in cases:
            rels, dt = reconstruct_case(
                config, ckpt, stats, case, condition, dense_spacing, topo=topo
            )
            # after the first case's files: a failed first fit keeps the evaluation
            manifest.begin("reconstruct")
            # a re-run case replaces the entries of its earlier fit
            manifest.add_to_stage("reconstruct", config, rels,
                                  case_durations_s={f"{condition}/{case}": round(dt, 3)}, **env)


# ----------------------------------------------------------------- evaluate


# every metric of an evaluated case, in CSV order, with the header of its
# report column (None: in no report table). Distances in mm, volumes in mL,
# masses in g. VOLUMES are also taken of the generating mesh, as the extras
# "true_<name>".
VOLUMES = {"lv_vol": "LV vol (mL)", "rv_vol": "RV vol (mL)",
           "lv_mass": "LV mass (g)", "rv_mass": "RV mass (g)"}
METRICS = {
    "dice_lvm": "DICE LVM", "dice_rvm": "DICE RVM",
    "ed_mean": "ED (mm)", "rmse": "RMSE (mm)",
    "chamfer_ab": "CD asym (mm)", "chamfer_ba": None, "chamfer_sym": "CD sym (mm)",
    "p2s_mean": "contour->predicted mesh (mm)",
    **VOLUMES,
}
EXTRA_KEYS = ["p2s_ref"] + [f"true_{k}" for k in VOLUMES]


def volumes(mesh):
    """The VOLUMES of ``mesh``, by name."""

    def mass(outer, inner):
        try:
            return metrics.wall_mass(outer, inner)
        except ValueError:  # an inverted or non-nested wall has no mass
            return np.nan

    lv, rv, lvepi, heart = (metrics.enclosed_volume(*mesh.compartment(name))
                            for name in ("lv_cavity", "rv_cavity", "lv_epi_volume", "heart"))
    # the RV wall lies inside the heart, outside the LV epicardium and the RV cavity
    return dict(zip(VOLUMES, (lv, rv, mass(lvepi, lv), mass(heart - lvepi, rv)), strict=True))


class CaseReference:
    """What every condition of a case is scored against: its generating
    ``mesh``, its :func:`volumes` and each contour point's distance to it,
    kept per slice (keyed by its contour points' bytes) and taken on first
    use; also the case's contour files, each read on first use."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.volumes = volumes(mesh)
        self._distances = {}
        self._contours = {}

    def contours(self, path):
        """The contour set in the file ``path``."""
        if path not in self._contours:
            self._contours[path] = acq.load_contours(path)
        return self._contours[path]

    def p2s(self, contours):
        """Mean distance of the contour points of ``contours`` to the mesh."""
        pts = [s.points[s.kinds == acq.KIND_CONTOUR] for s in contours.slices]
        keys = [p.tobytes() for p in pts]
        new = {key: p for key, p in zip(keys, pts) if key not in self._distances}
        if new:
            d = metrics.point_to_surface(np.concatenate(list(new.values())),
                                         self.mesh.vertices, self.mesh.topology.faces)
            ends = np.cumsum([len(p) for p in new.values()])
            self._distances.update(zip(new, np.split(d, ends[:-1])))
        return float(np.concatenate([self._distances[key] for key in keys]).mean())


def case_metrics(pred, ref, contours, seg_net, latent):
    """The METRICS of the reconstruction ``pred`` of the case of the
    :class:`CaseReference` ``ref``, fitted to ``contours`` with the code
    ``latent`` of ``seg_net``, and a dict of the EXTRA_KEYS."""
    true = ref.mesh
    topo = true.topology
    # point labels predicted at the reference vertices
    pred_labels = inference.predict_labels(seg_net, latent, true.vertices)
    ref_labels = topo.vertex_labels()
    cpts, _ = contours.all_points(kind=acq.KIND_CONTOUR)
    values = (
        *(metrics.point_dice(pred_labels, ref_labels, cls)
          for cls in (anatomy.AnatomicalLabel.LVM, anatomy.AnatomicalLabel.RVM)),
        *metrics.corresponding_ed(pred.vertices, true.vertices),
        *metrics.chamfer(pred.vertices, true.vertices),
        float(metrics.point_to_surface(cpts, pred.vertices, topo.faces).mean()),
        *volumes(pred).values(),
    )
    return (dict(zip(METRICS, values, strict=True)),
            dict(zip(EXTRA_KEYS, (ref.p2s(contours), *ref.volumes.values()), strict=True)))


def evaluate_case(root, topo, ckpt, case, condition, ref=None):
    """:func:`case_metrics` of the reconstruction of ``case`` under
    ``condition`` in the run in ``root`` against ``ref`` (by default a
    :class:`CaseReference` built for it), which also reads the contour file,
    or ``None`` when the reconstruction is missing."""
    ply = os.path.join(root, _recon(condition, case, RECON_PLY))
    if not os.path.exists(ply):
        return None
    pred = _read_mesh(ply, topo)
    latent = np.load(os.path.join(root, _recon(condition, case, RECON_LATENT)))
    ref = ref or CaseReference(load_instance_mesh(root, case, topo))
    contours = _condition_contours(root, case, condition, ref.contours)
    return case_metrics(pred, ref, contours, ckpt.seg_net, latent)


def cmd_evaluate(config, conditions=None):
    """Evaluate every test case under ``conditions`` (default: those with
    reconstructions) and write the CSVs. An unknown condition, or no
    reconstruction of any case under them, raises ``ValueError`` before
    anything is written. Returns 1 if a reconstruction was missing, else 0."""
    _check_conditions(conditions or [])
    root = config.out_dir
    manifest = Manifest(root)
    topo = anatomy.build_template()
    ckpt, _ = load_model(root)
    _, test_ids = _shape_ids(config)
    conditions = conditions or _present_conditions(root)

    per_case = [["condition", "case_id", *METRICS, *EXTRA_KEYS]]
    summary = [["condition", "n", "inverted_walls"]
               + [f"{k}_{s}" for k in METRICS for s in ("mean", "sd")]]
    ba = [["condition", "quantity", "case_id", "mean", "difference"]]
    refs = {case: CaseReference(load_instance_mesh(root, case, topo)) for case in test_ids}
    missing = []
    for condition in conditions:
        scored = {}
        for case in test_ids:
            out = evaluate_case(root, topo, ckpt, case, condition, refs[case])
            if out is None:
                missing.append(f"{condition}/{case}")
            else:
                scored[case] = out
                per_case.append([condition, case] + [f"{v:.6g}" for d in out for v in d.values()])
        if not scored:
            continue
        scores, extras = zip(*scored.values())
        # a NaN among the VOLUMES is the mass of an inverted wall
        inverted = sum(np.isnan([m[k] for k in VOLUMES]).any() for m in scores)
        row = [condition, len(scores), inverted]
        for k in METRICS:
            row += [f"{v:.6g}" for v in metrics.finite_mean_sd([m[k] for m in scores])]
        summary.append(row)
        for key in VOLUMES:
            ba_rows, bias, lo, hi = metrics.bland_altman_rows(
                [e[f"true_{key}"] for e in extras], [m[key] for m in scores])
            for case, (mean, diff) in zip(scored, ba_rows):
                ba.append([condition, key, case, f"{mean:.6g}", f"{diff:.6g}"])
            ba.append([condition, key, "summary", f"{bias:.6g}", f"{lo:.6g}|{hi:.6g}"])
    if len(per_case) == 1:
        raise ValueError(f"nothing to evaluate: {root} holds no reconstruction under "
                         f"{', '.join(conditions) or 'any condition'}; run reconstruct first")

    manifest.begin("evaluate")
    artifacts = [
        _write(root, rel, _write_text, _csv_text(table))
        for rel, table in ((PER_CASE_CSV, per_case), (SUMMARY_CSV, summary), (BLAND_ALTMAN_CSV, ba))
    ]
    manifest.record_stage("evaluate", config, artifacts)
    if missing:
        print(f"evaluate: skipped {len(missing)} missing reconstructions:", file=sys.stderr)
        for m in missing:
            print(f"  {m}", file=sys.stderr)
        return 1
    return 0


def _present_conditions(root):
    return [c for c in CONDITIONS if os.path.isdir(os.path.join(root, _recon(c)))]


# ------------------------------------------------------------------- report

# the report's tables: (title, the first column, summary columns). The first
# column names a row by its "condition" or by the ablation row of its
# condition ("slices"; conditions without one are left out). A METRICS column
# shows mean ± SD under its report header, any other the summary value.
_SHAPE_COLUMNS = ("dice_lvm", "dice_rvm", "ed_mean", "rmse")
REPORT_TABLES = (
    ("Surface agreement with slice contours (experiment 1 analog)", "condition",
     ("n", "p2s_mean")),
    ("Agreement with the generating meshes (experiment 2 analog)", "condition",
     ("n", *_SHAPE_COLUMNS, "chamfer_sym", "chamfer_ab")),
    ("Slice-subset ablation (experiment 3 analog)", "slices", ("n", *_SHAPE_COLUMNS)),
    ("Volumes and masses", "condition", (*VOLUMES, "inverted_walls")),
)


def _report_table(title, first, columns, summary):
    """The markdown lines of one REPORT_TABLES entry over the summary rows."""

    def cell(row, k):
        if k not in METRICS:
            return row[k]
        return f"{float(row[k + '_mean']):.2f} ± {float(row[k + '_sd']):.2f}"

    lines = [
        "", f"## {title}", "",
        "| " + " | ".join([first] + [METRICS.get(k, k.replace("_", " ")) for k in columns]) + " |",
        "|---" * (len(columns) + 1) + "|",
    ]
    for row in summary:
        name = row["condition"] if first == "condition" else CONDITIONS[row["condition"]][2]
        if name:
            lines.append("| " + " | ".join([name] + [cell(row, k) for k in columns]) + " |")
    return lines


def cmd_report(config):
    root = config.out_dir
    summary_path = os.path.join(root, SUMMARY_CSV)
    lines = ["# Reconstruction run summary"]
    if not os.path.exists(summary_path):
        lines += ["", "No results found (run evaluate first)."]
        _write(root, REPORT, _write_text, "\n".join(lines) + "\n")
        return 0

    with open(summary_path, newline="") as f:
        summary = list(csv.DictReader(f))
    for table in REPORT_TABLES:
        lines += _report_table(*table, summary)

    stages = Manifest(root).doc["stages"]
    durations = stages.get("reconstruct", {}).get("case_durations_s", {})
    if durations:
        vals = np.array(list(durations.values()))
        lines += [
            "",
            "## Timing",
            "",
            f"Reconstruction: {vals.mean():.2f} s/case (min {vals.min():.2f}, "
            f"max {vals.max():.2f}, n={len(vals)}).",
        ]
    lines += [f"Stage {s}: {stages[s]['duration_s']} s." for s in STAGES if s in stages]

    _write(root, REPORT, _write_text, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------- CLI


def main(argv=None):
    parser = argparse.ArgumentParser(prog="heartfields", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--out", help="output directory (overrides config)")

    p_gen = sub.add_parser("generate", help="synthesize cohorts and contours")
    add_common(p_gen)
    p_gen.add_argument("--force", action="store_true")

    p_train = sub.add_parser("train", help="train the joint model")
    add_common(p_train)
    p_train.add_argument("--resume", action="store_true")

    p_rec = sub.add_parser("reconstruct", help="latent optimization + mesh prediction")
    add_common(p_rec)
    p_rec.add_argument("--case", action="append", help="case id (repeatable; default all)")
    p_rec.add_argument(
        "--condition", action="append", choices=CONDITIONS,
        help="condition (repeatable; default ideal+misaligned)",
    )
    p_rec.add_argument("--dense-spacing", type=float,
                       help="also export a label volume at this positive spacing (mm)")

    p_eval = sub.add_parser("evaluate", help="metrics against generating meshes")
    add_common(p_eval)
    p_eval.add_argument("--condition", action="append", choices=CONDITIONS)

    p_rep = sub.add_parser("report", help="markdown summary")
    add_common(p_rep)

    args = parser.parse_args(argv)
    config = load_config(args.config, {"out_dir": args.out})

    if args.command == "generate":
        cmd_generate(config, force=args.force)
        return 0
    if args.command == "train":
        cmd_train(config, resume=args.resume)
        return 0
    if args.command == "reconstruct":
        cmd_reconstruct(config, cases=args.case, conditions=args.condition,
                        dense_spacing=args.dense_spacing)
        return 0
    if args.command == "evaluate":
        return cmd_evaluate(config, conditions=args.condition)
    if args.command == "report":
        return cmd_report(config)
    return 2


if __name__ == "__main__":
    sys.exit(main())
