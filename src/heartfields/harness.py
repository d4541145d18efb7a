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
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import acquisition as acq
from . import anatomy, inference, metrics, netcore, training
from .anatomy.shapes import landmarks_from_vertices
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint

CONDITIONS = ["ideal", "misaligned"] + [f"ablation:{r.name}" for r in acq.ABLATION_ROWS]


@dataclass
class ExperimentConfig:
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
    # training
    epochs: int = 400
    latent_dim: int = 64
    hidden_dim: int = 128
    num_blocks: int = 8
    lr_net: float = 1e-4
    lr_latent: float = 1e-3
    seg_batch: int = 1536
    reg_batch: int = 384
    val_fraction: float = 0.2
    train_seed: int = 7
    dtype: str = "float32"
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
        return self

    def hash(self):
        payload = json.dumps(
            {f.name: getattr(self, f.name) for f in fields(self)}, sort_keys=True
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def parse_config_file(path):
    """Plain-text key=value configuration ('#' starts a comment)."""
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key] = val
    return values


def config_from(values):
    cfg = ExperimentConfig()
    valid = {f.name: f.type for f in fields(ExperimentConfig)}
    for key, val in values.items():
        if key not in valid:
            raise ValueError(f"unknown config key {key!r}")
        current = getattr(cfg, key)
        if isinstance(current, bool):
            parsed = str(val).lower() in ("1", "true", "yes")
        elif isinstance(current, int):
            parsed = int(val)
        elif isinstance(current, float):
            parsed = float(val)
        else:
            parsed = str(val)
        setattr(cfg, key, parsed)
    return cfg.validate()


def load_config(path=None, overrides=None):
    values = parse_config_file(path) if path else {}
    values.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return config_from(values)


# ------------------------------------------------------------------ manifest


class Manifest:
    def __init__(self, root):
        self.root = root
        self.path = os.path.join(root, "manifest.json")
        self.doc = {"config_hash": None, "stages": {}}
        if os.path.exists(self.path):
            with open(self.path) as f:
                self.doc = json.load(f)

    def record_stage(self, name, config, artifacts, duration, **extra):
        self.doc["config_hash"] = config.hash()
        self.doc["stages"][name] = {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "duration_s": round(duration, 3),
            "artifacts": {rel: file_hash(os.path.join(self.root, rel)) for rel in sorted(artifacts)},
            **extra,
        }
        with open(self.path, "w") as f:
            json.dump(self.doc, f, indent=1, sort_keys=True)
            f.write("\n")

    def artifact_hashes(self):
        """Stage-independent content view used by the determinism checks."""
        out = {}
        for stage in self.doc["stages"].values():
            out.update(stage["artifacts"])
        return out

    def stage_artifacts(self, name):
        return self.doc["stages"].get(name, {}).get("artifacts", {})


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


def _paths(root):
    return {
        "shapes": os.path.join(root, "shapes"),
        "samples": os.path.join(root, "samples"),
        "contours": os.path.join(root, "contours"),
        "recon": os.path.join(root, "recon"),
        "eval": os.path.join(root, "eval"),
    }


# ------------------------------------------------------------------ generate


def cmd_generate(config, force=False):
    root = config.out_dir
    if os.path.exists(os.path.join(root, "manifest.json")) and not force:
        raise FileExistsError(f"{root} already holds a run; pass --force to overwrite")
    started = time.perf_counter()
    dirs = _paths(root)
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)

    topo = anatomy.build_template()
    train_ids, test_ids = _shape_ids(config)
    artifacts = []

    for i, sid in enumerate(train_ids):
        params = anatomy.sample_params(config.train_seed0 + i)
        mesh = anatomy.generate_shape(topo, params)
        artifacts += _write_shape(dirs["shapes"], root, sid, mesh)
        sample = training.build_sample(
            mesh,
            sid,
            seg_n=config.seg_points,
            reg_n=config.reg_points,
            margin=config.margin,
            seed=config.train_seed0 + i,
        )
        artifacts += _write_sample(dirs["samples"], root, sid, sample)

    spec = acq.MisalignmentSpec(sigma=config.sigma, seed=config.misalign_seed)
    for i, sid in enumerate(test_ids):
        params = anatomy.sample_params(config.test_seed0 + i)
        mesh = anatomy.generate_shape(topo, params)
        artifacts += _write_shape(dirs["shapes"], root, sid, mesh)
        ideal = acq.acquire(mesh, sid, spacing=config.spacing, density=config.density)
        misaligned = acq.inject_misalignment(ideal, spec)
        for tag, cs in (("ideal", ideal), ("misaligned", misaligned)):
            rel = os.path.join("contours", f"{sid}_{tag}.json")
            acq.save_contours(os.path.join(root, rel), cs)
            artifacts.append(rel)

    manifest = Manifest(root)
    manifest.record_stage("generate", config, artifacts, time.perf_counter() - started)
    return manifest


def _write_shape(shape_dir, root, sid, mesh):
    ply_rel = os.path.join("shapes", f"{sid}.ply")
    lm_rel = os.path.join("shapes", f"{sid}_landmarks.json")
    anatomy.write_mesh_ply(os.path.join(root, ply_rel), mesh, comment=f"shape {sid}")
    anatomy.write_landmarks(os.path.join(root, lm_rel), mesh.landmarks)
    return [ply_rel, lm_rel]


def _write_sample(sample_dir, root, sid, sample):
    seg_rel = os.path.join("samples", f"{sid}_seg.npy")
    reg_rel = os.path.join("samples", f"{sid}_reg.npy")
    seg = np.column_stack([sample.seg_xyz, sample.seg_labels.astype(np.float64)])
    reg = np.column_stack([sample.reg_uvc, sample.reg_xyz])
    np.save(os.path.join(root, seg_rel), seg)
    np.save(os.path.join(root, reg_rel), reg)
    return [seg_rel, reg_rel]


def _load_sample(root, sid):
    seg = np.load(os.path.join(root, "samples", f"{sid}_seg.npy"))
    reg = np.load(os.path.join(root, "samples", f"{sid}_reg.npy"))
    return training.TrainingSample(
        shape_id=sid,
        seg_xyz=seg[:, :3],
        seg_labels=seg[:, 3].astype(np.int8),
        reg_uvc=reg[:, :4],
        reg_xyz=reg[:, 4:],
    )


def load_instance_mesh(root, sid, topo=None):
    topo = topo or anatomy.build_template()
    verts, _, _, _ = anatomy.read_mesh_ply(os.path.join(root, "shapes", f"{sid}.ply"))
    landmarks = anatomy.read_landmarks(
        os.path.join(root, "shapes", f"{sid}_landmarks.json")
    )
    return anatomy.InstanceMesh(topo, verts, landmarks)


# -------------------------------------------------------------------- train


def cmd_train(config, resume=False):
    root = config.out_dir
    started = time.perf_counter()
    train_ids, _ = _shape_ids(config)
    samples = [_load_sample(root, sid) for sid in train_ids]

    tc = training.TrainConfig(
        epochs=config.epochs,
        latent_dim=config.latent_dim,
        hidden_dim=config.hidden_dim,
        num_blocks=config.num_blocks,
        lr_net=config.lr_net,
        lr_latent=config.lr_latent,
        seg_batch=config.seg_batch,
        reg_batch=config.reg_batch,
        val_fraction=config.val_fraction,
        seed=config.train_seed,
        dtype=config.dtype,
    )
    ckpt_path = os.path.join(root, "checkpoint.nihc")
    prior = load_checkpoint(ckpt_path) if resume else None
    if resume:
        tc = replace(tc, epochs=max(config.epochs - prior.epoch, 0))

    def on_epoch(state):
        if config.checkpoint_every and state.epoch % config.checkpoint_every == 0:
            _write_checkpoint(ckpt_path, state)

    result = training.train(samples, tc, resume=prior, on_epoch=on_epoch)
    _write_checkpoint(ckpt_path, result)

    log_rel = "train_log.csv"
    mode = "a" if resume and os.path.exists(os.path.join(root, log_rel)) else "w"
    with open(os.path.join(root, log_rel), mode, newline="") as f:
        w = csv.writer(f)
        if mode == "w":
            w.writerow(["epoch", "seg_loss", "reg_loss", "prior_loss", "total", "val_total"])
        for row in result.log:
            w.writerow([row[0]] + [f"{x:.8g}" for x in row[1:]])

    manifest = Manifest(root)
    manifest.record_stage(
        "train", config, ["checkpoint.nihc", log_rel], time.perf_counter() - started
    )
    return result


def _write_checkpoint(path, result):
    """Persist a :class:`training.TrainResult` as the run's checkpoint."""
    save_checkpoint(
        path,
        Checkpoint(
            seg_net=result.seg_net,
            reg_net=result.reg_net,
            latent_codes=result.latents.codes,
            stats=result.stats,
            opt=result.opt,
            epoch=result.epoch,
        ),
    )


def load_model(root):
    ckpt = load_checkpoint(os.path.join(root, "checkpoint.nihc"))
    return ckpt, ckpt.stats


# -------------------------------------------------------------- reconstruct


def _condition_contours(root, case, condition):
    if condition == "ideal" or condition.startswith("ablation:"):
        cs = acq.load_contours(os.path.join(root, "contours", f"{case}_ideal.json"))
    elif condition == "misaligned":
        cs = acq.load_contours(os.path.join(root, "contours", f"{case}_misaligned.json"))
    else:
        raise ValueError(f"unknown condition {condition!r}")
    if condition.startswith("ablation:"):
        name = condition.split(":", 1)[1]
        row = next(r for r in acq.ABLATION_ROWS if r.name == name)
        cs = acq.select_subset(cs, row)
    return cs


def _condition_preset(condition):
    return "misaligned" if condition == "misaligned" else "ideal"


def reconstruct_case(config, ckpt, stats, case, condition, dense_spacing=None, topo=None):
    """One case under one condition; returns (artifacts, duration_s)."""
    root = config.out_dir
    cs = _condition_contours(root, case, condition)
    weights = inference.weights_for(
        _condition_preset(condition),
        steps=config.infer_steps,
        lr=config.infer_lr,
        max_points=config.infer_points,
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

    cond_dir = condition.replace(":", "_")
    out_dir = os.path.join(root, "recon", cond_dir)
    os.makedirs(out_dir, exist_ok=True)
    rels = []
    ply_rel = os.path.join("recon", cond_dir, f"{case}.ply")
    anatomy.write_mesh_ply(os.path.join(root, ply_rel), mesh, comment=f"reconstruction {case}")
    rels.append(ply_rel)
    lat_rel = os.path.join("recon", cond_dir, f"{case}_latent.npy")
    np.save(os.path.join(root, lat_rel), rec.latent)
    rels.append(lat_rel)
    trace_rel = os.path.join("recon", cond_dir, f"{case}_trace.csv")
    with open(os.path.join(root, trace_rel), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "loss"])
        for i, v in enumerate(rec.loss_trace):
            w.writerow([i, f"{v:.8g}"])
    rels.append(trace_rel)
    if dense_spacing:
        lo = mesh.vertices.min(axis=0) - 10.0
        hi = mesh.vertices.max(axis=0) + 10.0
        dims = np.maximum(((hi - lo) / dense_spacing).astype(int) + 1, 1)
        labels = inference.predict_dense_labels(ckpt.seg_net, rec.latent, lo, dense_spacing, dims)
        base = os.path.join(root, "recon", cond_dir, f"{case}_labels")
        inference.save_label_volume(base, labels, lo, dense_spacing)
        rels += [
            os.path.join("recon", cond_dir, f"{case}_labels.u8"),
            os.path.join("recon", cond_dir, f"{case}_labels.json"),
        ]
    return rels, duration


def cmd_reconstruct(config, cases=None, conditions=None, dense_spacing=None):
    root = config.out_dir
    started = time.perf_counter()
    _, test_ids = _shape_ids(config)
    cases = cases or test_ids
    conditions = conditions or ["ideal", "misaligned"]
    ckpt, stats = load_model(root)
    topo = anatomy.build_template()
    artifacts, durations = [], {}
    for condition in conditions:
        for case in cases:
            rels, dt = reconstruct_case(
                config, ckpt, stats, case, condition, dense_spacing, topo=topo
            )
            artifacts += rels
            durations[f"{condition}/{case}"] = round(dt, 3)
    manifest = Manifest(root)
    manifest.record_stage(
        "reconstruct", config, artifacts, time.perf_counter() - started,
        case_durations_s=durations,
    )
    return durations


# ----------------------------------------------------------------- evaluate


def evaluate_case(root, topo, ckpt, case, condition):
    """Metrics for one reconstructed case against its generating mesh."""
    cond_dir = condition.replace(":", "_")
    ply = os.path.join(root, "recon", cond_dir, f"{case}.ply")
    if not os.path.exists(ply):
        return None
    pred_verts, _, _, _ = anatomy.read_mesh_ply(ply)
    pred = anatomy.InstanceMesh(topo, pred_verts, landmarks_from_vertices(topo, pred_verts))
    true = load_instance_mesh(root, case, topo)
    latent = np.load(os.path.join(root, "recon", cond_dir, f"{case}_latent.npy"))

    # point labels predicted at the reference vertices
    x = training.seg_inputs(
        true.vertices.astype(ckpt.seg_net.parameters.dtype),
        latent.astype(ckpt.seg_net.parameters.dtype),
    )
    pred_labels = np.argmax(netcore.forward(ckpt.seg_net, x), axis=1)
    ref_labels = topo.vertex_labels()

    ed, rmse = metrics.corresponding_ed(pred.vertices, true.vertices)
    cd_ab, cd_ba, cd_sym = metrics.chamfer(pred.vertices, true.vertices)
    contours = _condition_contours(root, case, condition)
    cpts, _ = contours.all_points(kind=acq.KIND_CONTOUR)
    p2s_pred = metrics.point_to_surface(cpts, pred.vertices, topo.faces)
    p2s_ref = metrics.point_to_surface(cpts, true.vertices, topo.faces)

    def mass(outer, inner):
        try:
            return metrics.wall_mass(outer, inner)
        except ValueError:  # an inverted or non-nested wall has no mass
            return np.nan

    def vols(mesh):
        lv = metrics.enclosed_volume(*mesh.compartment("lv_cavity"))
        rv = metrics.enclosed_volume(*mesh.compartment("rv_cavity"))
        lvepi = metrics.enclosed_volume(*mesh.compartment("lv_epi_volume"))
        heart = metrics.enclosed_volume(*mesh.compartment("heart"))
        # the RV wall lies inside the heart, outside the LV epicardium and the RV cavity
        return lv, rv, mass(lvepi, lv), mass(heart - lvepi, rv)

    lv, rv, lv_mass, rv_mass = vols(pred)
    true_lv, true_rv, true_lvm, true_rvm = vols(true)

    report = metrics.MetricsReport(
        case_id=case,
        dice_lvm=metrics.point_dice(pred_labels, ref_labels, 3),
        dice_rvm=metrics.point_dice(pred_labels, ref_labels, 4),
        ed_mean=ed,
        rmse=rmse,
        chamfer_ab=cd_ab,
        chamfer_ba=cd_ba,
        chamfer_sym=cd_sym,
        p2s_mean=p2s_pred,
        lv_vol=lv,
        rv_vol=rv,
        lv_mass=lv_mass,
        rv_mass=rv_mass,
    )
    extras = {
        "p2s_ref": p2s_ref,
        "true_lv_vol": true_lv,
        "true_rv_vol": true_rv,
        "true_lv_mass": true_lvm,
        "true_rv_mass": true_rvm,
    }
    return report, extras


def cmd_evaluate(config, conditions=None):
    root = config.out_dir
    started = time.perf_counter()
    topo = anatomy.build_template()
    ckpt, _ = load_model(root)
    _, test_ids = _shape_ids(config)
    conditions = conditions or _present_conditions(root)

    rows, missing = [], []
    for condition in conditions:
        for case in test_ids:
            out = evaluate_case(root, topo, ckpt, case, condition)
            if out is None:
                missing.append(f"{condition}/{case}")
                continue
            report, extras = out
            rows.append((condition, report, extras))

    eval_dir = os.path.join(root, "eval")
    os.makedirs(eval_dir, exist_ok=True)
    per_case_rel = os.path.join("eval", "per_case.csv")
    with open(os.path.join(root, per_case_rel), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(
            ["condition", "case_id"]
            + metrics.MetricsReport.FIELDS
            + ["p2s_ref", "true_lv_vol", "true_rv_vol", "true_lv_mass", "true_rv_mass"]
        )
        for condition, report, extras in rows:
            w.writerow(
                [condition, report.case_id]
                + [f"{getattr(report, k):.6g}" for k in metrics.MetricsReport.FIELDS]
                + [f"{extras[k]:.6g}" for k in
                   ("p2s_ref", "true_lv_vol", "true_rv_vol", "true_lv_mass", "true_rv_mass")]
            )

    summary_rel = os.path.join("eval", "summary.csv")
    with open(os.path.join(root, summary_rel), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["condition", "n", "inverted_walls"]
                   + [f"{k}_{s}" for k in metrics.MetricsReport.FIELDS for s in ("mean", "sd")])
        for condition in conditions:
            sel = [r for c, r, _ in rows if c == condition]
            if not sel:
                continue
            inverted = sum(np.isnan(r.lv_mass) or np.isnan(r.rv_mass) for r in sel)
            out = [condition, len(sel), inverted]
            for k in metrics.MetricsReport.FIELDS:
                mean, sd = metrics.finite_mean_sd([getattr(r, k) for r in sel])
                out += [f"{mean:.6g}", f"{sd:.6g}"]
            w.writerow(out)

    ba_rel = os.path.join("eval", "bland_altman.csv")
    with open(os.path.join(root, ba_rel), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["condition", "quantity", "case_id", "mean", "difference"])
        for condition in conditions:
            sel = [(r, e) for c, r, e in rows if c == condition]
            if not sel:
                continue
            for key, true_key in (
                ("lv_vol", "true_lv_vol"),
                ("rv_vol", "true_rv_vol"),
                ("lv_mass", "true_lv_mass"),
                ("rv_mass", "true_rv_mass"),
            ):
                ref = [e[true_key] for _, e in sel]
                predv = [getattr(r, key) for r, _ in sel]
                ba_rows, bias, lo, hi = metrics.bland_altman_rows(ref, predv)
                for (r, _), (m, d) in zip(sel, ba_rows):
                    w.writerow([condition, key, r.case_id, f"{m:.6g}", f"{d:.6g}"])
                w.writerow([condition, key, "summary", f"{bias:.6g}", f"{lo:.6g}|{hi:.6g}"])

    manifest = Manifest(root)
    manifest.record_stage(
        "evaluate", config, [per_case_rel, summary_rel, ba_rel], time.perf_counter() - started
    )
    if missing:
        print(f"evaluate: skipped {len(missing)} missing reconstructions:", file=sys.stderr)
        for m in missing:
            print(f"  {m}", file=sys.stderr)
        return 1
    return 0


def _present_conditions(root):
    recon = os.path.join(root, "recon")
    if not os.path.isdir(recon):
        return []
    found = []
    for cond in CONDITIONS:
        if os.path.isdir(os.path.join(recon, cond.replace(":", "_"))):
            found.append(cond)
    return found


# ------------------------------------------------------------------- report


def cmd_report(config):
    root = config.out_dir
    summary_path = os.path.join(root, "eval", "summary.csv")
    report_path = os.path.join(root, "report.md")
    lines = ["# Reconstruction run summary", ""]
    if not os.path.exists(summary_path):
        lines.append("No results found (run evaluate first).")
        with open(report_path, "w") as f:
            f.write("\n".join(lines) + "\n")
        return 0

    with open(summary_path) as f:
        reader = list(csv.reader(f))
    header, body = reader[0], reader[1:]

    def col(name):
        return header.index(name)

    def fmt(row, key):
        return f"{float(row[col(key + '_mean')]):.2f} ± {float(row[col(key + '_sd')]):.2f}"

    lines += ["## Surface agreement with slice contours (experiment 1 analog)", ""]
    lines += ["| condition | n | contour->predicted mesh (mm) |", "|---|---|---|"]
    for row in body:
        lines.append(f"| {row[0]} | {row[1]} | {fmt(row, 'p2s_mean')} |")
    lines += ["", "## Agreement with the generating meshes (experiment 2 analog)", ""]
    lines += [
        "| condition | n | DICE LVM | DICE RVM | ED (mm) | RMSE (mm) | CD sym (mm) | CD asym (mm) |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in body:
        lines.append(
            f"| {row[0]} | {row[1]} | {fmt(row, 'dice_lvm')} | {fmt(row, 'dice_rvm')} | "
            f"{fmt(row, 'ed_mean')} | {fmt(row, 'rmse')} | {fmt(row, 'chamfer_sym')} | "
            f"{fmt(row, 'chamfer_ab')} |"
        )
    lines += ["", "## Slice-subset ablation (experiment 3 analog)", ""]
    lines += [
        "| slices | n | DICE LVM | DICE RVM | ED (mm) | RMSE (mm) |",
        "|---|---|---|---|---|---|",
    ]
    for row in body:
        if row[0].startswith("ablation:"):
            lines.append(
                f"| {row[0].split(':', 1)[1]} | {row[1]} | {fmt(row, 'dice_lvm')} | "
                f"{fmt(row, 'dice_rvm')} | {fmt(row, 'ed_mean')} | {fmt(row, 'rmse')} |"
            )
    lines += ["", "## Volumes and masses", ""]
    lines += [
        "| condition | LV vol (mL) | RV vol (mL) | LV mass (g) | RV mass (g) | inverted walls |",
        "|---|---|---|---|---|---|",
    ]
    for row in body:
        lines.append(
            f"| {row[0]} | {fmt(row, 'lv_vol')} | {fmt(row, 'rv_vol')} | "
            f"{fmt(row, 'lv_mass')} | {fmt(row, 'rv_mass')} | {row[col('inverted_walls')]} |"
        )

    manifest = Manifest(root)
    durations = manifest.doc["stages"].get("reconstruct", {}).get("case_durations_s", {})
    if durations:
        vals = np.array(list(durations.values()))
        lines += [
            "",
            "## Timing",
            "",
            f"Reconstruction: {vals.mean():.2f} s/case (min {vals.min():.2f}, "
            f"max {vals.max():.2f}, n={len(vals)}).",
        ]
    for stage in ("generate", "train", "reconstruct", "evaluate"):
        if stage in manifest.doc["stages"]:
            lines.append(
                f"Stage {stage}: {manifest.doc['stages'][stage]['duration_s']} s."
            )

    with open(report_path, "w") as f:
        f.write("\n".join(lines) + "\n")
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
    p_gen.add_argument("--train-shapes", type=int)
    p_gen.add_argument("--test-shapes", type=int)

    p_train = sub.add_parser("train", help="train the joint model")
    add_common(p_train)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--resume", action="store_true")

    p_rec = sub.add_parser("reconstruct", help="latent optimization + mesh prediction")
    add_common(p_rec)
    p_rec.add_argument("--case", action="append", help="case id (repeatable; default all)")
    p_rec.add_argument(
        "--condition", action="append", choices=CONDITIONS,
        help="condition (repeatable; default ideal+misaligned)",
    )
    p_rec.add_argument("--dense-spacing", type=float, help="also export a label volume")

    p_eval = sub.add_parser("evaluate", help="metrics against generating meshes")
    add_common(p_eval)
    p_eval.add_argument("--condition", action="append", choices=CONDITIONS)

    p_rep = sub.add_parser("report", help="markdown summary")
    add_common(p_rep)

    args = parser.parse_args(argv)
    overrides = {"out_dir": args.out}
    for key in ("train_shapes", "test_shapes", "epochs"):
        if getattr(args, key, None) is not None:
            overrides[key] = getattr(args, key)
    config = load_config(args.config, overrides)

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
