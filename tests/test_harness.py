import csv
import json
import os

import numpy as np
import pytest

from heartfields import acquisition as acq
from heartfields import harness


def mini_config(out_dir, **kw):
    base = dict(
        out_dir=str(out_dir),
        train_shapes=6,
        test_shapes=2,
        seg_points=2800,
        reg_points=2650,
        epochs=100,
        latent_dim=4,
        hidden_dim=16,
        num_blocks=2,
        lr_net=2e-3,
        lr_latent=1e-2,
        seg_batch=256,
        reg_batch=64,
        density=4.0,
        infer_steps=25,
        infer_points=400,
        dtype="float64",
        val_fraction=0.2,
    )
    base.update(kw)
    return harness.ExperimentConfig(**base).validate()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One miniature end-to-end run shared by the read-only tests."""
    cfg = mini_config(tmp_path_factory.mktemp("run"))
    harness.cmd_generate(cfg)
    harness.cmd_train(cfg)
    harness.cmd_reconstruct(cfg, conditions=["ideal", "ablation:halfsax"])
    assert harness.cmd_evaluate(cfg) == 0
    assert harness.cmd_report(cfg) == 0
    return cfg


# ------------------------------------------------------------------- config


def test_config_file_parsing(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("epochs = 12  # comment\ntrain_shapes=3\nout_dir = somewhere\n\n# full line\n")
    cfg = harness.load_config(p)
    assert cfg.epochs == 12
    assert cfg.train_shapes == 3
    assert cfg.out_dir == "somewhere"


def test_config_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("not_a_knob = 5\n")
    with pytest.raises(ValueError):
        harness.load_config(p)


def test_config_seed_ranges_must_be_disjoint():
    with pytest.raises(ValueError):
        harness.ExperimentConfig(
            train_seed0=100, train_shapes=50, test_seed0=120, test_shapes=10
        ).validate()


def test_config_hash_stable():
    a = harness.ExperimentConfig(out_dir="x")
    b = harness.ExperimentConfig(out_dir="x")
    assert a.hash() == b.hash()
    assert a.hash() != harness.ExperimentConfig(out_dir="y").hash()


# ----------------------------------------------------------------- generate


def test_generate_outputs(run):
    root = run.out_dir
    manifest = harness.Manifest(root)
    arts = manifest.stage_artifacts("generate")
    plys = [a for a in arts if a.endswith(".ply")]
    contours = [a for a in arts if a.startswith("contours/")]
    assert len(plys) == run.train_shapes + run.test_shapes
    assert len(contours) == 2 * run.test_shapes  # ideal + misaligned per case


def test_generate_refuses_overwrite(run):
    with pytest.raises(FileExistsError):
        harness.cmd_generate(run)


def test_ideal_vs_misaligned_differ_only_in_geometry(run):
    root = run.out_dir
    ideal = acq.load_contours(os.path.join(root, "contours", "test_0000_ideal.json"))
    mis = acq.load_contours(os.path.join(root, "contours", "test_0000_misaligned.json"))
    assert ideal.views() == mis.views()
    moved = 0
    for a, b in zip(ideal.slices, mis.slices):
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.kinds, b.kinds)
        assert np.allclose(a.shift, 0.0) and not np.allclose(b.shift, 0.0)
        if not np.allclose(a.points, b.points):
            moved += 1
    assert moved == len(ideal.slices)


# -------------------------------------------------------------------- train


def test_train_log_rows_equal_epochs(run):
    with open(os.path.join(run.out_dir, "train_log.csv")) as f:
        rows = list(csv.reader(f))
    assert len(rows) - 1 == run.epochs


def test_train_epochs_zero_valid_checkpoint(tmp_path):
    cfg = mini_config(tmp_path / "zero", epochs=0)
    harness.cmd_generate(cfg)
    harness.cmd_train(cfg)
    ckpt, stats = harness.load_model(cfg.out_dir)
    assert ckpt.epoch == 0
    assert ckpt.seg_net.hidden_dim == cfg.hidden_dim
    assert ckpt.latent_codes.shape == (cfg.train_shapes, cfg.latent_dim)
    with open(os.path.join(cfg.out_dir, "train_log.csv")) as f:
        assert len(list(csv.reader(f))) == 1  # header only


def test_train_resume_continues_trajectory(tmp_path):
    out = tmp_path / "resume"
    cfg_full = mini_config(out, epochs=60)
    harness.cmd_generate(cfg_full)
    harness.cmd_train(cfg_full)

    out2 = tmp_path / "resume2"
    cfg_half = mini_config(out2, epochs=30)
    harness.cmd_generate(cfg_half)
    harness.cmd_train(cfg_half)
    cfg_cont = mini_config(out2, epochs=60)
    harness.cmd_train(cfg_cont, resume=True)

    # the resumed run retraces the uninterrupted one exactly
    for name in ("train_log.csv", "checkpoint.nihc"):
        assert (out2 / name).read_bytes() == (out / name).read_bytes(), name


def test_train_noop_resume_keeps_checkpoint(tmp_path):
    cfg = mini_config(tmp_path / "noop", test_shapes=0, epochs=3)
    harness.cmd_generate(cfg)
    harness.cmd_train(cfg)
    path = os.path.join(cfg.out_dir, "checkpoint.nihc")
    before = open(path, "rb").read()
    harness.cmd_train(cfg, resume=True)  # no epochs left
    assert sorted(harness.load_checkpoint(path).opt) == ["lat", "reg", "seg"]
    assert open(path, "rb").read() == before


def test_reconstruct_from_interrupted_training(tmp_path, monkeypatch):
    """A periodic checkpoint is a complete model: after training stops
    mid-run, reconstruction works from the last one written."""

    class Interrupted(Exception):
        pass

    schedule = harness.training.prior_schedule

    def stop_at_epoch_2(epoch, weights=None):
        if epoch == 2:
            raise Interrupted
        return schedule(epoch, weights)

    cfg = mini_config(tmp_path / "interrupted", test_shapes=1, epochs=4, checkpoint_every=2)
    harness.cmd_generate(cfg)
    monkeypatch.setattr(harness.training, "prior_schedule", stop_at_epoch_2)
    with pytest.raises(Interrupted):
        harness.cmd_train(cfg)
    ckpt, stats = harness.load_model(cfg.out_dir)
    assert ckpt.epoch == 2 and stats is not None
    rels, _ = harness.reconstruct_case(cfg, ckpt, stats, "test_0000", "ideal")
    assert os.path.exists(os.path.join(cfg.out_dir, rels[0]))


# -------------------------------------------------------------- reconstruct


def test_reconstruct_outputs_and_timing(run):
    root = run.out_dir
    manifest = harness.Manifest(root)
    durations = manifest.doc["stages"]["reconstruct"]["case_durations_s"]
    assert len(durations) == 2 * run.test_shapes
    assert all(v < run.infer_budget_s for v in durations.values())
    for case in ("test_0000", "test_0001"):
        assert os.path.exists(os.path.join(root, "recon", "ideal", f"{case}.ply"))
        trace = os.path.join(root, "recon", "ideal", f"{case}_trace.csv")
        with open(trace) as f:
            rows = list(csv.reader(f))
        assert len(rows) - 1 == run.infer_steps + 1


def test_reconstruct_mesh_free(tmp_path, run):
    """Reconstruction must succeed with every test-case mesh file deleted."""
    import shutil

    src = run.out_dir
    dst = tmp_path / "meshfree"
    shutil.copytree(src, dst)
    cfg = mini_config(dst)
    for case in ("test_0000", "test_0001"):
        os.remove(os.path.join(dst, "shapes", f"{case}.ply"))
        os.remove(os.path.join(dst, "shapes", f"{case}_landmarks.json"))
    ckpt, stats = harness.load_model(str(dst))
    rels, _ = harness.reconstruct_case(cfg, ckpt, stats, "test_0001", "ideal")
    assert os.path.exists(os.path.join(dst, rels[0]))


def test_reconstruct_dense_labels(tmp_path, run):
    cfg = mini_config(run.out_dir)
    ckpt, stats = harness.load_model(run.out_dir)
    rels, _ = harness.reconstruct_case(
        cfg, ckpt, stats, "test_0000", "ideal", dense_spacing=8.0
    )
    vol = [r for r in rels if r.endswith(".u8")]
    assert vol
    from heartfields.inference import load_label_volume

    labels, header = load_label_volume(os.path.join(run.out_dir, vol[0][: -len(".u8")]))
    assert labels.ndim == 3 and header["spacing"] == 8.0


# ----------------------------------------------------------------- evaluate


def test_evaluate_csvs(run):
    root = run.out_dir
    with open(os.path.join(root, "eval", "per_case.csv")) as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    assert len(body) == 2 * run.test_shapes  # two conditions evaluated
    assert "dice_lvm" in header and "p2s_ref" in header
    with open(os.path.join(root, "eval", "summary.csv")) as f:
        srows = list(csv.reader(f))
    assert len(srows) - 1 == 2  # one row per evaluated condition


def test_evaluate_identity_run(tmp_path, run):
    """Copying the true meshes in as reconstructions gives zero geometric
    error and perfect correspondence metrics."""
    import shutil

    src = run.out_dir
    dst = tmp_path / "identity"
    shutil.copytree(src, dst)
    cfg = mini_config(dst)
    for case in ("test_0000", "test_0001"):
        shutil.copyfile(
            os.path.join(dst, "shapes", f"{case}.ply"),
            os.path.join(dst, "recon", "ideal", f"{case}.ply"),
        )
    assert harness.cmd_evaluate(cfg, conditions=["ideal"]) == 0
    with open(os.path.join(dst, "eval", "per_case.csv")) as f:
        rows = list(csv.reader(f))
    header = rows[0]
    for row in rows[1:]:
        rec = dict(zip(header, row))
        assert float(rec["ed_mean"]) == 0.0
        assert float(rec["rmse"]) == 0.0
        assert float(rec["chamfer_sym"]) == 0.0
        assert float(rec["p2s_mean"]) == float(rec["p2s_ref"])
        assert float(rec["lv_vol"]) == float(rec["true_lv_vol"])
        assert float(rec["lv_mass"]) == float(rec["true_lv_mass"])
        assert float(rec["rv_mass"]) == float(rec["true_rv_mass"])


def _copy_with_inverted_lv_wall(run, dst):
    """Copy the run and replace the ideal test_0000 reconstruction by its
    true mesh with the LV endocardium scaled 3x through the epicardium."""
    import shutil

    from heartfields import anatomy

    shutil.copytree(run.out_dir, dst)
    topo = anatomy.build_template()
    true = harness.load_instance_mesh(dst, "test_0000", topo)
    verts = true.vertices.copy()
    endo = topo.surface_tag == anatomy.SURFACE_TAGS.index("lv_endo")
    center = verts[endo].mean(axis=0)
    verts[endo] = center + 3.0 * (verts[endo] - center)
    anatomy.write_mesh_ply(
        os.path.join(dst, "recon", "ideal", "test_0000.ply"),
        anatomy.InstanceMesh(topo, verts, true.landmarks),
    )
    return topo


def test_evaluate_inverted_wall_mass_is_nan(tmp_path, run):
    """An LV cavity that bulges through its epicardium leaves a negative
    wall volume, which is reported as a NaN mass."""
    dst = tmp_path / "inverted"
    topo = _copy_with_inverted_lv_wall(run, dst)
    ckpt, _ = harness.load_model(dst)
    report, extras = harness.evaluate_case(str(dst), topo, ckpt, "test_0000", "ideal")
    assert np.isnan(report.lv_mass)
    assert report.rv_mass == extras["true_rv_mass"]  # RV wall untouched


def test_evaluate_summary_counts_inverted_walls(tmp_path, run):
    """One NaN mass is counted and left out of its condition's mean, SD and
    Bland-Altman limits instead of turning them into NaN."""
    dst = tmp_path / "inverted"
    _copy_with_inverted_lv_wall(run, dst)
    cfg = mini_config(dst)
    assert harness.cmd_evaluate(cfg, conditions=["ideal"]) == 0
    assert harness.cmd_report(cfg) == 0
    with open(os.path.join(dst, "eval", "summary.csv")) as f:
        (summary,) = list(csv.DictReader(f))
    assert int(summary["inverted_walls"]) == 1
    assert np.isfinite(float(summary["lv_mass_mean"]))
    assert float(summary["lv_mass_sd"]) == 0.0  # one finite value left
    with open(os.path.join(dst, "eval", "bland_altman.csv")) as f:
        ba = [r for r in csv.DictReader(f) if r["case_id"] == "summary"]
    assert all(np.isfinite(float(x)) for r in ba for x in [r["mean"], *r["difference"].split("|")])
    with open(os.path.join(dst, "report.md")) as f:
        mass_row = next(line for line in f if line.startswith("| ideal |") and line.count("|") == 7)
    assert "nan" not in mass_row and mass_row.rstrip().endswith("| 1 |")


def test_evaluate_missing_reconstruction_nonzero_exit(tmp_path, run):
    import shutil

    src = run.out_dir
    dst = tmp_path / "missing"
    shutil.copytree(src, dst)
    cfg = mini_config(dst)
    os.remove(os.path.join(dst, "recon", "ideal", "test_0001.ply"))
    assert harness.cmd_evaluate(cfg, conditions=["ideal"]) == 1


# ------------------------------------------------------------------- report


def test_report_contents_and_idempotence(run):
    path = os.path.join(run.out_dir, "report.md")
    first = open(path).read()
    assert "experiment 1 analog" in first
    assert "experiment 2 analog" in first
    assert "experiment 3 analog" in first
    assert "Timing" in first
    harness.cmd_report(run)
    assert open(path).read() == first


def test_report_empty_results(tmp_path):
    cfg = mini_config(tmp_path / "empty")
    os.makedirs(cfg.out_dir, exist_ok=True)
    assert harness.cmd_report(cfg) == 0
    text = open(os.path.join(cfg.out_dir, "report.md")).read()
    assert "No results" in text


# -------------------------------------------------------------- determinism


def test_pipeline_determinism(tmp_path):
    hashes = []
    for name in ("det_a", "det_b"):
        cfg = mini_config(tmp_path / name, epochs=5)
        harness.cmd_generate(cfg)
        harness.cmd_train(cfg)
        harness.cmd_reconstruct(cfg, cases=["test_0000"], conditions=["ideal"])
        hashes.append(harness.Manifest(cfg.out_dir).artifact_hashes())
    assert hashes[0] == hashes[1]


# --------------------------------------------------------------------- CLI


def test_cli_roundtrip(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    out = tmp_path / "cli_run"
    cfgfile.write_text(
        "\n".join(
            [
                f"out_dir = {out}",
                "train_shapes = 6",
                "test_shapes = 1",
                "seg_points = 2800",
                "reg_points = 2650",
                "epochs = 3",
                "latent_dim = 4",
                "hidden_dim = 16",
                "num_blocks = 2",
                "density = 5.0",
                "infer_steps = 5",
                "infer_points = 200",
                "dtype = float64",
            ]
        )
        + "\n"
    )
    assert harness.main(["generate", "--config", str(cfgfile)]) == 0
    assert harness.main(["train", "--config", str(cfgfile)]) == 0
    assert (
        harness.main(
            ["reconstruct", "--config", str(cfgfile), "--case", "test_0000",
             "--condition", "ideal"]
        )
        == 0
    )
    assert harness.main(["report", "--config", str(cfgfile)]) == 0
