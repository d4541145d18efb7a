import csv
import hashlib
import json
import os
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import views
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
    return cfg


# ------------------------------------------------------------------- config


def test_config_file_parsing(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("epochs = 12  # comment\ntrain_shapes=3\nout_dir = somewhere\n\n# full line\n")
    cfg = harness.load_config(p)
    assert cfg.epochs == 12
    assert cfg.train_shapes == 3
    assert cfg.out_dir == "somewhere"


def test_config_key_set_twice_names_both_lines(tmp_path):
    p = tmp_path / "twice.cfg"
    p.write_text("epochs = 12\n# a comment\ntrain_shapes = 3\nepochs=40\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:4: key 'epochs' already set on line 1")):
        harness.load_config(p)


def test_config_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("not_a_knob = 5\n")
    with pytest.raises(ValueError):
        harness.load_config(p)
    # a line that sets no key is no setting either
    p.write_text("epochs = 3\nlatent_dim 8  # the sign is missing\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:2: expected key=value, got 'latent_dim 8")):
        harness.load_config(p)


def test_config_value_that_does_not_parse_names_key_and_file(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("train_shapes = 3\nepochs = abc\n")
    message = f"{p}: config key 'epochs': cannot parse 'abc' as int"
    with pytest.raises(ValueError, match=re.escape(message)):
        harness.load_config(p)
    # an overridden file value is not read, and an override's error names no file
    assert harness.load_config(p, {"epochs": 4}).epochs == 4
    with pytest.raises(ValueError, match="^config key 'sigma': cannot parse 'x' as float$"):
        harness.load_config(overrides={"sigma": "x"})


# settings training or reconstruction cannot run with
BAD_SETTINGS = [
    ("latent_dim", "0"), ("epochs", "-3"), ("val_fraction", "1.5"), ("lr_net", "nan"),
    ("seg_batch", "0"), ("checkpoint_every", "-1"), ("val_fraction", "1"), ("lr_latent", "inf"),
    ("reg_batch", "0"), ("hidden_dim", "0"), ("num_blocks", "-1"), ("infer_lr", "0"),
    ("misalign_seed", "-1"), ("test_seed0", "-5"), ("train_seed0", "-100"), ("train_seed", "-1"),
    ("margin", "nan"), ("margin", "-1e9"), ("train_shapes", "-3"), ("test_shapes", "-1"),
    ("spacing", "inf"), ("density", "inf"), ("sigma", "inf"), ("infer_budget_s", "-1"),
    ("infer_budget_s", "0"), ("infer_budget_s", "nan"), ("infer_budget_s", "inf"),
]


@pytest.mark.parametrize("key, value", BAD_SETTINGS)
def test_config_rejects_settings_the_stages_cannot_run(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be"):
        harness.load_config(overrides={key: value})


def test_config_keeps_boundary_settings_valid():
    cfg = harness.load_config(overrides={"epochs": "0", "val_fraction": "0", "num_blocks": "0",
                                         "checkpoint_every": "0", "train_shapes": "0"})
    assert (cfg.epochs, cfg.val_fraction, cfg.num_blocks) == (0, 0.0, 0)


def test_config_seed_ranges_must_be_disjoint():
    with pytest.raises(ValueError):
        harness.ExperimentConfig(
            train_seed0=100, train_shapes=50, test_seed0=120, test_shapes=10
        ).validate()


@pytest.mark.parametrize("train_seed0, train_shapes, test_seed0, test_shapes, overlap", [
    (100, 50, 150, 10, False),  # adjacent: the test range starts where training's ends
    (150, 10, 100, 50, False),
    (100, 50, 149, 10, True),  # seed 149 in both
    (159, 10, 150, 10, True),
    (100, 0, 100, 10, False),  # an empty range shares no seed
    (100, 10, 105, 0, False),
])
def test_config_seed_ranges_overlap_when_they_share_a_seed(train_seed0, train_shapes, test_seed0,
                                                           test_shapes, overlap):
    settings = dict(train_seed0=train_seed0, train_shapes=train_shapes, test_seed0=test_seed0,
                    test_shapes=test_shapes)
    if overlap:
        with pytest.raises(ValueError, match="^train and test seed ranges overlap$"):
            harness.ExperimentConfig(**settings)
    else:
        harness.ExperimentConfig(**settings).validate()


def test_config_seed_check_holds_no_seed_set():
    """The overlap check compares the ranges' ends: a mistyped cohort size
    costs it no memory (a set of a million seeds took ~70 MB)."""
    import tracemalloc

    tracemalloc.start()
    try:
        harness.ExperimentConfig(train_shapes=10**6, test_seed0=2 * 10**6).validate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_config_checks_itself_when_built():
    """A config is checked when it is built, by ``dataclasses.replace`` too,
    with the message :func:`load_config` gives, and is immutable."""
    with pytest.raises(ValueError, match="^spacing must be positive and finite, got 0.0$"):
        harness.ExperimentConfig(spacing=0.0)
    with pytest.raises(ValueError, match="^latent_dim must be at least 1, got 0$"):
        replace(harness.ExperimentConfig(), latent_dim=0)
    with pytest.raises(FrozenInstanceError):
        harness.ExperimentConfig().out_dir = "elsewhere"


def test_config_hash_stable():
    a = harness.ExperimentConfig(out_dir="x")
    b = harness.ExperimentConfig(out_dir="x")
    assert a.hash() == b.hash()
    # the same settings in another directory are the same configuration
    assert a.hash() == harness.ExperimentConfig(out_dir="y").hash()
    assert a.hash() != replace(a, epochs=a.epochs + 1).hash()
    # taken at commit 1d8de1b, where ExperimentConfig declared the training
    # settings itself: every manifest written since keeps its config_hash
    assert a.hash() == "26b4cee68ab856e900713f7dfa31115b30936d0b3fcf10c5eb70562857e485e8"


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


def test_generate_force_starts_a_new_run(tmp_path):
    cfg = mini_config(tmp_path / "force", test_shapes=1, epochs=2, infer_steps=2)
    harness.cmd_generate(cfg)
    harness.cmd_train(cfg)
    harness.cmd_reconstruct(cfg, conditions=["ideal"])
    assert harness.cmd_evaluate(cfg) == 0

    harness.cmd_generate(replace(cfg, test_seed0=cfg.test_seed0 + 1), force=True)
    manifest = harness.Manifest(cfg.out_dir)
    assert list(manifest.doc["stages"]) == ["generate"]
    for rel in ("checkpoint.nihc", "train_log.csv", "recon", "eval"):
        assert not os.path.exists(os.path.join(cfg.out_dir, rel)), rel
    assert_manifest_matches_files(cfg.out_dir)


def test_generate_after_an_interrupted_generate_leaves_only_recorded_files(tmp_path, monkeypatch):
    """A generate that stops before its record leaves no manifest, so the
    next generate needs no ``force``; it removes what the first one wrote,
    and every file under the generate outputs is then a recorded artifact."""

    class Interrupted(Exception):
        pass

    def interrupted(*args, **kwargs):
        raise Interrupted

    cfg = mini_config(tmp_path / "regenerated", train_shapes=3, test_shapes=2)
    monkeypatch.setattr(harness.Manifest, "record_stage", interrupted)
    with pytest.raises(Interrupted):
        harness.cmd_generate(cfg)
    monkeypatch.undo()
    assert os.path.exists(os.path.join(cfg.out_dir, "shapes", "train_0002.ply"))
    assert not os.path.exists(os.path.join(cfg.out_dir, harness.MANIFEST))

    harness.cmd_generate(replace(cfg, train_shapes=2, test_shapes=1))
    on_disk = {os.path.relpath(os.path.join(d, f), cfg.out_dir)
               for out in harness.STAGES["generate"]
               for d, _, files in os.walk(os.path.join(cfg.out_dir, out)) for f in files}
    assert on_disk == set(harness.Manifest(cfg.out_dir).stage_artifacts("generate"))
    assert_manifest_matches_files(cfg.out_dir)


@pytest.mark.parametrize("budgets", [dict(seg_points=100), dict(reg_points=2596)])
def test_generate_force_checks_point_budgets_before_removing(tmp_path, budgets):
    """Point budgets the template cannot fill are rejected before ``force``
    removes the old run, not after it wrote the first shape."""
    cfg = mini_config(tmp_path / "budgets", train_shapes=1, test_shapes=1)
    harness.cmd_generate(cfg)
    before = harness.Manifest(cfg.out_dir).doc
    with pytest.raises(ValueError, match="2597"):
        harness.cmd_generate(replace(cfg, **budgets), force=True)
    assert harness.Manifest(cfg.out_dir).doc == before
    assert_manifest_matches_files(cfg.out_dir)


@pytest.mark.parametrize(
    "bad",
    [dict(spacing=0.0), dict(density=-1.0), dict(sigma=-0.5), dict(infer_steps=0),
     dict(infer_points=0), dict(misalign_seed=-1), dict(test_seed0=-5), dict(train_seed0=-100),
     dict(margin=float("nan")), dict(margin=-1e9), dict(train_shapes=-3), dict(test_shapes=-1),
     dict(spacing=float("inf")), dict(density=float("inf")), dict(sigma=float("inf")),
     dict(infer_budget_s=-1.0), dict(infer_budget_s=0.0), dict(infer_budget_s=float("nan")),
     dict(infer_budget_s=float("inf"))],
)
def test_generate_force_validates_before_removing(tmp_path, run, bad):
    """Cohort, acquisition and inference settings and seeds no stage can run are
    rejected before ``force`` removes a finished run, not after it wrote
    shapes."""
    import shutil

    dst = tmp_path / "bad"
    shutil.copytree(run.out_dir, dst)
    before = tree_hashes(dst)
    with pytest.raises(ValueError, match=next(iter(bad))):
        harness.cmd_generate(replace(mini_config(dst), **bad), force=True)
    assert tree_hashes(dst) == before


def tree_hashes(root):
    """{path relative to ``root``: sha256} of every file below ``root``."""
    return {
        os.path.relpath(os.path.join(d, f), root): harness.file_hash(os.path.join(d, f))
        for d, _, files in os.walk(root)
        for f in files
    }


def test_train_removes_outputs_of_the_old_model(tmp_path):
    """A new model makes the reconstructions, evaluations and report of the
    old one stale; evaluating them with it would fail (another latent dim)
    or score old latents through the new classifier."""
    cfg = mini_config(tmp_path / "retrain", test_shapes=1, epochs=2, infer_steps=2)
    harness.cmd_generate(cfg)
    harness.cmd_train(cfg)
    harness.cmd_reconstruct(cfg, conditions=["ideal"])
    assert harness.cmd_evaluate(cfg) == 0

    harness.cmd_train(replace(cfg, latent_dim=cfg.latent_dim - 2))
    assert sorted(harness.Manifest(cfg.out_dir).doc["stages"]) == ["generate", "train"]
    for rel in ("recon", "eval", "report.md"):
        assert not os.path.exists(os.path.join(cfg.out_dir, rel)), rel
    assert_manifest_matches_files(cfg.out_dir)
    # no reconstruction of the old model is left to score
    with pytest.raises(ValueError, match="nothing to evaluate"):
        harness.cmd_evaluate(cfg)


def test_reconstruct_removes_the_evaluation_of_the_fits_it_replaces(tmp_path, run):
    """A re-fit makes the evaluation and report of the old fits stale: they
    go with the evaluate record, while the other fits keep theirs."""
    import shutil

    dst = tmp_path / "refit"
    shutil.copytree(run.out_dir, dst)
    before = harness.Manifest(dst).doc["stages"]["reconstruct"]["artifacts"]
    cfg = mini_config(dst, infer_steps=run.infer_steps + 3)
    harness.cmd_reconstruct(cfg, cases=["test_0000"], conditions=["ideal"])
    manifest = harness.Manifest(dst)
    assert sorted(manifest.doc["stages"]) == ["generate", "reconstruct", "train"]
    assert manifest.doc["config_hash"] == cfg.hash()
    assert set(manifest.stage_artifacts("reconstruct")) == set(before)
    for rel in ("eval", "report.md"):
        assert not os.path.exists(dst / rel), rel
    assert_manifest_matches_files(dst)


def test_evaluate_replaces_the_report_of_the_old_evaluation(tmp_path, run):
    """A new evaluation's report shows its own conditions, not the old one's."""
    import shutil

    dst = tmp_path / "reevaluated"
    shutil.copytree(run.out_dir, dst)
    assert harness.cmd_evaluate(mini_config(dst), conditions=["ideal"]) == 0
    report = (dst / "report.md").read_text()
    assert len(re.findall(r"^\| ideal \| ", report, re.M)) == 3
    assert "halfsax" not in report
    assert_manifest_matches_files(dst)


def test_stages_name_every_output_of_a_run(run):
    """Each recorded artifact lies under its own stage's STAGES entry, and
    every entry of the run directory is the manifest or a stage's output."""
    stages = harness.Manifest(run.out_dir).doc["stages"]
    assert set(stages) == set(harness.STAGES)
    for stage, record in stages.items():
        for rel in record["artifacts"]:
            assert rel.split(os.sep, 1)[0] in harness.STAGES[stage], (stage, rel)
    outputs = {rel for rels in harness.STAGES.values() for rel in rels}
    assert set(os.listdir(run.out_dir)) == {harness.MANIFEST} | outputs


def test_train_checks_the_config_before_removing(tmp_path):
    """A config training cannot run is rejected before the old model's
    reconstructions and their manifest record go."""
    cfg = mini_config(tmp_path / "rejected", test_shapes=1, epochs=2, infer_steps=2)
    harness.cmd_generate(cfg)
    harness.cmd_train(cfg)
    harness.cmd_reconstruct(cfg, conditions=["ideal"])
    before = harness.Manifest(cfg.out_dir).doc
    # float16 would overflow the reg loss; no training shape leaves nothing to fit
    bad_settings = [(dict(train_shapes=0), "empty cohort"), (dict(dtype="float16"), "dtype"),
                    (dict(dtype="foo"), "dtype"), (dict(latent_dim=0), "latent_dim"),
                    (dict(epochs=-3), "epochs"), (dict(val_fraction=1.5), "val_fraction"),
                    (dict(lr_net=float("nan")), "lr_net"), (dict(seg_batch=0), "seg_batch"),
                    (dict(checkpoint_every=-1), "checkpoint_every"),
                    (dict(train_seed=-1), "train_seed")]
    for bad, match in bad_settings:
        with pytest.raises(ValueError, match=match):
            harness.cmd_train(replace(cfg, **bad))
        assert harness.Manifest(cfg.out_dir).doc == before
        assert os.path.isdir(os.path.join(cfg.out_dir, "recon"))
    assert_manifest_matches_files(cfg.out_dir)
    with pytest.raises(ValueError, match="dtype"):
        replace(cfg, dtype="float16").validate()


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    """A writer that stops half-way leaves neither a partial artifact nor a
    temporary file behind."""
    write_ply = harness.anatomy.write_mesh_ply

    def half_then_fail(path, mesh, comment=None):
        write_ply(path, mesh, comment)
        with open(path, "r+") as f:
            f.truncate(os.path.getsize(path) // 2)
        raise OSError("disk full")

    cfg = mini_config(tmp_path / "failed", train_shapes=1, test_shapes=0)
    monkeypatch.setattr(harness.anatomy, "write_mesh_ply", half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        harness.cmd_generate(cfg)
    assert os.listdir(os.path.join(cfg.out_dir, "shapes")) == []


def assert_manifest_matches_files(root):
    for rel, digest in harness.Manifest(root).artifact_hashes().items():
        assert harness.file_hash(os.path.join(root, rel)) == digest, rel


def test_ideal_vs_misaligned_differ_only_in_geometry(run):
    root = run.out_dir
    ideal = acq.load_contours(os.path.join(root, "contours", "test_0000_ideal.json"))
    mis = acq.load_contours(os.path.join(root, "contours", "test_0000_misaligned.json"))
    assert views(ideal) == views(mis)
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
    assert len(harness.load_checkpoint(os.path.join(cfg.out_dir, "checkpoint.nihc")).log) == 0
    assert ckpt.seg_net.hidden_dim == cfg.hidden_dim
    assert ckpt.latent_codes.shape == (cfg.train_shapes, cfg.latent_dim)
    with open(os.path.join(cfg.out_dir, "train_log.csv")) as f:
        assert len(list(csv.reader(f))) == 1  # header only


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_train_resume_continues_trajectory(tmp_path, dtype):
    out = tmp_path / "resume"
    cfg_full = mini_config(out, epochs=60, dtype=dtype)
    harness.cmd_generate(cfg_full)
    harness.cmd_train(cfg_full)

    out2 = tmp_path / "resume2"
    cfg_half = mini_config(out2, epochs=30, dtype=dtype)
    harness.cmd_generate(cfg_half)
    harness.cmd_train(cfg_half)
    cfg_cont = mini_config(out2, epochs=60, dtype=dtype)
    harness.cmd_train(cfg_cont, resume=True)

    # the resumed run retraces the uninterrupted one exactly
    for name in ("train_log.csv", "checkpoint.nihc"):
        assert (out2 / name).read_bytes() == (out / name).read_bytes(), name
    # every epoch steps every latent row once: one step count serves the table
    ckpt = harness.load_checkpoint(out2 / "checkpoint.nihc")
    assert ckpt.opt["lat"].step_count == len(ckpt.log) == 60
    assert ckpt.latent_codes.dtype == dtype


def test_train_noop_resume_keeps_checkpoint(tmp_path):
    cfg = mini_config(tmp_path / "noop", test_shapes=0, epochs=3)
    harness.cmd_generate(cfg)
    harness.cmd_train(cfg)
    path = Path(cfg.out_dir, "checkpoint.nihc")
    before = path.read_bytes()
    harness.cmd_train(cfg, resume=True)  # no epochs left
    assert sorted(harness.load_checkpoint(path).opt) == ["lat", "reg", "seg"]
    assert path.read_bytes() == before


def test_train_resume_after_an_interruption_keeps_the_whole_log(tmp_path, monkeypatch):
    """Training stopped after a periodic checkpoint and resumed with
    ``--resume`` writes the log and checkpoint of the uninterrupted run:
    the log of the epochs before the stop comes from the checkpoint."""

    class Interrupted(Exception):
        pass

    schedule = harness.training.prior_schedule

    def stop_at_epoch_2(epoch):
        if epoch == 2:
            raise Interrupted
        return schedule(epoch)

    full = mini_config(tmp_path / "full", test_shapes=0, epochs=4, checkpoint_every=2)
    harness.cmd_generate(full)
    harness.cmd_train(full)
    cfg = replace(full, out_dir=str(tmp_path / "stopped"))
    harness.cmd_generate(cfg)
    with monkeypatch.context() as m:
        m.setattr(harness.training, "prior_schedule", stop_at_epoch_2)
        with pytest.raises(Interrupted):
            harness.cmd_train(cfg)
    assert not os.path.exists(os.path.join(cfg.out_dir, "train_log.csv"))
    harness.cmd_train(cfg, resume=True)
    for name in ("train_log.csv", "checkpoint.nihc"):
        assert Path(cfg.out_dir, name).read_bytes() == Path(full.out_dir, name).read_bytes(), name
    with open(os.path.join(cfg.out_dir, "train_log.csv")) as f:
        assert [row[0] for row in csv.reader(f)] == ["epoch", "0", "1", "2", "3"]


def test_train_writes_each_checkpoint_once(tmp_path, monkeypatch):
    """The periodic checkpoint of the last epoch would be the final one, so
    it is written once, as the final one; a resume writes only what its
    own epochs add."""
    cfg = mini_config(tmp_path / "every", test_shapes=0, epochs=4, checkpoint_every=2)
    harness.cmd_generate(cfg)
    written = []
    save = harness.save_checkpoint

    def counted(path, ckpt):
        written.append(len(ckpt.log))
        save(path, ckpt)

    monkeypatch.setattr(harness, "save_checkpoint", counted)
    harness.cmd_train(cfg)
    assert written == [2, 4]
    harness.cmd_train(replace(cfg, epochs=7, checkpoint_every=3), resume=True)
    assert written == [2, 4, 6, 7]


def test_train_resume_needs_the_log(tmp_path):
    """A checkpoint without a training log, as written before the log was
    stored in it, still serves reconstruction but not a resume."""
    cfg = mini_config(tmp_path / "nolog", test_shapes=1, epochs=2, infer_steps=2)
    harness.cmd_generate(cfg)
    harness.cmd_train(cfg)
    path = os.path.join(cfg.out_dir, "checkpoint.nihc")
    ckpt = harness.load_checkpoint(path)
    harness.save_checkpoint(path, replace(ckpt, log=None))
    with pytest.raises(ValueError, match="no optimizer state or training log to resume from"):
        harness.cmd_train(replace(cfg, epochs=4), resume=True)
    harness.cmd_reconstruct(cfg, conditions=["ideal"])


def test_train_resume_rejects_another_architecture(tmp_path):
    """A resume the checkpoint cannot serve (another architecture, another
    cohort or another dtype) is rejected before anything of the run is
    removed."""
    cfg = mini_config(tmp_path / "arch", test_shapes=1, epochs=2, infer_steps=2)
    harness.cmd_generate(cfg)
    harness.cmd_train(cfg)
    harness.cmd_reconstruct(cfg, conditions=["ideal"])
    assert harness.cmd_evaluate(cfg) == 0
    root = cfg.out_dir
    before = {rel: Path(root, rel).read_bytes()
              for rel in ("checkpoint.nihc", "manifest.json", "report.md")}
    wider = replace(cfg, epochs=4, hidden_dim=32, num_blocks=3)
    with pytest.raises(ValueError, match=r"\(7, 5, 16, 2\).*\(7, 5, 32, 3\)"):
        harness.cmd_train(wider, resume=True)
    fewer = replace(cfg, epochs=4, train_shapes=cfg.train_shapes - 1)
    with pytest.raises(ValueError, match="latent table does not match the cohort"):
        harness.cmd_train(fewer, resume=True)
    # widening or narrowing the dtype would not retrace an uninterrupted run
    narrower = replace(cfg, epochs=4, dtype="float32")
    with pytest.raises(ValueError, match="checkpoint is float64, the config's dtype is float32"):
        harness.cmd_train(narrower, resume=True)
    ckpt = harness.load_checkpoint(os.path.join(root, "checkpoint.nihc"))
    f32 = replace(ckpt, seg_net=ckpt.seg_net.astype(np.float32),
                  reg_net=ckpt.reg_net.astype(np.float32),
                  latent_codes=ckpt.latent_codes.astype(np.float32))
    with pytest.raises(ValueError, match="checkpoint is float32, the config's dtype is float64"):
        harness.training.check_resume(f32, cfg, cfg.train_shapes)
    for rel, data in before.items():
        assert Path(root, rel).read_bytes() == data, rel
    for rel in ("recon", "eval"):
        assert os.path.isdir(os.path.join(root, rel)), rel
    stages = harness.Manifest(root).doc["stages"]
    assert sorted(stages) == ["evaluate", "generate", "reconstruct", "train"]
    assert_manifest_matches_files(root)


@pytest.fixture(scope="module")
def samples_run(tmp_path_factory):
    """A generated one-shape cohort whose sample files a test may swap out."""
    cfg = mini_config(tmp_path_factory.mktemp("samples"), train_shapes=1, test_shapes=0)
    harness.cmd_generate(cfg)
    return cfg


@pytest.mark.parametrize(
    "part, label, match",
    [
        ("seg", None, r"expected an \(n, 4\) array, got shape \(\d+, 3\)"),
        ("reg", None, r"expected an \(n, 7\) array, got shape \(\d+, 6\)"),
        *(("seg", label, "labels must be integers in 0-4") for label in (-1.0, 5.0, 1.5, np.nan)),
    ],
    ids=["seg-width", "reg-width", "label-minus-1", "label-5", "label-1.5", "label-nan"],
)
def test_train_rejects_malformed_samples(samples_run, part, label, match):
    """A sample file one column short, or holding a label that is not an
    integer in 0-4, is rejected with an error naming it."""
    path = os.path.join(samples_run.out_dir, "samples", f"train_0000_{part}.npy")
    good = np.load(path)
    if label is None:
        bad = good[:, :-1]
    else:
        bad = good.copy()
        bad[7, 3] = label
    np.save(path, bad)
    try:
        with pytest.raises(ValueError, match=match) as err:
            harness.cmd_train(samples_run)
        assert path in str(err.value)
    finally:
        np.save(path, good)


@pytest.mark.parametrize(
    "part, row, col, value, dtype",
    [
        ("seg", slice(None), 0, np.nan, "float64"),  # the x column
        ("seg", 7, 2, -np.inf, "float64"),  # one row
        ("reg", 7, 1, np.nan, "float64"),  # a coordinate tuple
        ("reg", 7, 5, np.inf, "float64"),  # a position
        ("reg", 7, 4, 1e39, "float32"),  # finite in float64, overflows float32
    ],
    ids=["seg-x-column", "seg-one-row", "reg-uvc", "reg-xyz", "reg-xyz-float32-overflow"],
)
def test_train_rejects_non_finite_samples(samples_run, part, row, col, value, dtype):
    """A sample coordinate that is not finite in the run's dtype is rejected
    with an error naming its file, before the old model's outputs go."""
    import shutil

    cfg = replace(samples_run, epochs=1, dtype=dtype)
    path = os.path.join(cfg.out_dir, "samples", f"train_0000_{part}.npy")
    old_output = Path(cfg.out_dir, "recon", "ideal", "old.ply")
    old_output.parent.mkdir(parents=True)
    old_output.write_text("the old model's reconstruction\n")
    good = np.load(path)
    bad = good.copy()
    bad[row, col] = value
    np.save(path, bad)
    try:
        with pytest.raises(ValueError, match="coordinates must be finite") as err:
            harness.cmd_train(cfg)
        assert path in str(err.value)
        assert old_output.exists()
    finally:
        np.save(path, good)
        shutil.rmtree(old_output.parent.parent, ignore_errors=True)


def test_load_model_keeps_what_reconstruction_reads(run):
    """load_model returns the checkpoint's nets, codes and stats, without
    the Adam moments and log that only training reads."""
    ckpt, stats = harness.load_model(run.out_dir)
    full = harness.load_checkpoint(os.path.join(run.out_dir, "checkpoint.nihc"))
    assert sorted(full.opt) == ["lat", "reg", "seg"] and len(full.log) == run.epochs
    assert ckpt.opt == {} and ckpt.log is None
    for name in ("seg_net", "reg_net"):
        np.testing.assert_array_equal(getattr(ckpt, name).parameters,
                                      getattr(full, name).parameters)
    np.testing.assert_array_equal(ckpt.latent_codes, full.latent_codes)
    assert ckpt.stats is stats
    np.testing.assert_array_equal(stats.mean, full.stats.mean)
    np.testing.assert_array_equal(stats.cov_inv, full.stats.cov_inv)


def test_reconstruct_from_interrupted_training(tmp_path, monkeypatch):
    """A periodic checkpoint is a complete model: after training stops
    mid-run, reconstruction works from the last one written."""

    class Interrupted(Exception):
        pass

    schedule = harness.training.prior_schedule

    def stop_at_epoch_2(epoch):
        if epoch == 2:
            raise Interrupted
        return schedule(epoch)

    cfg = mini_config(tmp_path / "interrupted", test_shapes=1, epochs=4, checkpoint_every=2)
    harness.cmd_generate(cfg)
    monkeypatch.setattr(harness.training, "prior_schedule", stop_at_epoch_2)
    with pytest.raises(Interrupted):
        harness.cmd_train(cfg)
    ckpt, stats = harness.load_model(cfg.out_dir)
    assert len(harness.load_checkpoint(os.path.join(cfg.out_dir, "checkpoint.nihc")).log) == 2
    assert stats is not None
    rels, _ = harness.reconstruct_case(cfg, ckpt, stats, "test_0000", "ideal")
    assert os.path.exists(os.path.join(cfg.out_dir, rels[0]))


def test_float32_model_reconstructs_in_float32(tmp_path, run):
    """A float32 run's checkpoint loads float32 nets and latent codes, so
    reconstruct fits a float32 latent with the bits of the net training
    returned; only the prior's stats are float64."""
    import shutil

    from heartfields import inference

    dst = tmp_path / "f32"
    shutil.copytree(run.out_dir, dst)
    cfg = mini_config(dst, dtype="float32", epochs=10)
    result = harness.cmd_train(cfg)
    ckpt, stats = harness.load_model(cfg.out_dir)
    for loaded, trained in ((ckpt.seg_net, result.seg_net), (ckpt.reg_net, result.reg_net)):
        assert loaded.parameters.dtype == np.float32
        assert loaded.parameters.tobytes() == trained.parameters.tobytes()
    assert result.latents.codes.dtype == ckpt.latent_codes.dtype == np.float32
    assert ckpt.latent_codes.tobytes() == result.latents.codes.tobytes()
    assert stats.mean.dtype == stats.cov_inv.dtype == np.float64

    rels, _ = harness.reconstruct_case(cfg, ckpt, stats, "test_0000", "ideal")
    latent = np.load(os.path.join(dst, next(r for r in rels if r.endswith("_latent.npy"))))
    weights = inference.InferenceWeights(
        lambda_bce=harness.CONDITIONS["ideal"][1], steps=cfg.infer_steps,
        max_points=cfg.infer_points, lr=cfg.infer_lr,
    )
    rec = inference.optimize_latent(
        harness._condition_contours(cfg.out_dir, "test_0000", "ideal"), result.seg_net,
        result.stats, weights, seed=acq.stable_hash("test_0000:ideal"),
    )
    assert latent.dtype == rec.latent.dtype == np.float32
    assert latent.tobytes() == rec.latent.tobytes()


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
    ckpt, stats = harness.load_model(str(dst))
    rels, _ = harness.reconstruct_case(cfg, ckpt, stats, "test_0001", "ideal")
    assert os.path.exists(os.path.join(dst, rels[0]))


def test_reconstruct_calls_add_to_the_manifest(tmp_path, run):
    """Later calls keep the earlier ones' artifacts and case durations; a
    re-run case replaces only its own entries."""
    import shutil

    dst = tmp_path / "added"
    shutil.copytree(run.out_dir, dst)
    cfg = mini_config(dst)
    before = harness.Manifest(dst).doc["stages"]["reconstruct"]
    harness.cmd_reconstruct(cfg, conditions=["misaligned"])
    harness.cmd_reconstruct(cfg, cases=["test_0000"], conditions=["ideal"])
    after = harness.Manifest(dst).doc["stages"]["reconstruct"]
    added = {"misaligned/test_0000", "misaligned/test_0001"}
    assert set(after["case_durations_s"]) == set(before["case_durations_s"]) | added
    assert after["case_durations_s"]["ideal/test_0001"] == (
        before["case_durations_s"]["ideal/test_0001"]
    )
    assert set(after["artifacts"]) == set(before["artifacts"]) | {
        f"recon/{case}{suffix}" for case in added for suffix in (".ply", "_latent.npy", "_trace.csv")
    }
    assert_manifest_matches_files(dst)
    assert harness.cmd_evaluate(cfg) == 0
    with open(os.path.join(dst, "eval", "per_case.csv")) as f:
        assert {r["condition"] for r in csv.DictReader(f)} == {
            "ideal", "misaligned", "ablation:halfsax"
        }


def test_reconstruct_missing_contour_file_writes_nothing(tmp_path, run):
    """A case whose contour file is gone is found before the first fit, so
    no case's files are written."""
    import shutil

    dst = tmp_path / "missing"
    shutil.copytree(run.out_dir, dst)
    os.remove(dst / "contours" / "test_0001_misaligned.json")
    before = tree_hashes(dst)
    with pytest.raises(FileNotFoundError, match=re.escape("test_0001_misaligned.json")):
        harness.cmd_reconstruct(mini_config(dst), conditions=["ideal", "misaligned"])
    assert tree_hashes(dst) == before


def test_reconstruct_records_each_case_as_it_finishes(tmp_path, run, monkeypatch):
    """A fit that fails on a later case leaves the cases before it in the
    manifest, their files hashed as written."""
    import shutil

    from heartfields import inference

    fit = inference.optimize_latent
    fits = []

    def fail_second(*args, **kwargs):
        fits.append(1)
        if len(fits) == 2:
            raise RuntimeError("fit failed")
        return fit(*args, **kwargs)

    dst = tmp_path / "partial"
    shutil.copytree(run.out_dir, dst)
    before = harness.Manifest(dst).doc["stages"]["reconstruct"]
    monkeypatch.setattr(inference, "optimize_latent", fail_second)
    with pytest.raises(RuntimeError, match="fit failed"):
        harness.cmd_reconstruct(mini_config(dst), conditions=["misaligned"])
    after = harness.Manifest(dst).doc["stages"]["reconstruct"]
    assert set(after["case_durations_s"]) == set(before["case_durations_s"]) | {
        "misaligned/test_0000"
    }
    assert set(after["artifacts"]) == set(before["artifacts"]) | {
        f"recon/misaligned/test_0000{suffix}" for suffix in (".ply", "_latent.npy", "_trace.csv")
    }
    assert not os.path.exists(dst / "recon" / "misaligned" / "test_0001.ply")
    assert_manifest_matches_files(dst)


def test_a_case_interrupted_after_its_first_file_leaves_no_ply(tmp_path, run, monkeypatch):
    """A case's PLY, by which evaluate finds it, is written last: a fit
    stopped after its first file leaves none, and evaluate scores the
    recorded case and exits 1 instead of reading a PLY without its latent."""
    import shutil

    class Interrupted(Exception):
        pass

    write, written = harness._write, []

    def interrupted(root, rel, *args):
        if "test_0001" in rel:
            if written:
                raise Interrupted
            written.append(rel)
        return write(root, rel, *args)

    dst = tmp_path / "interrupted"
    shutil.copytree(run.out_dir, dst)
    cfg = mini_config(dst)
    monkeypatch.setattr(harness, "_write", interrupted)
    with pytest.raises(Interrupted):
        harness.cmd_reconstruct(cfg, conditions=["misaligned"])
    monkeypatch.undo()
    assert os.path.exists(dst / written[0])
    assert not os.path.exists(dst / "recon" / "misaligned" / "test_0001.ply")
    assert harness.cmd_evaluate(cfg, conditions=["misaligned"]) == 1
    with open(dst / "eval" / "per_case.csv") as f:
        assert [r["case_id"] for r in csv.DictReader(f)] == ["test_0000"]


def test_reconstruct_dense_labels(tmp_path, run, load_label_volume):
    cfg = mini_config(run.out_dir)
    ckpt, stats = harness.load_model(run.out_dir)
    rels, _ = harness.reconstruct_case(
        cfg, ckpt, stats, "test_0000", "ideal", dense_spacing=8.0
    )
    vol = [r for r in rels if r.endswith(".u8")]
    assert vol
    labels, header = load_label_volume(os.path.join(run.out_dir, vol[0][: -len(".u8")]))
    assert labels.ndim == 3 and header["spacing"] == 8.0


def test_label_volume_spans_the_contours_not_the_fit(tmp_path, run, monkeypatch):
    """A label volume's box is that of the case's contour points, so a
    sprawling decoded mesh (here scaled 10x) leaves its origin and dims,
    and so its cost, unchanged."""
    import shutil

    from heartfields import inference

    dst = tmp_path / "box"
    shutil.copytree(run.out_dir, dst)
    cfg = mini_config(dst)
    ckpt, stats = harness.load_model(dst)
    base = dst / "recon" / "ideal" / "test_0000_labels"

    def header():
        harness.reconstruct_case(cfg, ckpt, stats, "test_0000", "ideal", dense_spacing=8.0)
        return json.loads(Path(f"{base}.json").read_text())

    fitted = header()
    true_predict = inference.predict_mesh

    def scaled(*args):
        mesh = true_predict(*args)
        return replace(mesh, vertices=10.0 * mesh.vertices)

    monkeypatch.setattr(inference, "predict_mesh", scaled)
    sprawling = header()
    assert (sprawling["origin"], sprawling["dims"]) == (fitted["origin"], fitted["dims"])
    contours = acq.load_contours(dst / "contours" / "test_0000_ideal.json")
    lo, dims = inference.label_box(contours.all_points(acq.KIND_CONTOUR)[0], 8.0)
    assert (fitted["origin"], fitted["dims"]) == (lo.tolist(), dims.tolist())


@pytest.mark.parametrize("spacing", [0.0, -4.0, float("nan")])
def test_reconstruct_rejects_a_bad_dense_spacing(tmp_path, run, monkeypatch, spacing):
    """A label-volume spacing that is not positive and finite is rejected
    before any file is read or written and before the latent fit starts."""
    import shutil

    from heartfields import inference

    def no_fit(*args, **kwargs):
        raise AssertionError("the latent fit ran")

    monkeypatch.setattr(inference, "optimize_latent", no_fit)
    dst = tmp_path / "spacing"
    shutil.copytree(run.out_dir, dst)
    before = tree_hashes(dst)
    cfg = mini_config(dst)
    with pytest.raises(ValueError, match="dense_spacing must be positive and finite"):
        harness.cmd_reconstruct(cfg, conditions=["ideal"], dense_spacing=spacing)
    ckpt, stats = harness.load_model(dst)
    with pytest.raises(ValueError, match="dense_spacing must be positive and finite"):
        harness.reconstruct_case(cfg, ckpt, stats, "test_0000", "ideal", dense_spacing=spacing)
    assert tree_hashes(dst) == before


def test_failed_label_volume_leaves_no_file_of_the_case(tmp_path, run, monkeypatch):
    """The label volume is computed before any file of the case is written,
    so a failure there leaves the run, manifest included, as it was."""
    import shutil

    from heartfields import inference

    class VolumeFailed(Exception):
        pass

    def fail(*args, **kwargs):
        raise VolumeFailed

    monkeypatch.setattr(inference, "predict_dense_labels", fail)
    dst = tmp_path / "volume"
    shutil.copytree(run.out_dir, dst)
    before = tree_hashes(dst)
    cfg = mini_config(dst)
    # no file of test_0000 under "misaligned" exists yet, so any write shows
    with pytest.raises(VolumeFailed):
        harness.cmd_reconstruct(cfg, cases=["test_0000"], conditions=["misaligned"],
                                dense_spacing=4.0)
    assert tree_hashes(dst) == before


def test_reconstruct_unknown_ablation_row(tmp_path):
    # the out dir holds no contours: the name is rejected before any read
    cfg = mini_config(tmp_path)
    for name in ("ablation:nope", "nope"):
        with pytest.raises(ValueError) as err:
            harness.reconstruct_case(cfg, None, None, "test_0000", name)
        assert f"{name!r}" in str(err.value)
        for condition in harness.CONDITIONS:
            assert condition in str(err.value)


# each condition's contour file, BCE weight and kept views of the contour
# set whose views are FILE_VIEWS, taken at commit 42a50c3, where inference
# held the weights and acquisition the ablation rows
FILE_VIEWS = ["lax_3ch", "sax01", "lax_4ch", "sax00", "lax_2ch", "sax02", "sax03", "sax04"]
SAX = ["sax00", "sax01", "sax02", "sax03", "sax04"]
PINNED_CONDITIONS = {
    "ideal": ("ideal", 10.0, FILE_VIEWS),
    "misaligned": ("misaligned", 1.0, FILE_VIEWS),
    "ablation:3ch+4ch+allsax": ("ideal", 10.0, SAX + ["lax_3ch", "lax_4ch"]),
    "ablation:4ch+allsax": ("ideal", 10.0, SAX + ["lax_4ch"]),
    "ablation:3ch+allsax": ("ideal", 10.0, SAX + ["lax_3ch"]),
    "ablation:allsax": ("ideal", 10.0, SAX),
    "ablation:halfsax": ("ideal", 10.0, ["sax00", "sax02", "sax04"]),
}


def test_conditions_pinned(tmp_path, monkeypatch, capsys):
    """What a fit under each condition reads and weighs, up to the call of
    ``optimize_latent``; and the CLI offers exactly these conditions."""
    cfg = mini_config(tmp_path)
    slices = [
        acq.Slice(acq.SlicePlane(view, [0, 0, 0], [0, 0, 1.0], [1.0, 0, 0], [0, 1.0, 0]),
                  np.zeros((1, 3)), np.zeros(1, np.int8), np.zeros(1, np.uint8))
        for view in FILE_VIEWS
    ]
    for tag in ("ideal", "misaligned"):
        path = os.path.join(cfg.out_dir, "contours", f"test_0000_{tag}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        acq.save_contours(path, acq.ContourSet("test_0000", slices, provenance=tag))

    class Fitted(Exception):
        pass

    def optimize_latent(contours, seg_net, stats, weights, seed=0):
        raise Fitted(contours.provenance, weights, views(contours))

    monkeypatch.setattr(harness.inference, "optimize_latent", optimize_latent)
    seen = {}
    for condition in harness.CONDITIONS:
        with pytest.raises(Fitted) as fit:
            harness.reconstruct_case(cfg, SimpleNamespace(seg_net=None), None, "test_0000",
                                     condition)
        tag, weights, kept = fit.value.args
        assert (weights.steps, weights.max_points, weights.lr) == (
            cfg.infer_steps, cfg.infer_points, cfg.infer_lr)
        seen[condition] = (tag, weights.lambda_bce, kept)
    assert seen == PINNED_CONDITIONS
    assert list(seen) == list(PINNED_CONDITIONS)

    for command in ("reconstruct", "evaluate"):
        with pytest.raises(SystemExit):
            harness.main([command, "--help"])
        choices = re.search(r"--condition \{([^}]*)\}", capsys.readouterr().out).group(1)
        assert choices.split(",") == list(harness.CONDITIONS)


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


def test_evaluate_reads_the_generating_mesh_exactly(run):
    """Ideal contours lie on the generating mesh, and its PLY keeps every
    bit, so their distance to it is rounding of the slicer alone; a mesh
    read back from 9-digit text would leave ~2e-8 mm."""
    with open(os.path.join(run.out_dir, "eval", "per_case.csv")) as f:
        rows = list(csv.DictReader(f))
    assert {r["condition"] for r in rows} == {"ideal", "ablation:halfsax"}
    assert all(float(r["p2s_ref"]) < 1e-12 for r in rows)


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
        anatomy.InstanceMesh(topo, verts),
    )
    return topo


@pytest.mark.parametrize("edit", ["spec", "faces", "coordinates", "tags"])
def test_run_meshes_must_be_of_the_template(tmp_path, run, edit):
    """A shape or reconstruction PLY of another template, or with its faces,
    coordinates or tags changed, is refused naming the file, not read as
    vertices of the run's template."""
    import dataclasses
    import shutil

    from heartfields import anatomy

    dst = tmp_path / "foreign"
    shutil.copytree(run.out_dir, dst)
    topo = anatomy.build_template()
    other = {
        "spec": anatomy.build_template(anatomy.TemplateSpec(n_phi=48)),
        "faces": dataclasses.replace(topo, faces=topo.faces[:, ::-1]),
        "coordinates": dataclasses.replace(topo, uvc=topo.uvc + [0.0, 0.0, 0.0, 1e-9]),
        "tags": dataclasses.replace(topo, surface_tag=np.roll(topo.surface_tag, 1)),
    }[edit]
    mesh = anatomy.generate_shape(other, anatomy.sample_params(9000))
    ckpt, _ = harness.load_model(dst)
    reads = {
        "shapes/test_0000.ply": lambda: harness.load_instance_mesh(dst, "test_0000"),
        "recon/ideal/test_0001.ply":
            lambda: harness.evaluate_case(str(dst), topo, ckpt, "test_0001", "ideal"),
    }
    for rel, read in reads.items():
        anatomy.write_mesh_ply(dst / rel, mesh)
        with pytest.raises(ValueError, match=re.escape(f"{dst / rel}: not a mesh of the run's")):
            read()


def test_evaluate_inverted_wall_mass_is_nan(tmp_path, run):
    """An LV cavity that bulges through its epicardium leaves a negative
    wall volume, which is reported as a NaN mass."""
    dst = tmp_path / "inverted"
    topo = _copy_with_inverted_lv_wall(run, dst)
    ckpt, _ = harness.load_model(dst)
    report, extras = harness.evaluate_case(str(dst), topo, ckpt, "test_0000", "ideal")
    assert np.isnan(report["lv_mass"])
    assert report["rv_mass"] == extras["true_rv_mass"]  # RV wall untouched


def test_evaluate_summary_counts_inverted_walls(tmp_path, run):
    """One NaN mass is counted and left out of its condition's mean, SD and
    Bland-Altman limits instead of turning them into NaN."""
    dst = tmp_path / "inverted"
    _copy_with_inverted_lv_wall(run, dst)
    cfg = mini_config(dst)
    assert harness.cmd_evaluate(cfg, conditions=["ideal"]) == 0
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


# sha256 of the evaluation tables and of report.md up to its Timing section,
# for the `run` fixture and for its copy with an inverted LV wall, taken at
# commit 92d0a09 and re-taken when meshes became binary PLYs that read back
# exactly (per-case p2s_ref ~2e-8 -> ~1e-16 mm, ideal lv_mass_sd
# 0.0458256 -> 0.0458257) and when a mesh's landmarks became those of its
# vertices (p2s_ref digits only, e.g. 1.29974e-16 -> 1.11308e-16 mm)
GOLDEN_EVAL_SHA256 = {
    "run": {
        "eval/per_case.csv": "36bbd225ce5a78f06ca357fe6d9975f8bd311a5cae257faf549c49f436f2ee7b",
        "eval/summary.csv": "fd3afb99de31a7eeec26f7fa61e2b931cbd24b2f09d9e0ed6ece1a3420a35421",
        "eval/bland_altman.csv": "85cfb8aff2ad2942c5f0603281c3327eda5e78fccbf8e668fe54cff0c379561b",
        "report.md": "974c2ac617e059cd025ea8a0e6f6e940f31de6e7cdf7734df779bb6e02bd404e",
    },
    "inverted": {
        "eval/per_case.csv": "09d32b909db8294454853680646f97e023bbdc99c9427882d394978a827fea78",
        "eval/summary.csv": "cfde99fe8f66d9d12e5c55569891fc9e2f047a5a24751cef21614b664cfbdd60",
        "eval/bland_altman.csv": "ae38d4a9735e2137f3864903679f20ea5ae05912f8c642d2deb5564486e0ba9a",
        "report.md": "9ba46e860cce2a79d48d53551841122d03b86f1a529386d998be4a4332a395ee",
    },
}


def _evaluation_digests(root):
    out = {
        rel: harness.file_hash(os.path.join(root, rel))
        for rel in (harness.PER_CASE_CSV, harness.SUMMARY_CSV, harness.BLAND_ALTMAN_CSV)
    }
    with open(os.path.join(root, harness.REPORT), "rb") as f:
        report = f.read().split(b"## Timing")[0]
    out[harness.REPORT] = hashlib.sha256(report).hexdigest()
    return out


def test_evaluation_outputs_golden(tmp_path, run, golden_arithmetic):
    dst = tmp_path / "inverted"
    _copy_with_inverted_lv_wall(run, dst)
    cfg = mini_config(dst)
    assert harness.cmd_evaluate(cfg) == 0
    digests = {"run": _evaluation_digests(run.out_dir), "inverted": _evaluation_digests(dst)}
    assert digests == GOLDEN_EVAL_SHA256


def test_evaluate_takes_each_contour_files_reference_distances_once(tmp_path, run, monkeypatch):
    """A case's reference computes its contour points' distances to the
    generating mesh once per contour file, however many conditions read
    that file: ideal and its ablation row share one call."""
    import shutil

    from heartfields import metrics

    dst = tmp_path / "once"
    shutil.copytree(run.out_dir, dst)
    # the ideal fits stand in for misaligned ones
    shutil.copytree(dst / harness._recon("ideal"), dst / harness._recon("misaligned"))
    cases = ("test_0000", "test_0001")
    truths = [harness.load_instance_mesh(dst, case).vertices for case in cases]
    calls = []
    point_to_surface = metrics.point_to_surface

    def counted(points, vertices, faces):
        calls.extend(i for i, v in enumerate(truths) if np.array_equal(v, vertices))
        return point_to_surface(points, vertices, faces)

    monkeypatch.setattr(metrics, "point_to_surface", counted)
    conditions = ["ideal", "misaligned", "ablation:halfsax"]
    assert harness.cmd_evaluate(mini_config(dst), conditions=conditions) == 0
    assert sorted(calls) == [0, 0, 1, 1]
    with open(dst / harness.PER_CASE_CSV) as f:
        rows = list(csv.DictReader(f))
    # the rows stay condition-major
    assert [(r["condition"], r["case_id"]) for r in rows] == [
        (condition, case) for condition in conditions for case in cases
    ]


def test_evaluate_reads_each_contour_file_once_per_case(tmp_path, run, monkeypatch):
    """Ideal and its ablation row share a contour file and misaligned reads
    the other: each case's two files are read once each."""
    import shutil

    dst = tmp_path / "reads"
    shutil.copytree(run.out_dir, dst)
    # the ideal fits stand in for misaligned ones
    shutil.copytree(dst / harness._recon("ideal"), dst / harness._recon("misaligned"))
    reads = []
    load_contours = acq.load_contours

    def counted(path):
        reads.append(os.path.relpath(path, dst))
        return load_contours(path)

    monkeypatch.setattr(acq, "load_contours", counted)
    conditions = ["ideal", "misaligned", "ablation:halfsax"]
    assert harness.cmd_evaluate(mini_config(dst), conditions=conditions) == 0
    assert sorted(reads) == sorted(harness._contour_json(case, tag)
                                   for case in ("test_0000", "test_0001")
                                   for tag in ("ideal", "misaligned"))


def test_manifest_rejects_a_corrupt_file(tmp_path):
    """A truncated manifest, JSON that is not a manifest, or a stage record
    without an artifacts object and a numeric duration raises a ValueError
    naming the file instead of a bare decode, type or key error."""
    path = tmp_path / harness.MANIFEST
    for text in ('{"config_hash": null, "stages": {"generate": {', "[]", '{"stages": []}',
                 '{"stages": {"generate": []}}', '{"stages": {"generate": {}}}',
                 '{"stages": {"generate": {"artifacts": {}, "duration_s": "1.5"}}}',
                 '{"stages": {"generate": {"artifacts": [], "duration_s": 1.5}}}'):
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            harness.Manifest(str(tmp_path))


@pytest.mark.parametrize("latent", ["truncated", "nan", "2-d", "length"])
def test_evaluate_case_checks_the_latent_file(tmp_path, run, latent):
    """A latent file that does not load, or is not a finite vector of the
    model's latent dim, raises a ValueError naming the file."""
    import shutil

    dst = tmp_path / "latent"
    shutil.copytree(run.out_dir, dst)
    path = dst / "recon" / "ideal" / "test_0000_latent.npy"
    code = np.load(path)
    if latent == "truncated":
        path.write_bytes(path.read_bytes()[:-8])
    else:
        bad = {"nan": np.where(np.arange(len(code)) == 1, np.nan, code),
               "2-d": code[None, :], "length": code[:-1]}[latent]
        np.save(path, bad)
    ckpt, _ = harness.load_model(dst)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        harness.evaluate_case(str(dst), harness.anatomy.build_template(), ckpt, "test_0000",
                              "ideal")


def test_evaluate_missing_reconstruction_nonzero_exit(tmp_path, run):
    import shutil

    src = run.out_dir
    dst = tmp_path / "missing"
    shutil.copytree(src, dst)
    cfg = mini_config(dst)
    os.remove(os.path.join(dst, "recon", "ideal", "test_0001.ply"))
    assert harness.cmd_evaluate(cfg, conditions=["ideal"]) == 1


def test_evaluate_with_a_missing_reconstruction_reports_the_scored_cases(tmp_path, run):
    """An evaluation that skips a missing reconstruction still reports the
    cases it scored."""
    import shutil

    dst = tmp_path / "missing"
    shutil.copytree(run.out_dir, dst)
    os.remove(dst / "report.md")
    os.remove(dst / "recon" / "ideal" / "test_0001.ply")
    assert harness.cmd_evaluate(mini_config(dst), conditions=["ideal"]) == 1
    report = (dst / "report.md").read_text()
    rows = re.findall(r"^\| ideal \| (\d+) \| ", report, re.M)
    assert rows == ["1", "1"]  # n of the contour and mesh tables


def test_evaluate_failed_report_writes_nothing(tmp_path, run, monkeypatch):
    """The report is rendered before any file is written, so a failed render
    leaves the old evaluation, its report and its manifest record."""
    import shutil

    class Failed(Exception):
        pass

    def fail(*args):
        raise Failed

    dst = tmp_path / "failed"
    shutil.copytree(run.out_dir, dst)
    before = tree_hashes(dst)
    monkeypatch.setattr(harness, "_report_table", fail)
    with pytest.raises(Failed):
        harness.cmd_evaluate(mini_config(dst), conditions=["ideal"])
    assert tree_hashes(dst) == before


def test_evaluate_nothing_to_evaluate_writes_nothing(tmp_path, run):
    """No reconstruction under the selected conditions is an error, not a
    set of header-only tables that the report would show as empty."""
    import shutil

    dst = tmp_path / "nothing"
    shutil.copytree(run.out_dir, dst)
    before = tree_hashes(dst)
    with pytest.raises(ValueError, match="nothing to evaluate: .* misaligned; run reconstruct"):
        harness.cmd_evaluate(mini_config(dst), conditions=["misaligned"])
    assert tree_hashes(dst) == before
    shutil.rmtree(dst / "recon")
    before = tree_hashes(dst)
    with pytest.raises(ValueError, match="nothing to evaluate"):
        harness.cmd_evaluate(mini_config(dst))
    assert tree_hashes(dst) == before


def test_evaluate_unknown_condition_writes_nothing(tmp_path, run):
    """A condition name not in CONDITIONS is rejected before any case is
    read, so the last evaluation's tables and manifest record stay."""
    import shutil

    dst = tmp_path / "typo"
    shutil.copytree(run.out_dir, dst)
    before = tree_hashes(dst)
    with pytest.raises(ValueError) as err:
        harness.cmd_evaluate(mini_config(dst), conditions=["ideal", "ideal:typo"])
    assert "'ideal:typo'" in str(err.value)
    for condition in harness.CONDITIONS:
        assert condition in str(err.value)
    assert tree_hashes(dst) == before


def test_evaluate_repeated_condition_writes_nothing(tmp_path, run):
    """A condition listed twice is rejected before anything is written, not
    scored and tabled twice."""
    import shutil

    dst = tmp_path / "twice"
    shutil.copytree(run.out_dir, dst)
    before = tree_hashes(dst)
    with pytest.raises(ValueError, match="^condition 'ideal' is listed twice$"):
        harness.cmd_evaluate(mini_config(dst), conditions=["ideal", "ablation:halfsax", "ideal"])
    assert tree_hashes(dst) == before


def test_reconstruct_unknown_condition_writes_nothing(tmp_path, run):
    """A list with an unknown condition after a known one is rejected before
    the known one's files are written, so no recon file goes unrecorded."""
    import shutil

    dst = tmp_path / "typo"
    shutil.copytree(run.out_dir, dst)
    manifest = (dst / "manifest.json").read_bytes()
    with pytest.raises(ValueError, match="'ideal:typo'"):
        harness.cmd_reconstruct(mini_config(dst), conditions=["ablation:allsax", "ideal:typo"])
    assert not os.path.exists(dst / harness._recon("ablation:allsax"))
    assert (dst / "manifest.json").read_bytes() == manifest


def test_reconstruct_unknown_case_writes_nothing(tmp_path, run):
    """A case list with a typo after a known case is rejected before the
    known one's files are written, so no recon file goes unrecorded."""
    import shutil

    dst = tmp_path / "typo"
    shutil.copytree(run.out_dir, dst)
    before = tree_hashes(dst)
    with pytest.raises(ValueError, match="'test_00O1'; known cases: test_0000 to test_0001"):
        harness.cmd_reconstruct(mini_config(dst), cases=["test_0000", "test_00O1"],
                                conditions=["misaligned"])
    assert tree_hashes(dst) == before


@pytest.mark.parametrize("cases, conditions, repeated", [
    (["test_0000", "test_0001", "test_0000"], ["ideal"], "case 'test_0000'"),
    (["test_0001"], ["misaligned", "ideal", "misaligned"], "condition 'misaligned'"),
])
def test_reconstruct_repeated_case_or_condition_writes_nothing(tmp_path, run, cases, conditions,
                                                                repeated):
    """A case or condition listed twice is rejected before anything is
    written, not fitted twice."""
    import shutil

    dst = tmp_path / "twice"
    shutil.copytree(run.out_dir, dst)
    before = tree_hashes(dst)
    with pytest.raises(ValueError, match=f"^{repeated} is listed twice$"):
        harness.cmd_reconstruct(mini_config(dst), cases=cases, conditions=conditions)
    assert tree_hashes(dst) == before


def test_reconstruct_without_latent_stats_is_rejected(tmp_path, monkeypatch):
    """A model trained on one shape has no latent stats for the prior; the
    reconstruction says so before it reads a contour or writes a file."""
    cfg = mini_config(tmp_path / "one", train_shapes=1, test_shapes=1, epochs=2)
    harness.cmd_generate(cfg)
    harness.cmd_train(cfg)
    before = tree_hashes(cfg.out_dir)

    def load_contours(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(harness.acq, "load_contours", load_contours)
    with pytest.raises(ValueError, match=r"checkpoint\.nihc .*fewer than 2 shapes"):
        harness.cmd_reconstruct(cfg, conditions=["ideal"])
    assert tree_hashes(cfg.out_dir) == before


def test_manifest_records_the_compute_environment(tmp_path, run, monkeypatch):
    import scipy

    stages = harness.Manifest(run.out_dir).doc["stages"]
    for stage in ("train", "reconstruct"):
        record = stages[stage]
        assert record["compute_dtype"] == run.dtype
        assert record["numpy_version"] == np.__version__
        assert record["scipy_version"] == scipy.__version__
        assert record["blas"].split()[0] == np.show_config(mode="dicts")[
            "Build Dependencies"]["blas"]["name"]
    # recording it changes no artifact
    hashes = []
    for name, env in (("with_env", harness._compute_env), ("without_env", lambda dtype: {})):
        monkeypatch.setattr(harness, "_compute_env", env)
        cfg = mini_config(tmp_path / name, epochs=3)
        harness.cmd_generate(cfg)
        harness.cmd_train(cfg)
        harness.cmd_reconstruct(cfg, cases=["test_0000"], conditions=["ideal"])
        hashes.append(harness.Manifest(cfg.out_dir).artifact_hashes())
    assert "compute_dtype" not in harness.Manifest(cfg.out_dir).doc["stages"]["train"]
    assert hashes[0] == hashes[1]


# ------------------------------------------------------------------- report


def test_report_contents_and_idempotence(tmp_path, run):
    """A second evaluation of the same reconstructions reports the same
    tables; only the timing differs."""
    import shutil

    dst = tmp_path / "again"
    shutil.copytree(run.out_dir, dst)
    first = (dst / "report.md").read_text()
    assert "experiment 1 analog" in first
    assert "experiment 2 analog" in first
    assert "experiment 3 analog" in first
    assert "Timing" in first
    assert harness.cmd_evaluate(mini_config(dst)) == 0
    again = (dst / "report.md").read_text()
    assert again.split("## Timing")[0] == first.split("## Timing")[0]


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


@pytest.mark.parametrize("argv", [["generate", "--train-shapes", "3"],
                                  ["generate", "--test-shapes", "1"], ["train", "--epochs", "5"]])
def test_cli_takes_settings_from_the_config_file_only(tmp_path, capsys, argv):
    """A stage's flag cannot change a cohort or training setting: the later
    stages, which read the config file, would run on other settings."""
    out = tmp_path / "flagged"
    with pytest.raises(SystemExit) as exit_:
        harness.main(argv + ["--out", str(out)])
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


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
    assert harness.main(["evaluate", "--config", str(cfgfile)]) == 0
    report = (out / "report.md").read_text()
    # the ideal rows of the three tables that show every condition
    assert len(re.findall(r"^\| ideal \| ", report, re.M)) == 3
