"""The benchmark workloads and the loop that measures them.

Each workload is a closed loop in one process: one unit runs after the
other, with no concurrency. A unit is

    cohort       one `cmd_generate` of 5 train + 1 test shapes (the paper's
                 200:40 mix) at the paper's slice spacing and point budgets;
                 unit k draws its own shapes; a cycle is six units
    train        one `cmd_train` of the paper network over a 4-shape
                 train-only cohort, 8 epochs, checkpointing every 4
    reconstruct  `reconstruct_case` then `evaluate_case` for one case under
                 one condition; a cycle is six cases, two each under
                 ideal, misaligned and ablation:halfsax

A run measures whole cycles of units while the next one is expected to
end within the run's seconds, and at least one.
All inputs derive from the run's seed (`seeded_config`) and the unit
index. Every unit's outputs are checked outside its timed region; a unit
that raises or fails a check counts as failed. Repeated set-ups, and in a
traced run the traced repeat of each unit, must reproduce the same
artifact hashes. The reference task of `calibration` runs between units
and between set-ups, so each timed figure can be rescaled to a fixed
machine speed.
"""

import contextlib
import csv
import dataclasses
import math
import os
import shutil
import time
import traceback

import numpy as np

from heartfields import acquisition, anatomy, checkpoint, harness

import calibration
import layers
from tracer import Tracer

SETUP_REPEATS = 3
PAPER_INFER_STEPS = 300


def seeded_config(seed, out_dir, **settings):
    """Experiment config whose four seeds derive from the benchmark seed."""
    rng = np.random.default_rng(seed)
    train_seed0 = int(rng.integers(0, 1_000_000))
    return harness.ExperimentConfig(
        out_dir=str(out_dir),
        train_seed0=train_seed0,
        test_seed0=train_seed0 + 1_000_000,
        misalign_seed=int(rng.integers(0, 2**31)),
        train_seed=int(rng.integers(0, 2**31)),
        **settings,
    ).validate()


def _file_size(arguments, _result):
    return {"bytes": os.path.getsize(arguments["path"])}


class Workload:
    name = ""
    settings = {}
    cycle = 1  # a run measures whole cycles of this many units; a cycle
    # samples the workload's mix of inputs once
    compute_dtype = None

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.config = None
        self.reference = {}  # key -> artifact hashes of the first repetition

    def setup_dir(self, index):
        return os.path.join(self.work_dir, f"setup{index}")

    def new_config(self, out_dir):
        return seeded_config(self.seed, out_dir, **self.settings)

    def counters(self):
        return {
            "anatomy.label_points": lambda a, r: {"points": len(a["points"])},
            "acquisition.save_contours": _file_size,
            "checkpoint.save_checkpoint": _file_size,
            "checkpoint.load_checkpoint": _file_size,
            "netcore.forward": layers.netcore_counter,
            "netcore.forward_cached": layers.netcore_counter,
            "netcore.backward": layers.netcore_counter,
        }

    def check_repeat(self, key, hashes):
        """Failure message unless ``hashes`` equal the first ones seen for ``key``."""
        ref = self.reference.setdefault(key, hashes)
        if hashes != ref:
            changed = sorted(k for k in set(ref) | set(hashes) if ref.get(k) != hashes.get(k))
            return [f"{key}: artifact hashes differ from the first repetition: {changed[:5]}"]
        return []

    def setup(self, index):
        """One set-up; the last one's outputs are what the units use."""

    def check_setups(self, count):
        """Every set-up must write the same artifacts."""
        failures = []
        for i in range(count):
            hashes = harness.Manifest(self.setup_dir(i)).artifact_hashes()
            failures += self.check_repeat("setup", hashes)
        return failures

    def run_unit(self, index):
        """Run one unit; return {stage metric: value}."""
        raise NotImplementedError

    def check_unit(self, index):
        """Failure messages for the outputs of unit ``index``."""
        raise NotImplementedError


class Cohort(Workload):
    name = "cohort"
    # the paper's mix and point budgets; a 4 mm occupancy grid (the paper's
    # is 2 mm) lets a run average over several test shapes, whose labeling
    # cost varies with their geometry: one unit's time varies by about
    # +-15% with its shapes, so a cycle, and so a run, is six units and
    # the figure is their mean
    settings = dict(train_shapes=5, test_shapes=1, density=4.0)
    cycle = 6

    def setup(self, index):
        # warm-up: a one-shape cohort runs the generate path once. Its shape
        # is the same for every seed, because one shape's labeling cost
        # varies by up to 2x with its geometry.
        self.config = self.new_config(self.setup_dir(index))
        default = harness.ExperimentConfig()
        harness.cmd_generate(
            dataclasses.replace(
                self.config, train_shapes=1, test_shapes=0, train_seed0=default.train_seed0
            )
        )

    def unit_dir(self, index):
        return os.path.join(self.work_dir, f"unit{index}")

    def run_unit(self, index):
        config = dataclasses.replace(
            self.config,
            out_dir=self.unit_dir(index),
            train_seed0=self.config.train_seed0 + index * self.config.train_shapes,
            test_seed0=self.config.test_seed0 + index * self.config.test_shapes,
        )
        t0 = time.perf_counter()
        harness.cmd_generate(config)
        dt = time.perf_counter() - t0
        return {"unit_s": dt, "generate_s": dt}

    def check_unit(self, index):
        root = self.unit_dir(index)
        hashes = harness.Manifest(root).stage_artifacts("generate")
        failures = self.check_repeat(f"unit{index}", hashes)
        if index == 0:
            failures += self._check_roundtrip(root)
        shutil.rmtree(root)
        return failures

    @staticmethod
    def _check_roundtrip(root):
        path = os.path.join(root, "contours", "test_0000_ideal.json")
        first = acquisition.load_contours(path)
        copy = os.path.join(root, "roundtrip.json")
        acquisition.save_contours(copy, first)
        second = acquisition.load_contours(copy)
        same = (
            first.shape_id == second.shape_id
            and first.provenance == second.provenance
            and len(first.slices) == len(second.slices)
            and all(
                a.plane.view == b.plane.view
                and all(
                    np.array_equal(getattr(a.plane, k), getattr(b.plane, k))
                    for k in ("origin", "normal", "e1", "e2")
                )
                and a.plane.spacing == b.plane.spacing
                and np.array_equal(a.shift, b.shift)
                and np.array_equal(a.points, b.points)
                and np.array_equal(a.labels, b.labels)
                and np.array_equal(a.kinds, b.kinds)
                for a, b in zip(first.slices, second.slices)
            )
        )
        with open(path, "rb") as f, open(copy, "rb") as g:
            same = same and f.read() == g.read()
        return [] if same else ["contours: save_contours -> load_contours is not exact"]


class Train(Workload):
    name = "train"
    settings = dict(train_shapes=4, test_shapes=0, epochs=8, checkpoint_every=4)

    def setup(self, index):
        self.config = self.new_config(self.setup_dir(index))
        harness.cmd_generate(self.config)

    def run_unit(self, index):
        t0 = time.perf_counter()
        self.result = harness.cmd_train(self.config)
        dt = time.perf_counter() - t0
        self.compute_dtype = str(self.result.seg_net.parameters.dtype)
        steps = self.config.epochs * self.config.train_shapes
        return {"unit_s": dt, "train_step_ms": 1e3 * dt / steps}

    def check_unit(self, index):
        root, result = self.config.out_dir, self.result
        failures = []
        losses = [v for row in result.log for v in row[1:]]
        if len(result.log) != self.config.epochs or not all(math.isfinite(v) for v in losses):
            failures.append("train: log has missing or non-finite losses")
        ckpt = checkpoint.load_checkpoint(os.path.join(root, "checkpoint.nihc"))
        for saved, returned in ((ckpt.seg_net, result.seg_net), (ckpt.reg_net, result.reg_net)):
            dims = lambda n: (n.input_dim, n.output_dim, n.hidden_dim, n.num_blocks, n.n_params)
            if dims(saved) != dims(returned):
                failures.append(f"train: checkpoint net {dims(saved)} != returned {dims(returned)}")
        if ckpt.latent_codes.shape != result.latents.codes.shape:
            failures.append("train: checkpoint latent table has the wrong shape")
        return failures + self.check_repeat(
            "train", harness.Manifest(root).stage_artifacts("train")
        )


class Reconstruct(Workload):
    name = "reconstruct"
    # paper network and point budget; a coarse occupancy grid (6 mm) and
    # 4-step models keep the set-up short, and 10 latent steps per case
    # stand in for the paper's 300 (see paper_case_s). Six cases, two per
    # condition, because one evaluation's cost varies with its case; and
    # three models (training seeds train_seed, +1, +2), two cases each,
    # because it varies by about 20% with the model's training seed too.
    settings = dict(
        train_shapes=2,
        test_shapes=6,
        density=6.0,
        epochs=2,
        infer_steps=10,
        infer_points=2500,
    )
    conditions = ("ideal", "misaligned", "ablation:halfsax")
    models = 3
    cycle = 6

    def model_dir(self, index, model):
        return os.path.join(self.setup_dir(index), f"model{model}")

    def setup(self, index):
        """One cohort, copied into one run directory per model, each
        trained with its own seed (reconstructions are written next to the
        model's checkpoint)."""
        config = self.new_config(self.model_dir(index, 0))
        harness.cmd_generate(config)
        for model in range(1, self.models):
            shutil.copytree(config.out_dir, self.model_dir(index, model))
        self.configs, self.loaded = [], []
        for model in range(self.models):
            self.configs.append(
                dataclasses.replace(
                    config,
                    out_dir=self.model_dir(index, model),
                    train_seed=config.train_seed + model,
                )
            )
            harness.cmd_train(self.configs[-1])
            self.loaded.append(harness.load_model(self.configs[-1].out_dir))
        self.config = config
        self.topo = anatomy.build_template()
        self.cases = [f"test_{i:04d}" for i in range(config.test_shapes)]
        self.true_vertices = [
            harness.load_instance_mesh(config.out_dir, case, self.topo).vertices
            for case in self.cases
        ]
        self.compute_dtype = str(self.loaded[0][0].seg_net.parameters.dtype)

    def check_setups(self, count):
        """Every set-up must write the same artifacts for every model."""
        failures = []
        for i in range(count):
            hashes = {
                f"model{model}/{path}": digest
                for model in range(self.models)
                for path, digest in harness.Manifest(self.model_dir(i, model)).artifact_hashes().items()
            }
            failures += self.check_repeat("setup", hashes)
        return failures

    def counters(self):
        def p2s(arguments, _result):
            fitted = any(np.array_equal(arguments["vertices"], v) for v in self.true_vertices)
            return {"fitted": int(fitted), "unfitted": int(not fitted)}

        def optimize(arguments, result):
            return {
                "steps": arguments["weights"].steps,
                "points": result.n_points,
                "best_step": int(np.argmin(result.loss_trace)),
            }

        return {
            **super().counters(),
            "metrics.point_to_surface": p2s,
            "inference.optimize_latent": optimize,
        }

    def case_condition(self, index):
        """(model, case, condition) of unit ``index``: consecutive pairs of
        cases share a model."""
        case = index % len(self.cases)
        model = case * self.models // len(self.cases)
        return model, self.cases[case], self.conditions[index % len(self.conditions)]

    def run_unit(self, index):
        model, case, condition = self.case_condition(index)
        config, (ckpt, stats) = self.configs[model], self.loaded[model]
        t0 = time.perf_counter()
        self.rels, self.fit_s = harness.reconstruct_case(
            config, ckpt, stats, case, condition, topo=self.topo
        )
        t1 = time.perf_counter()
        self.evaluated = harness.evaluate_case(config.out_dir, self.topo, ckpt, case, condition)
        t2 = time.perf_counter()
        steps = self.config.infer_steps
        return {
            "unit_s": t2 - t0,
            "recon_case_s": t1 - t0,
            "evaluate_case_s": t2 - t1,
            # the same case at the paper's 300 steps, scaling the fit time
            "paper_case_s": (t1 - t0) + self.fit_s * (PAPER_INFER_STEPS - steps) / steps,
        }

    def check_unit(self, index):
        model, case, condition = self.case_condition(index)
        root = self.configs[model].out_dir
        failures = []
        trace = next(r for r in self.rels if r.endswith("_trace.csv"))
        with open(os.path.join(root, trace)) as f:
            losses = [float(row["loss"]) for row in csv.DictReader(f)]
        if len(losses) != self.config.infer_steps + 1 or not all(map(math.isfinite, losses)):
            failures.append(f"{condition}: latent trace has {len(losses)} entries or non-finite ones")
        if self.evaluated is None:
            return failures + [f"{condition}: evaluate_case found no reconstruction"]
        p2s_ref = self.evaluated[1]["p2s_ref"]
        if condition == "misaligned" and not p2s_ref > 0:
            failures.append(f"misaligned: p2s_ref {p2s_ref} is not above 0")
        if condition != "misaligned" and not p2s_ref < 1e-6:
            failures.append(f"{condition}: p2s_ref {p2s_ref} mm is not below 1e-6 mm")
        hashes = {r: harness.file_hash(os.path.join(root, r)) for r in self.rels}
        return failures + self.check_repeat(f"{case}/{condition}", hashes)


WORKLOADS = {w.name: w for w in (Cohort, Train, Reconstruct)}


class Outcome:
    """Attempted/failed operations and the stage samples of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def attempt(self, fn, *args):
        """Run ``fn``; count it, and count it failed if it raises or
        returns failure messages. Returns its result or None."""
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception:
            self.failed += 1
            self.messages.append(traceback.format_exc(limit=4))
            return None
        return result

    def checked(self, check, *args):
        """Record ``check``'s failure messages against the last attempt."""
        try:
            messages = check(*args)
        except Exception:
            messages = [traceback.format_exc(limit=4)]
        if messages:
            self.failed += 1
            self.messages += messages
        return not messages


def _run_unit(workload, outcome, index, samples, before, timed=contextlib.nullcontext):
    """Run unit ``index`` inside ``timed()``, time the reference task right
    after it, then check the unit outside both; keep its timings in
    ``samples`` if it passed. ``before`` is the reference task's time just
    before the unit; returns the time just after, for the next unit."""
    cpu = time.process_time()
    with timed():
        timings = outcome.attempt(workload.run_unit, index)
    cpu = time.process_time() - cpu
    after = calibration.calibration_s()
    if timings is None:
        return after
    timings["unit_cpu_s"] = cpu
    timings["calibration_s"] = 0.5 * (before + after)
    timings["unit_ref_s"] = calibration.rescaled(timings["unit_s"], before, after)
    timings["cycle"] = index // workload.cycle
    if outcome.checked(workload.check_unit, index):
        samples.append(timings)
    return after


def _run_cycles(workload, outcome, seconds, tracer=None):
    """Run whole cycles while the next one is expected to end within
    ``seconds`` of untraced units (at least one cycle). With a tracer, each
    unit runs twice in a row, untraced then traced, so that drift in the
    machine's speed affects both alike. Returns the untraced and traced
    samples of the units that passed, and the number of units run."""
    untraced, traced = [], []
    spent, index = 0.0, 0
    reference = calibration.calibration_s()
    while not index or index % workload.cycle or spent * (index + workload.cycle) / index <= seconds:
        t0 = time.perf_counter()
        reference = _run_unit(workload, outcome, index, untraced, reference)
        spent += time.perf_counter() - t0
        if tracer is not None:
            reference = _run_unit(
                workload, outcome, index, traced, reference, lambda: _tracing(tracer, "measure")
            )
        index += 1
    return untraced, traced, index


@contextlib.contextmanager
def _tracing(tracer, phase):
    with tracer.installed(), tracer.recording(phase):
        yield


def execute(name, seed, seconds, trace, work_dir):
    """Set up and measure one workload; returns a dict of raw results."""
    workload = WORKLOADS[name](seed, work_dir)
    outcome = Outcome()
    tracer = Tracer(workload.counters()) if trace else None

    # a traced run reports no setup_s, so it sets up once, traced
    calibration.calibration_s()  # first pass faults in the task's arrays
    setup_times, setup_ref_times = [], []
    reference = calibration.calibration_s()
    for index in range(1 if tracer else SETUP_REPEATS):
        t0 = time.perf_counter()
        with _tracing(tracer, "setup") if tracer else contextlib.nullcontext():
            workload.setup(index)
        setup_times.append(time.perf_counter() - t0)
        after = calibration.calibration_s()
        setup_ref_times.append(calibration.rescaled(setup_times[-1], reference, after))
        reference = after
    run_failures = workload.check_setups(len(setup_times))

    samples, traced, n_units = _run_cycles(workload, outcome, seconds, tracer)
    result = {
        "workload": workload,
        "setup_times": setup_times,
        "setup_ref_times": setup_ref_times,
        "samples": samples,
        "outcome": outcome,
        "run_failures": run_failures,
    }
    if tracer is not None:
        run_failures += layers.check_predictions(tracer.spans, name)
        result.update(tracer=tracer, traced_samples=traced, traced_units=n_units)
    return result
