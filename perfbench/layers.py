"""Per-layer metrics computed from the traced run's spans, and the
layer -> workload predictions the traced run checks.

Every figure is per measured unit (a `cmd_generate` call on `cohort`, a
`cmd_train` call on `train`, one case x condition on `reconstruct`),
except the `setup`-phase ones, which are per set-up. A layer that did not
run reports 0.
"""

import numpy as np

WORKLOADS = ("cohort", "train", "reconstruct")

# (layer, phase, workloads that call it); every other workload must not
PREDICTIONS = [
    ("anatomy.label_points", "measure", {"cohort"}),
    ("anatomy.label_points", "setup", {"cohort", "train", "reconstruct"}),
    ("acquisition.slice_mesh", "measure", {"cohort"}),
    ("training.build_sample", "measure", {"cohort"}),
    ("acquisition.save_contours", "measure", {"cohort"}),
    ("acquisition.load_contours", "measure", {"reconstruct"}),
    ("netcore.forward_cached", "measure", {"train", "reconstruct"}),
    ("netcore.backward", "measure", {"train", "reconstruct"}),
    ("netcore.adam_step", "measure", {"train", "reconstruct"}),
    ("netcore.forward", "measure", {"reconstruct"}),
    ("training.train", "measure", {"train"}),
    ("training.seg_loss", "measure", {"train"}),
    ("training.reg_loss", "measure", {"train"}),
    ("checkpoint.save_checkpoint", "measure", {"train"}),
    ("inference.optimize_latent", "measure", {"reconstruct"}),
    ("inference.predict_mesh", "measure", {"reconstruct"}),
    ("metrics.point_to_surface", "measure", {"reconstruct"}),
    ("metrics.chamfer", "measure", {"reconstruct"}),
    ("metrics.enclosed_volume", "measure", {"reconstruct"}),
    ("anatomy.read_mesh_ply", "measure", {"reconstruct"}),
    ("checkpoint.load_checkpoint", "setup", {"reconstruct"}),
]

# the timed stage (harness entry point) of each workload
STAGES = {
    "cohort": ("harness.cmd_generate",),
    "train": ("harness.cmd_train",),
    "reconstruct": ("harness.reconstruct_case", "harness.evaluate_case"),
}

NETCORE_PASSES = ("netcore.forward", "netcore.forward_cached", "netcore.backward")


def weight_count(net):
    """Entries of the weight matrices (biases excluded)."""
    h = net.hidden_dim
    return net.input_dim * h + net.num_blocks * 2 * h * h + h * net.output_dim


def netcore_counter(arguments, result):
    rows = len(np.atleast_2d(arguments["inputs"]))
    return {"rows": rows, "flop": 2.0 * rows * weight_count(arguments["net"])}


class Aggregate:
    """Span sums for one phase, divided by the number of units."""

    def __init__(self, spans, phase, units):
        self.phase = phase
        self.units = max(units, 1)
        self.by_layer = {}
        self.children = {}
        for i, s in enumerate(spans):
            if s.phase != phase:
                continue
            self.by_layer.setdefault(s.layer, []).append(s)
            if s.parent >= 0:
                self.children[s.parent] = self.children.get(s.parent, 0.0) + s.duration
        self._index = {id(s): i for i, s in enumerate(spans)}
        self._spans = spans

    def spans(self, layer, outside=()):
        """Spans of ``layer`` whose direct parent is not one of ``outside``."""
        return [
            s
            for s in self.by_layer.get(layer, [])
            if s.parent < 0 or self._spans[s.parent].layer not in outside
        ]

    def time(self, layer, outside=()):
        return sum(s.duration for s in self.spans(layer, outside)) / self.units

    def calls(self, layer):
        return len(self.spans(layer)) / self.units

    def count(self, layer, key, outside=()):
        return sum((s.counts or {}).get(key, 0) for s in self.spans(layer, outside)) / self.units

    def time_where(self, layer, key):
        return sum(s.duration for s in self.spans(layer) if (s.counts or {}).get(key)) / self.units

    def child_time(self, layer):
        return sum(self.children.get(self._index[id(s)], 0.0) for s in self.spans(layer)) / self.units

    def self_time(self, layer):
        return self.time(layer) - self.child_time(layer)

    def coverage(self, layer):
        total = self.time(layer)
        return self.child_time(layer) / total if total > 0 else 0.0

    def netcore(self, key):
        """Sum of ``key`` over the outermost netcore passes (a forward_cached
        inside forward is counted once, as the forward)."""
        out = 0.0
        for layer in NETCORE_PASSES:
            for s in self.spans(layer, outside=NETCORE_PASSES):
                out += s.duration if key == "s" else (s.counts or {}).get(key, 0)
        return out / self.units

    def ratio(self, layer, key, per):
        n = self.count(layer, per)
        return self.count(layer, key) / n if n else 0.0

    def breakdown(self, stage):
        """Shares of ``stage``'s time: ([(layer, share)], [(module, share)]),
        each largest first. A layer's share counts its outermost calls inside
        the stage; a module's counts calls not nested in the same module."""
        total = sum(s.duration for s in self.spans(stage))
        layer_t, module_t = {}, {}
        for s in self._spans:
            if s.phase != self.phase:
                continue
            ancestors, p = [], s.parent
            while p >= 0:
                ancestors.append(self._spans[p].layer)
                p = self._spans[p].parent
            if stage not in ancestors:
                continue
            inside = ancestors[: ancestors.index(stage)]
            module = s.layer.split(".")[0]
            if s.layer not in inside:
                layer_t[s.layer] = layer_t.get(s.layer, 0.0) + s.duration
            if not any(a.split(".")[0] == module for a in inside):
                module_t[module] = module_t.get(module, 0.0) + s.duration

        def ranked(times):
            return sorted(((k, v / total) for k, v in times.items()), key=lambda kv: -kv[1])

        return (ranked(layer_t), ranked(module_t)) if total > 0 else ([], [])


def _s(layer, **kw):
    return lambda m, x: m.time(layer, **kw)


def _calls(layer):
    return lambda m, x: m.calls(layer)


def _count(layer, key, **kw):
    return lambda m, x: m.count(layer, key, **kw)


def _extra(key):
    return lambda m, x: x.get(key, 0.0)


_FC_OUTSIDE = {"outside": ("netcore.forward", "netcore.backward")}

# (metric name, unit, better, phase, compute(aggregate, extras))
PER_LAYER = [
    ("anatomy.label_points.s", "s", "lower", "measure", _s("anatomy.label_points")),
    ("anatomy.label_points.calls", "count", "lower", "measure", _calls("anatomy.label_points")),
    ("anatomy.label_points.points", "count", "lower", "measure", _count("anatomy.label_points", "points")),
    ("acquisition.slice_mesh.s", "s", "lower", "measure", _s("acquisition.slice_mesh")),
    ("acquisition.slice_mesh.calls", "count", "lower", "measure", _calls("acquisition.slice_mesh")),
    ("training.build_sample.s", "s", "lower", "measure", _s("training.build_sample")),
    ("training.build_sample.calls", "count", "lower", "measure", _calls("training.build_sample")),
    ("acquisition.save_contours.s", "s", "lower", "measure", _s("acquisition.save_contours")),
    ("acquisition.save_contours.bytes", "bytes", "lower", "measure", _count("acquisition.save_contours", "bytes")),
    ("acquisition.load_contours.s", "s", "lower", "measure", _s("acquisition.load_contours")),
    ("acquisition.load_contours.calls", "count", "lower", "measure", _calls("acquisition.load_contours")),
    ("netcore.forward_cached.s", "s", "lower", "measure", _s("netcore.forward_cached", **_FC_OUTSIDE)),
    ("netcore.forward_cached.rows", "count", "lower", "measure", _count("netcore.forward_cached", "rows", **_FC_OUTSIDE)),
    ("netcore.backward.s", "s", "lower", "measure", _s("netcore.backward")),
    ("netcore.backward.rows", "count", "lower", "measure", _count("netcore.backward", "rows")),
    ("netcore.adam_step.s", "s", "lower", "measure", _s("netcore.adam_step")),
    ("netcore.adam_step.calls", "count", "lower", "measure", _calls("netcore.adam_step")),
    ("netcore.forward.s", "s", "lower", "measure", _s("netcore.forward")),
    ("netcore.forward.rows", "count", "lower", "measure", _count("netcore.forward", "rows")),
    ("netcore.gflop", "GFLOP", "lower", "measure", lambda m, x: m.netcore("flop") / 1e9),
    (
        "netcore.gflop_per_s",
        "GFLOP/s",
        "higher",
        "measure",
        lambda m, x: m.netcore("flop") / 1e9 / m.netcore("s") if m.netcore("s") else 0.0,
    ),
    ("training.train.self_s", "s", "lower", "measure", lambda m, x: m.self_time("training.train")),
    ("training.seg_loss.s", "s", "lower", "measure", _s("training.seg_loss")),
    ("training.reg_loss.s", "s", "lower", "measure", _s("training.reg_loss")),
    ("checkpoint.save_checkpoint.s", "s", "lower", "measure", _s("checkpoint.save_checkpoint")),
    ("checkpoint.save_checkpoint.bytes", "bytes", "lower", "measure", _count("checkpoint.save_checkpoint", "bytes")),
    ("inference.optimize_latent.s", "s", "lower", "measure", _s("inference.optimize_latent")),
    ("inference.optimize_latent.self_s", "s", "lower", "measure", lambda m, x: m.self_time("inference.optimize_latent")),
    ("inference.optimize_latent.steps", "count", "lower", "measure", _count("inference.optimize_latent", "steps")),
    ("inference.optimize_latent.points", "count", "lower", "measure", _count("inference.optimize_latent", "points")),
    (
        "inference.latent_step_ms",
        "ms",
        "lower",
        "measure",
        lambda m, x: 1e3 * m.time("inference.optimize_latent") / m.count("inference.optimize_latent", "steps")
        if m.count("inference.optimize_latent", "steps")
        else 0.0,
    ),
    ("inference.predict_mesh.s", "s", "lower", "measure", _s("inference.predict_mesh")),
    (
        "inference.best_step_frac",
        "fraction",
        "higher",
        "measure",
        lambda m, x: m.ratio("inference.optimize_latent", "best_step", "steps"),
    ),
    ("metrics.point_to_surface.fitted_s", "s", "lower", "measure", lambda m, x: m.time_where("metrics.point_to_surface", "fitted")),
    ("metrics.point_to_surface.unfitted_s", "s", "lower", "measure", lambda m, x: m.time_where("metrics.point_to_surface", "unfitted")),
    ("metrics.chamfer.s", "s", "lower", "measure", _s("metrics.chamfer")),
    ("metrics.enclosed_volume.s", "s", "lower", "measure", _s("metrics.enclosed_volume")),
    ("anatomy.read_mesh_ply.s", "s", "lower", "measure", _s("anatomy.read_mesh_ply")),
    ("checkpoint.load_checkpoint.s", "s", "lower", "setup", _s("checkpoint.load_checkpoint")),
    ("checkpoint.load_checkpoint.bytes", "bytes", "lower", "setup", _count("checkpoint.load_checkpoint", "bytes")),
]
for _stage in ("cmd_generate", "cmd_train", "reconstruct_case", "evaluate_case"):
    _layer = f"harness.{_stage}"
    PER_LAYER += [
        (f"{_layer}.self_s", "s", "lower", "measure", lambda m, x, l=_layer: m.self_time(l)),
        (f"{_layer}.coverage", "fraction", "higher", "measure", lambda m, x, l=_layer: m.coverage(l)),
    ]
PER_LAYER += [
    # stage figures of the run's untraced pass, by the names the stages use;
    # unit_s is the raw wall time of a unit, not rescaled
    ("stage.unit_s", "s", "lower", None, _extra("unit_s")),
    ("stage.generate_s", "s", "lower", None, _extra("generate_s")),
    ("stage.train_step_ms", "ms", "lower", None, _extra("train_step_ms")),
    ("stage.recon_case_s", "s", "lower", None, _extra("recon_case_s")),
    ("stage.evaluate_case_s", "s", "lower", None, _extra("evaluate_case_s")),
    # traced minus untraced unit time, the same units run back to back
    ("trace.overhead_s", "s", "lower", None, _extra("overhead_s")),
    ("trace.overhead_frac", "fraction", "lower", None, _extra("overhead_frac")),
]


def per_layer_metrics(spans, units, extras):
    """Every PER_LAYER metric; a traced run sets up once."""
    aggregates = {
        "measure": Aggregate(spans, "measure", units),
        "setup": Aggregate(spans, "setup", 1),
        None: None,
    }
    return {
        name: {"value": float(compute(aggregates[phase], extras)), "unit": unit}
        for name, unit, _, phase, compute in PER_LAYER
    }


def check_predictions(spans, workload):
    """Messages for every prediction the traced spans contradict."""
    seen = {(s.layer, s.phase) for s in spans}
    failures = []
    for layer, phase, exercised in PREDICTIONS:
        expected = workload in exercised
        if ((layer, phase) in seen) != expected:
            verb = "no" if expected else "unexpected"
            failures.append(f"{verb} {phase}-phase spans of {layer} on {workload}")
    return failures


def stage_breakdown(spans, workload):
    """{stage: (layer shares, module shares)} of the traced pass."""
    agg = Aggregate(spans, "measure", 1)
    return {stage: agg.breakdown(stage) for stage in STAGES[workload]}

