"""heartfields benchmark.

    python3 perfbench/run.py --workload {cohort,train,reconstruct} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. Builds nothing: the program is imported from
``src/`` of the same tree (and nowhere else). With ``--trace 0`` it
measures the workload with tracing off and reports the end-to-end metrics;
with ``--trace 1`` it measures the same units untraced and then traced, and
reports the per-layer metrics. The bounded timings (``unit_ref_s``,
``setup_s``) are rescaled to a fixed machine speed by the reference task
in ``calibration.py``; the raw wall times are printed too. The last stdout
line is the result object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it give
the run environment, the stage figures with sample counts, the checks and
a derived paper-scale estimate.

Scratch output goes to ``.perfbench_work/`` under the root, which the run
removes again, except ``.perfbench_work/results/``: the last untraced run's
stage figures per workload (the paper-scale estimate combines them) and the
last traced run's spans.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# paper scale: 400 epochs x 200 shapes; 200 + 40 shapes generated;
# 40 cases x 7 conditions reconstructed and evaluated
PAPER_TRAIN_STEPS = 80_000
PAPER_SHAPES = 240
PAPER_CASES = 280


def pin_blas_threads():
    """Fix the BLAS pool size; only effective before numpy is imported."""
    pinned = "numpy" not in sys.modules
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return pinned


def import_program():
    """Import heartfields from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import heartfields
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import heartfields from {src}: {exc}")
    if Path(heartfields.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: heartfields was imported from {heartfields.__file__}, not {src}")


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload, pinned):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_pinned_before_numpy": pinned,
        "compute_dtype": workload.compute_dtype,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def stage_figures(samples):
    """Median over cycles of each figure's mean over the cycle's units.
    Units of one cycle run different inputs; cycles repeat the mix."""
    cycles = {}
    for s in samples:
        cycles.setdefault(s["cycle"], []).append(s)
    keys = sorted({k for s in samples for k in s} - {"cycle"})
    return {
        k: median([statistics.fmean(s[k] for s in group) for group in cycles.values()])
        for k in keys
    }


def paper_scale_hours(workload_names):
    """Derived estimate from the last stored result of each workload, or
    the list of workloads still missing."""
    stored, missing = {}, []
    for name in workload_names:
        path = WORK / "results" / f"{name}.json"
        if path.exists():
            stored.update(json.loads(path.read_text())["stages"])
        else:
            missing.append(name)
    if missing:
        return None, missing
    seconds = (
        stored["train_step_ms"] / 1e3 * PAPER_TRAIN_STEPS
        + stored["generate_s"] / 6 * PAPER_SHAPES
        + (stored["paper_case_s"] + stored["evaluate_case_s"]) * PAPER_CASES
    )
    return seconds / 3600.0, []


def main(argv=None):
    pinned = pin_blas_threads()
    import layers

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    work_dir = WORK / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        run = workloads.execute(args.workload, args.seed, args.seconds, args.trace, str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    if args.trace:
        run["tracer"].write_spans(results / f"{args.workload}.spans.jsonl")

    workload, outcome = run["workload"], run["outcome"]
    samples = run["samples"]
    if not samples:
        print("\n".join(outcome.messages + run["run_failures"]), file=sys.stderr)
        sys.exit("perfbench: no unit passed its checks; nothing to report")

    stages = stage_figures(samples)
    n_cycles = len({s["cycle"] for s in samples})
    env = environment(workload, pinned)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"stages (median over {n_cycles} cycles of {workload.cycle} unit(s), "
        f"{len(samples)} units): " + ", ".join(f"{k}={v:.6g}" for k, v in stages.items())
    )
    if args.workload == "reconstruct":
        print(
            f"paper-budget case estimate {stages['paper_case_s']:.3g} s at "
            f"{workloads.PAPER_INFER_STEPS} latent steps vs infer_budget_s "
            f"{workload.config.infer_budget_s:g} s (reported, not gated)"
        )
    for msg in outcome.messages + run["run_failures"]:
        print("CHECK FAILED: " + msg.strip().replace("\n", "\n    "))
    print(
        f"ops_failed_frac {outcome.failed}/{outcome.attempted} = "
        f"{outcome.failed / outcome.attempted:.3g} (base: units attempted; "
        f"set-ups checked separately: {len(run['setup_times'])})"
    )

    print(
        f"set-up wall time {median(run['setup_times']):.6g} s, "
        f"{median(run['setup_ref_times']):.6g} s at the reference speed "
        f"(median of {len(run['setup_times'])})"
    )

    if args.trace:
        untraced = stages["unit_ref_s"]
        traced = stage_figures(run["traced_samples"]).get("unit_ref_s", untraced)
        extras = dict(stages, overhead_s=traced - untraced, overhead_frac=(traced - untraced) / untraced)
        spans = run["tracer"].spans
        metrics = layers.per_layer_metrics(spans, run["traced_units"], extras)
        for stage, (by_layer, by_module) in layers.stage_breakdown(spans, args.workload).items():
            top = lambda shares: ", ".join(f"{k} {v:.1%}" for k, v in shares[:5])
            print(f"{stage} time by layer: {top(by_layer)}")
            print(f"{stage} time by module: {top(by_module)}")
    else:
        metrics = {
            "setup_s": {"value": median(run["setup_ref_times"]), "unit": "s"},
            "unit_ref_s": {"value": stages["unit_ref_s"], "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        (results / f"{args.workload}.json").write_text(
            json.dumps(
                {"seed": args.seed, "time": time.time(), "env": env, "stages": stages, "samples": samples},
                indent=1,
            )
        )
        hours, missing = paper_scale_hours(layers.WORKLOADS)
        if hours is None:
            print(f"derived paper_scale_h: n/a until a run of {', '.join(missing)} is stored")
        else:
            print(f"derived paper_scale_h {hours:.4g} h (from the last stored run of each workload; no bound)")

    correct = outcome.failed == 0 and not run["run_failures"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
