"""Run one polyaflow benchmark workload, or all four, and print its metrics.

    python3 bench/run.py --workload fit-small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

`--trace 0` measures the end-to-end metrics with no tracing installed.
`--trace 1` alternates untraced and traced cycles for `--seconds` and
reports the per-layer metrics from the traced ones.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  Full
records and span traces go to `.bench_out/` at the repository root.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
BLAS_THREADS = "1"          # one closed-loop caller; 1 <= nproc on every host
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("fit-small", "fit-histogram", "fit-deep", "serve-deep")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pts_per_s": "pts/s",
    "call_ms_p50": "ms",
    "cycle_ms": "ms",
    "test_nll": "nats/pt",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "autodiff.nodes_per_step": "count",
    "autodiff.backward_ms": "ms",
    "flow.forward_ms": "ms",
    "flow.inverse_ms": "ms",
    "polya_tree.log_density_ms": "ms",
    "polya_tree.route_ms": "ms",
    "polya_tree.conjugate_ms": "ms",
    "polya_tree.sample_ms": "ms",
    "baselines.histogram_log_density_ms": "ms",
    "distributions.beta_sample_calls": "count",
    "distributions.beta_sample_ms": "ms",
    "train.step_ms": "ms",
    "train.adam_ms": "ms",
    "train.eval_ms": "ms",
    "train.other_ms": "ms",
    "data.synth_ms": "ms",
    "data.load_delimited_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "bytes",
    "cli.eval_other_ms": "ms",
    "trace.overhead_frac": "fraction",
}
# Spans that make up one optimizer step inside train(), and its evaluations.
STEP_PARTS = {"flow.DensityEstimator.log_likelihood_vars", "autodiff.backward",
              "train.Adam.step", "flow.DensityEstimator.latent",
              "polya_tree.PolyaTreeModel.conjugate_update"}
EVALS = {"train.avg_log_likelihood", "train.bits_per_dim"}
CLI_PARTS = {"checkpoint.load_checkpoint", "data.load_delimited", "train.avg_log_likelihood"}


def _pin_blas():
    """Fix BLAS threads; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy imported before BLAS threads were pinned")
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS


def _pin_malloc():
    """Keep freed memory in glibc's heap: no mmap'd chunks and no trimming.

    By default a freed large array goes back to the kernel and the next
    call faults it in again, and whether it does depends on glibc's moving
    mmap threshold; on serve-deep that made log_likelihood times bimodal
    (210 or 285 ms).  Returns a description for the environment record.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)   # symbols already loaded
    if mallopt is None:
        return "default"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_max = -1, -4
    if mallopt(m_mmap_max, 0) != 1 or mallopt(m_trim_threshold, 2**31 - 1) != 1:
        return "default"
    return "glibc mallopt: no mmap, no trim"


def _import_package():
    """Import polyaflow from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import polyaflow
    except ImportError as err:
        sys.exit(f"cannot import polyaflow from {src}: {err}")
    origin = Path(polyaflow.__file__).resolve()
    if src.resolve() not in origin.parents:
        sys.exit(f"polyaflow imported from {origin}, not from {src}")


def _environment(seed, malloc):
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "malloc": malloc,
        "seed": seed,
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cycle(workload, rec):
    """One cycle; an exception is counted as a failed operation, not fatal."""
    try:
        workload.cycle(rec)
    except Exception as err:
        traceback.print_exc(file=sys.stderr)
        rec.check(False, f"{type(err).__name__}: {err}")


def run_loop(seconds, *steps):
    """Closed loop: one caller repeats `steps` in turn until `seconds` have passed."""
    start = time.perf_counter()
    while True:
        for step in steps:
            step()
        if time.perf_counter() - start >= seconds:
            return


def _inside(tree, root_name):
    """Spans under every top-level span called `root_name`, and those roots."""
    roots = [i for i, span in enumerate(tree.spans) if span[3] < 0 and span[0] == root_name]
    return sorted(i for r in roots for i in tree.under(r)), roots


def layer_metrics(tree, overhead):
    """Per-layer metrics from the traced set-up and the traced loop cycles."""
    loop, _ = _inside(tree, "bench.loop")

    def calls(name, where=loop):
        return tree.named(where, name)

    def mean_ms(idx, cost=tree.duration):
        return 1e3 * sum(cost(i) for i in idx) / len(idx) if idx else 0.0

    def mean_value(idx):
        return sum(tree.spans[i][4] for i in idx) / len(idx) if idx else 0

    trains = calls("train.train")
    steps = len(calls("train.Adam.step"))
    step_time = sum(tree.duration(t) - tree.child_time(t, EVALS) for t in trains)
    other = step_time - sum(tree.child_time(t, STEP_PARTS) for t in trains)
    draws = len(calls("polya_tree.PolyaTreeModel.sample_branch_probabilities"))
    betas = calls("distributions.BetaDist.sample")
    route = {"polya_tree.PolyaTreeModel.route"}
    return {
        "autodiff.nodes_per_step": mean_value(calls("autodiff.backward")),
        "autodiff.backward_ms": mean_ms(calls("autodiff.backward")),
        "flow.forward_ms": mean_ms(calls("flow.FlowModel.forward_vars")),
        "flow.inverse_ms": mean_ms(calls("flow.FlowModel.inverse")),
        "polya_tree.log_density_ms": mean_ms(
            calls("polya_tree.PolyaTreeModel.log_density_vars"),
            lambda i: tree.duration(i) - tree.child_time(i, route)),
        "polya_tree.route_ms": mean_ms(calls("polya_tree.PolyaTreeModel.route")),
        "polya_tree.conjugate_ms": mean_ms(calls("polya_tree.PolyaTreeModel.conjugate_update")),
        "polya_tree.sample_ms": mean_ms(calls("polya_tree.PolyaTreeModel.sample")),
        "baselines.histogram_log_density_ms": mean_ms(
            calls("baselines.LearnableHistogram.log_density_vars")),
        "distributions.beta_sample_calls": len(betas) / draws if draws else 0,
        "distributions.beta_sample_ms": (1e3 * sum(tree.duration(i) for i in betas) / draws
                                         if draws else 0.0),
        "train.step_ms": 1e3 * step_time / steps if steps else 0.0,
        "train.adam_ms": mean_ms(calls("train.Adam.step")),
        "train.eval_ms": mean_ms(calls("train.avg_log_likelihood")),
        "train.other_ms": 1e3 * other / steps if steps else 0.0,
        "data.synth_ms": mean_ms(calls("data.synth", _inside(tree, "bench.setup")[0])),
        "data.load_delimited_ms": mean_ms(calls("data.load_delimited")),
        "checkpoint.load_ms": mean_ms(calls("checkpoint.load_checkpoint")),
        "checkpoint.bytes": mean_value(calls("checkpoint.load_checkpoint")),
        "cli.eval_other_ms": mean_ms(calls("cli.main"),
                                     lambda i: tree.duration(i) - tree.child_time(i, CLI_PARTS)),
        "trace.overhead_frac": overhead,
    }


def module_shares(tree):
    """Self time of each module's spans as a share of the traced cycles' wall time."""
    loop, roots = _inside(tree, "bench.loop")
    total = sum(tree.duration(r) for r in roots)
    shares = {"(benchmark and unwrapped code)": sum(tree.self_time(r) for r in roots) / total}
    for i in loop:
        module = tree.spans[i][0].split(".")[0]
        shares[module] = shares.get(module, 0.0) + tree.self_time(i) / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def run_one(name, seed, seconds, trace_on):
    """Set up and measure one workload in this process; returns the result record."""
    import spans as tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    try:
        scale = workloads.Scale()
        workload = workloads.make(name, seed, scale, workdir)
        rec = workloads.Record()
        setup_times = []
        for _ in range(scale.setups):
            tic = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - tic)
        workload.prepare_checks(rec)
        detail = {}
        if not trace_on:
            run_loop(seconds, lambda: run_cycle(workload, rec))
            metrics, detail = workload.end_to_end(rec)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = _peak_rss_mb()
            units = END_TO_END_UNITS
        else:
            tracer = tracing.Tracer()
            with tracer:
                root = tracer.begin("bench.setup")
                workload.setup()
                tracer.end(root)
            traced = workloads.Record()

            def traced_cycle():
                with tracer:
                    root = tracer.begin("bench.loop")
                    run_cycle(workload, traced)
                    tracer.end(root)
                left = tracing.installed_wrappers()
                traced.check(not left, f"span wrappers left installed: {left}")

            # Untraced and traced cycles alternate, so drift in the host's
            # speed cancels out of the overhead.
            run_loop(seconds, lambda: run_cycle(workload, rec), traced_cycle)
            overhead = (statistics.median(traced.samples["wall"])
                        / statistics.median(rec.samples["wall"]) - 1.0)
            rec.attempted += traced.attempted
            rec.failures += traced.failures
            tree = tracing.SpanTree(tracer.spans)
            metrics = layer_metrics(tree, overhead)
            detail = {"module_self_share": module_shares(tree),
                      "spans": len(tracer.spans), "untraced_targets": tracer.missing}
            tracer.dump(OUT / f"trace_{name}_seed{seed}.jsonl")
            units = PER_LAYER_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(rec.failures)
    detail.update(rec.facts, error_frac=failed / rec.attempted, failures=rec.failures[:5])
    return {
        "correct": failed == 0,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "detail": detail,
    }


def run_all(seed, seconds):
    """Each workload untraced then traced, each in its own process."""
    results = {}
    for name in WORKLOADS:
        for trace_on in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace_on)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{name} (trace {trace_on}) exited {proc.returncode}")
            result = json.loads(lines[-1])
            results.setdefault(name, {})["per_layer" if trace_on else "end_to_end"] = result
            print(f"== {name} ({'traced' if trace_on else 'untraced'}): "
                  f"correct={result['correct']} failed={result['failed']}/{result['attempted']}")
            for key, m in result["metrics"].items():
                print(f"   {key:38s} {m['value']:>16.6g} {m['unit']}")
    (OUT / f"all_seed{seed}.json").write_text(json.dumps(results, indent=1) + "\n")
    ok = all(r["correct"] for runs in results.values() for r in runs.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _pin_blas()
    malloc = _pin_malloc()
    _import_package()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_one(args.workload, args.seed, args.seconds, args.trace)
    record = {"workload": args.workload, "trace": args.trace,
              "env": _environment(args.seed, malloc), **result}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for key, m in result["metrics"].items():
        print(f"{key:38s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"workload": args.workload, "env": record["env"],
                      "detail": result["detail"]}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
