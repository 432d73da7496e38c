"""Tests of the benchmark itself: smoke runs, span trees, wrapper removal, repeatability.

Run with `python3 -m pytest bench/tests -q` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run        # noqa: E402
import spans      # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Scale(points=600, fit_epochs=2, deep_epochs=1, serve_train_epochs=1,
                       serve_points=500, cli_per_cycle=2, setups=1)


def _bench_run(args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _traced_cycle(name, workdir, seed=5):
    """Set up and run one cycle of a tiny workload under a tracer."""
    Path(workdir).mkdir(parents=True, exist_ok=True)
    workload = workloads.make(name, seed, TINY, str(workdir))
    rec = workloads.Record()
    tracer = spans.Tracer()
    with tracer:
        root = tracer.begin("bench.setup")
        workload.setup()
        tracer.end(root)
        workload.prepare_checks(rec)
        root = tracer.begin("bench.loop")
        workload.cycle(rec)
        tracer.end(root)
    assert rec.failures == []
    tree = spans.SpanTree(tracer.spans)
    return rec, run.layer_metrics(tree, 0.0), tracer


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run(name, trace):
    proc = _bench_run(["--workload", name, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["fit-deep", "serve-deep"])
def test_span_tree_invariants(name, tmp_path):
    _, _, tracer = _traced_cycle(name, tmp_path)
    tree = spans.SpanTree(tracer.spans)
    assert len(tracer.spans) > 10
    for i, (_, start, end, parent, _) in enumerate(tracer.spans):
        assert end is not None and start <= end
        assert tree.self_time(i) >= -1e-9
        if parent >= 0:
            assert parent < i
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]
        kids = tree.children[i]
        for a, b in zip(kids, kids[1:]):
            assert tracer.spans[a][2] <= tracer.spans[b][1]


def test_wrappers_removed_after_traced_run(tmp_path):
    import polyaflow
    from polyaflow import autodiff, cli, train as train_fn
    from polyaflow.polya_tree import PolyaTreeModel

    before = (autodiff.backward, cli.load_checkpoint, polyaflow.train,
              PolyaTreeModel.__dict__["route"])
    assert spans.installed_wrappers() == []
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer():
            wrapped = spans.installed_wrappers()
            assert "polyaflow.cli.load_checkpoint" in wrapped
            assert "polyaflow.train" in wrapped          # the re-exported function
            assert "polyaflow.polya_tree.PolyaTreeModel.route" in wrapped
            1 / 0
    assert spans.installed_wrappers() == []
    after = (autodiff.backward, cli.load_checkpoint, polyaflow.train,
             PolyaTreeModel.__dict__["route"])
    assert all(a is b for a, b in zip(before, after)) and polyaflow.train is train_fn

    _traced_cycle("serve-deep", tmp_path)
    assert spans.installed_wrappers() == []


@pytest.mark.parametrize("name", ["fit-small", "serve-deep"])
def test_counts_and_test_nll_repeat_exactly(name, tmp_path):
    first_rec, first, _ = _traced_cycle(name, tmp_path / "a")
    second_rec, second, _ = _traced_cycle(name, tmp_path / "b")
    assert first_rec.facts == second_rec.facts
    assert "test_nll" in first_rec.facts
    for key in ("autodiff.nodes_per_step", "distributions.beta_sample_calls",
                "checkpoint.bytes"):
        assert first[key] == second[key]
    if name == "fit-small":
        assert first["autodiff.nodes_per_step"] > 0
    else:
        assert first["distributions.beta_sample_calls"] == 8 * (2**10 - 1)
        assert first["checkpoint.bytes"] > 0


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench_run(["--workload", "fit-small", "--seed", "0", "--seconds", "1",
                       "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_targets_the_package_lacks_are_listed_not_fatal(monkeypatch):
    targets = (*spans.TARGETS, ("flow", "FlowModel.no_such_method", None),
               ("data", "no_such_function", None))
    monkeypatch.setattr(spans, "TARGETS", targets)
    with spans.Tracer() as tracer:
        assert "polyaflow.data.synth" in spans.installed_wrappers()
    assert tracer.missing == ["flow.FlowModel.no_such_method", "data.no_such_function"]
    assert spans.installed_wrappers() == []
