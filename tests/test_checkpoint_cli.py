"""Checkpoint round-trips and the command-line interface."""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyaflow.baselines import FixedPrior, LearnableHistogram
from polyaflow.checkpoint import SCHEMA_VERSION, load_checkpoint, save_checkpoint
from polyaflow.cli import main
from polyaflow.data import load_delimited
from polyaflow.flow import DensityEstimator, FlowModel, build_flow
from polyaflow.polya_tree import PolyaTreeModel
from polyaflow.train import TrainConfig, avg_log_likelihood


def _perturbed_tree_estimator(rng, mode="dyadic", smooth=False):
    base = PolyaTreeModel.uniform(3, 2, mode)
    base.raw_left += rng.normal(0.0, 0.3, size=base.raw_left.shape)
    base.raw_right += rng.normal(0.0, 0.3, size=base.raw_right.shape)
    if base.split_raw is not None:
        base.split_raw += rng.normal(0.0, 0.2, size=base.split_raw.shape)
    flow = build_flow(2, n_coupling=2, hidden=(6,), sigmoid=True, rng=rng)
    for key, arr in flow.parameter_arrays().items():
        arr += rng.normal(0.0, 0.05, size=arr.shape)
    return DensityEstimator(flow, base, smooth_base=smooth)


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("mode", ["dyadic", "per-level", "per-node"])
    def test_tree_estimator_bitwise(self, tmp_path, mode):
        rng = np.random.default_rng(0)
        est = _perturbed_tree_estimator(rng, mode)
        x = rng.normal(size=(40, 2))
        before = est.log_likelihood(x)
        path = tmp_path / "m.json"
        save_checkpoint(path, est)
        loaded = load_checkpoint(path).estimator
        np.testing.assert_array_equal(loaded.log_likelihood(x), before)
        for key, arr in est.parameter_arrays().items():
            np.testing.assert_array_equal(loaded.parameter_arrays()[key], arr)

    def test_histogram_and_fixed_bases(self, tmp_path):
        rng = np.random.default_rng(1)
        hist = LearnableHistogram.uniform(8, 2)
        hist.raw_widths += rng.normal(0.0, 0.2, size=hist.raw_widths.shape)
        hist.raw_logits += rng.normal(0.0, 0.5, size=hist.raw_logits.shape)
        for base, sigmoid in [(hist, True),
                              (FixedPrior("gaussian", 2), False),
                              (FixedPrior("logistic", 2), False)]:
            flow = build_flow(2, n_coupling=1, hidden=(5,), sigmoid=sigmoid, rng=rng)
            est = DensityEstimator(flow, base)
            x = rng.normal(size=(25, 2))
            path = tmp_path / f"{type(base).__name__}.json"
            save_checkpoint(path, est)
            loaded = load_checkpoint(path).estimator
            np.testing.assert_array_equal(loaded.log_likelihood(x),
                                          est.log_likelihood(x))

    def test_context_fields_round_trip(self, tmp_path):
        est = _perturbed_tree_estimator(np.random.default_rng(2), smooth=True)
        cfg = TrainConfig(prior="vpt", levels=3, hidden=(6,), epochs=7, seed=42)
        mean, std = np.array([1.5, -2.0]), np.array([3.0, 0.5])
        summary = {"val_nll": 1.25, "best_epoch": 4}
        path = tmp_path / "m.json"
        save_checkpoint(path, est, config=cfg, seed=42,
                        standardization=(mean, std), summary=summary)
        ck = load_checkpoint(path)
        assert ck.config == cfg
        assert ck.seed == 42
        np.testing.assert_array_equal(ck.standardization[0], mean)
        np.testing.assert_array_equal(ck.standardization[1], std)
        assert ck.summary == summary
        assert ck.estimator.smooth_base

    def test_rejects_unknown_schema_version(self, tmp_path):
        est = _perturbed_tree_estimator(np.random.default_rng(3))
        path = tmp_path / "m.json"
        save_checkpoint(path, est)
        doc = json.loads(path.read_text())
        doc["schema_version"] = SCHEMA_VERSION + 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema version"):
            load_checkpoint(path)

    def test_rejects_unknown_prior_kind(self, tmp_path):
        est = _perturbed_tree_estimator(np.random.default_rng(4))
        path = tmp_path / "m.json"
        save_checkpoint(path, est)
        doc = json.loads(path.read_text())
        doc["prior"]["kind"] = "cauchy"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="prior kind"):
            load_checkpoint(path)


def _train_small(tmp_path, extra=()):
    out = str(tmp_path / "model.json")
    rc = main([
        "train", "--data", "synthetic:eight_gaussians", "--n", "300",
        "--prior", "vpt", "--levels", "2", "--flow-layers", "1",
        "--hidden", "8", "--epochs", "3", "--batch", "128", "--seed", "5",
        "--out", out, *extra,
    ])
    assert rc == 0
    return out


class TestCliWorkflow:
    def test_train_eval_sample_grid_variance(self, tmp_path, capsys):
        model = _train_small(tmp_path)
        stdout = capsys.readouterr().out
        assert "checkpoint written to" in stdout
        # 2 dims x 3 nodes x 2 alphas; a (1, 8, 1) coupling net and 2 log scales
        assert "prior parameters: 12\nflow parameters: 27\n" in stdout

        rc = main(["eval", "--data", "synthetic:eight_gaussians", "--n", "300",
                   "--seed", "5", "--model", model, "--metric", "both",
                   "--split", "test"])
        assert rc == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert [l["metric"] for l in lines] == ["nll", "bpd"]
        assert all(np.isfinite(l["value"]) for l in lines)

        sample_path = str(tmp_path / "draws.csv")
        rc = main(["sample", "--model", model, "--n", "50", "--seed", "1",
                   "--out", sample_path])
        assert rc == 0
        capsys.readouterr()
        draws = np.loadtxt(sample_path, delimiter=",")
        assert draws.shape == (50, 2)
        assert np.all(np.isfinite(draws))

        grid_path = str(tmp_path / "grid.csv")
        rc = main(["grid", "--model", model, "--bounds=-3,3",
                   "--resolution", "8", "--out", grid_path])
        assert rc == 0
        capsys.readouterr()
        with open(grid_path) as fh:
            header = fh.readline().strip()
        assert header == "x,y,density"
        table = np.loadtxt(grid_path, delimiter=",", skiprows=1)
        assert table.shape == (64, 3)
        assert np.all(table[:, 2] >= 0.0)

        var_path = str(tmp_path / "var.csv")
        rc = main(["variance", "--model", model, "--out", var_path])
        assert rc == 0
        capsys.readouterr()
        with open(var_path) as fh:
            assert fh.readline().strip() == "dim,variance"
            rows = fh.read().strip().splitlines()
        assert len(rows) == 2
        assert all(float(r.split(",")[1]) > 0.0 for r in rows)

    def test_train_report_is_jsonl(self, tmp_path, capsys):
        report = str(tmp_path / "history.jsonl")
        _train_small(tmp_path, extra=("--report", report))
        capsys.readouterr()
        lines = [json.loads(l) for l in open(report)]
        assert len(lines) == 4                    # 3 epochs + summary line
        assert lines[0]["epoch"] == 0
        assert "final" in lines[-1]

    def test_eval_uniform_model_on_unit_square_data(self, tmp_path, capsys):
        # uniform tree + identity flow is the density 1 on (0, 1]^2, so the
        # per-point NLL of any in-square dataset is exactly zero
        model = str(tmp_path / "uniform.json")
        est = DensityEstimator(FlowModel(2, []), PolyaTreeModel.uniform(2, 2))
        save_checkpoint(model, est,
                        standardization=(np.zeros(2), np.ones(2)))
        rng = np.random.default_rng(6)
        pts = rng.random((60, 2)) * 0.999 + 0.0005
        data = tmp_path / "unit.csv"
        data.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pts) + "\n")
        rc = main(["eval", "--data", str(data), "--model", model,
                   "--metric", "nll", "--split", "all"])
        assert rc == 0
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert abs(line["value"]) < 1e-12

    def test_eval_reproduces_exactly(self, tmp_path, capsys):
        model = _train_small(tmp_path)
        capsys.readouterr()
        argv = ["eval", "--data", "synthetic:eight_gaussians", "--n", "300",
                "--seed", "5", "--model", model, "--split", "val"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_eval_of_both_metrics_runs_the_flow_once(self, tmp_path, capsys, monkeypatch):
        model = _train_small(tmp_path)
        calls = []
        forward = FlowModel.forward
        monkeypatch.setattr(FlowModel, "forward", lambda self, x: calls.append(1) or
                            forward(self, x))
        capsys.readouterr()
        assert main(["eval", "--data", "synthetic:eight_gaussians", "--n", "300",
                     "--model", model, "--metric", "both"]) == 0
        nll, bpd = (json.loads(line) for line in capsys.readouterr().out.splitlines())
        assert len(calls) == 1
        assert bpd == {"metric": "bpd", "value": nll["value"] / (2 * np.log(2.0))}

    def test_sample_applies_standardization_record(self, tmp_path, capsys):
        model = str(tmp_path / "shifted.json")
        flow = build_flow(2, n_coupling=1, hidden=(4,),
                          rng=np.random.default_rng(7))
        est = DensityEstimator(flow, FixedPrior("gaussian", 2))
        save_checkpoint(model, est,
                        standardization=(np.array([10.0, 20.0]),
                                         np.array([2.0, 3.0])))
        out = str(tmp_path / "s.csv")
        assert main(["sample", "--model", model, "--n", "2000",
                     "--seed", "2", "--out", out]) == 0
        capsys.readouterr()
        draws = np.loadtxt(out, delimiter=",")
        assert abs(draws[:, 0].mean() - 10.0) < 0.3
        assert abs(draws[:, 1].mean() - 20.0) < 0.4


class TestCliErrors:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["train", "--no-such-flag"]) == 2
        capsys.readouterr()

    def test_missing_model_file(self, capsys):
        rc = main(["eval", "--data", "synthetic:checkerboard", "--n", "100",
                   "--model", "/nonexistent/model.json"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_variance_needs_tree_prior(self, tmp_path, capsys):
        model = str(tmp_path / "g.json")
        flow = build_flow(2, n_coupling=0, rng=np.random.default_rng(8))
        save_checkpoint(model, DensityEstimator(flow, FixedPrior("gaussian", 2)))
        rc = main(["variance", "--model", model])
        assert rc == 1
        assert "tree prior" in capsys.readouterr().err

    def test_conjugate_rejects_a_kl_weight(self, tmp_path, capsys):
        rc = main(["train", "--data", "synthetic:checkerboard", "--n", "300", "--conjugate",
                   "--kl-weight", "1", "--epochs", "1", "--out", str(tmp_path / "t.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: conjugate mode sets the alphas in closed form" in err
        assert "Traceback" not in err
        assert not (tmp_path / "t.json").exists()

    def test_conjugate_needs_tree_prior(self, tmp_path, capsys):
        rc = main(["train", "--data", "synthetic:eight_gaussians", "--n", "300",
                   "--prior", "gaussian", "--conjugate", "--epochs", "1",
                   "--out", str(tmp_path / "g.json")])
        assert rc == 1
        assert "error: conjugate mode needs a tree base" in capsys.readouterr().err
        assert not (tmp_path / "g.json").exists()

    def test_bad_bounds_string(self, tmp_path, capsys):
        model = _train_small(tmp_path)
        capsys.readouterr()
        rc = main(["grid", "--model", model, "--bounds", "1,2,3",
                   "--out", str(tmp_path / "g.csv")])
        assert rc == 1
        assert "bounds" in capsys.readouterr().err

    def test_unknown_synthetic_name(self, tmp_path, capsys):
        rc = main(["train", "--data", "synthetic:blobs", "--n", "100",
                   "--epochs", "1", "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert "unknown synthetic" in capsys.readouterr().err

    def test_eval_record_overflow_names_column(self, tmp_path, capsys):
        # the checkpoint's record has std ~1e-3, so +-1e308 cells overflow
        # only when the record is applied, not when the file is parsed
        rng = np.random.default_rng(19)
        rows = rng.normal(0.0, 1e-3, size=(300, 2))
        data = tmp_path / "small.csv"
        data.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in rows))
        model = str(tmp_path / "m.json")
        assert main(["train", "--data", str(data), "--prior", "vpt", "--levels", "2",
                     "--flow-layers", "1", "--hidden", "4", "--epochs", "1",
                     "--seed", "3", "--out", model]) == 0
        capsys.readouterr()
        rows[:, 1] = np.where(rng.random(300) < 0.5, 1e308, -1e308)
        data.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")          # no RuntimeWarning on the way
            rc = main(["eval", "--data", str(data), "--model", model])
        assert rc == 1
        assert "column 2 overflows float64" in capsys.readouterr().err


def _saved_doc(tmp_path, mode="per-level"):
    """A tree checkpoint with a standardization record, as a JSON dict plus its path."""
    est = _perturbed_tree_estimator(np.random.default_rng(9), mode)
    path = tmp_path / "m.json"
    save_checkpoint(path, est, seed=3,
                    standardization=(np.array([1.0, -1.0]), np.array([2.0, 0.5])))
    return json.loads(path.read_text()), path


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


def _pop_column(rows):
    for row in rows:
        row.pop()


W0 = ("flow", "layers", 0, "weights", 0)


class TestCheckpointValidation:
    """Malformed fields are rejected at load time with their path, not later."""

    def test_zero_width_histogram_cell(self, tmp_path):
        rng = np.random.default_rng(4)
        est = DensityEstimator(build_flow(2, n_coupling=1, hidden=(5,), sigmoid=True, rng=rng),
                               LearnableHistogram.uniform(4, 2))
        path = tmp_path / "h.json"
        save_checkpoint(path, est)
        doc = json.loads(path.read_text())
        doc["prior"]["raw_widths"][1][0] = -800.0      # softplus underflows to width 0
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"raw_widths\[1\]\[0\] is -800\.0"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda d: _set(d, W0 + (0, 3), float("nan")),
                     r"flow\.layers\[0\]\.weights\[0\]\[0\]\[3\]: non-finite value nan",
                     id="nan-weight"),
        pytest.param(lambda d: _set(d, W0[:-1] + (1,), [float("inf")] * 6),
                     r"flow\.layers\[0\]\.weights\[1\]\[0\]: non-finite value inf",
                     id="inf-bias"),
        pytest.param(lambda d: _set(d, ("flow", "layers", 2, "log_scale"), [0.0, -np.inf]),
                     r"flow\.layers\[2\]\.log_scale\[1\]: non-finite value -inf",
                     id="inf-log-scale"),
        pytest.param(lambda d: _set(d, ("prior", "raw_left", 1, 4), float("nan")),
                     r"prior\.raw_left\[1\]\[4\]: non-finite value nan", id="nan-raw-left"),
        pytest.param(lambda d: _set(d, ("prior", "split_raw", 0, 0), float("nan")),
                     r"prior\.split_raw\[0\]\[0\]: non-finite value nan", id="nan-split"),
        pytest.param(lambda d: _set(d, ("standardization", "mean", 0), float("nan")),
                     r"standardization\.mean\[0\]: non-finite value nan", id="nan-mean"),
        # the hidden width is read off the bias: W0 must be (1 input, 6 hidden)
        pytest.param(lambda d: _pop_column(d["flow"]["layers"][0]["weights"][0]),
                     r"flow\.layers\[0\]\.weights\[0\]: expected shape \(1, 6\), got \(1, 5\)",
                     id="weight-column-short"),
        # the output layer must shift the 1 unmasked coordinate
        pytest.param(lambda d: _pop_column(d["flow"]["layers"][1]["weights"][2]),
                     r"flow\.layers\[1\]\.weights\[2\]: expected shape \(6, 1\), got \(6, 0\)",
                     id="output-column-short"),
        pytest.param(lambda d: d["flow"]["layers"][0]["weights"][3].append(0.0),
                     r"flow\.layers\[0\]\.weights\[3\]: expected shape \(1,\), got \(2,\)",
                     id="bias-too-long"),
        pytest.param(lambda d: d["flow"]["layers"][0]["weights"].pop(),
                     r"flow\.layers\[0\]\.weights: expected \[W0, b0, \.\.\.\] pairs, got 3",
                     id="odd-weight-list"),
        pytest.param(lambda d: d["flow"]["layers"][0]["mask"].append(True),
                     r"flow\.layers\[0\]\.mask: expected shape \(2,\), got \(3,\)",
                     id="mask-too-long"),
        pytest.param(lambda d: d["flow"]["layers"][2]["log_scale"].pop(),
                     r"flow\.layers\[2\]\.log_scale: expected shape \(2,\), got \(1,\)",
                     id="log-scale-short"),
        pytest.param(lambda d: _pop_column(d["prior"]["raw_left"]),
                     r"prior\.raw_left: expected shape \(2, 7\), got \(2, 6\)",
                     id="raw-left-short"),
        pytest.param(lambda d: d["prior"]["raw_right"].pop(),
                     r"prior\.raw_right: expected shape \(2, 7\), got \(1, 7\)",
                     id="raw-right-row-missing"),
        pytest.param(lambda d: d["prior"]["split_raw"][1].append(0.0),
                     r"prior\.split_raw: expected an array of numbers", id="ragged-split"),
        pytest.param(lambda d: _set(d, ("prior", "dims"), 3),
                     r"prior\.dims: expected 2 \(flow\.dims\), got 3", id="prior-dims"),
        pytest.param(lambda d: d["standardization"]["std"].pop(),
                     r"standardization\.std: expected shape \(2,\), got \(1,\)",
                     id="std-short"),
        pytest.param(lambda d: d["standardization"]["mean"].append(0.0),
                     r"standardization\.mean: expected shape \(2,\), got \(3,\)",
                     id="mean-too-long"),
        pytest.param(lambda d: _set(d, ("standardization", "std", 1), 0.0),
                     r"standardization\.std\[1\]: expected > 0, got 0\.0", id="std-zero"),
        pytest.param(lambda d: _set(d, ("standardization", "std", 0), -2.0),
                     r"standardization\.std\[0\]: expected > 0, got -2\.0", id="std-negative"),
        pytest.param(lambda d: _set(d, ("config",), [1, 2]),
                     r"config: expected an object, got list", id="config-not-object"),
        pytest.param(lambda d: _set(d, ("config",), {"levels": 3, "bogus": 1}),
                     r"config\.bogus: unknown field", id="config-unknown-field"),
        pytest.param(lambda d: _set(d, ("config",), {"hidden": 5}),
                     r"config\.hidden: expected a list of widths, got 5", id="config-hidden-int"),
        pytest.param(lambda d: _set(d, ("flow", "layers", 0, "activation"), "gelu"),
                     r"flow\.layers\[0\]\.activation: expected one of \('tanh', 'relu'\), "
                     r"got 'gelu'", id="unknown-activation"),
        # checked before the weights, whose shapes the mask decides
        pytest.param(lambda d: _set(d, ("flow", "layers", 0, "mask"), [True, True]),
                     r"flow\.layers\[0\]\.mask: must pass some and shift some coordinates",
                     id="mask-all-true"),
        # json's true is a Python bool, which is an int: it must not pass as a seed
        pytest.param(lambda d: _set(d, ("seed",), True),
                     r"seed: expected a non-negative integer or null, got True",
                     id="seed-bool"),
        pytest.param(lambda d: _set(d, ("seed",), "abc"),
                     r"seed: expected a non-negative integer or null, got 'abc'",
                     id="seed-string"),
        pytest.param(lambda d: _set(d, ("seed",), 3.0),
                     r"seed: expected a non-negative integer or null, got 3\.0",
                     id="seed-float"),
        pytest.param(lambda d: _set(d, ("seed",), -1),
                     r"seed: expected a non-negative integer or null, got -1",
                     id="seed-negative"),
        pytest.param(lambda d: _set(d, ("smooth_base",), "no"),
                     r"smooth_base: expected true or false, got 'no'", id="smooth-base-string"),
        pytest.param(lambda d: _set(d, ("smooth_base",), 0),
                     r"smooth_base: expected true or false, got 0", id="smooth-base-int"),
    ])
    def test_bad_field_named(self, tmp_path, edit, message):
        doc, path = _saved_doc(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))        # json writes NaN/Infinity literals
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    def test_histogram_cells_named(self, tmp_path):
        flow = build_flow(2, n_coupling=1, hidden=(4,), sigmoid=True,
                          rng=np.random.default_rng(10))
        path = tmp_path / "h.json"
        save_checkpoint(path, DensityEstimator(flow, LearnableHistogram.uniform(4, 2)))
        doc = json.loads(path.read_text())
        doc["prior"]["raw_logits"].pop()
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError,
                           match=r"prior\.raw_logits: expected shape \(4, 2\), got \(3, 2\)"):
            load_checkpoint(path)

    def test_cli_reports_the_field(self, tmp_path, capsys):
        doc, path = _saved_doc(tmp_path)
        _set(doc, W0 + (0, 0), float("nan"))
        path.write_text(json.dumps(doc))
        assert main(["sample", "--model", str(path), "--n", "5"]) == 1
        assert "flow.layers[0].weights[0][0][0]: non-finite" in capsys.readouterr().err

    def test_cli_reports_a_bad_config_field(self, tmp_path, capsys):
        doc, path = _saved_doc(tmp_path)
        _set(doc, ("config",), {"bogus": 1})
        path.write_text(json.dumps(doc))
        assert main(["sample", "--model", str(path), "--n", "5"]) == 1
        assert "error: config.bogus: unknown field" in capsys.readouterr().err

    def test_cli_eval_reports_a_bad_seed(self, tmp_path, capsys):
        # without --seed, eval splits the data with the checkpoint's seed
        model = _train_small(tmp_path)
        doc = json.loads(open(model).read())
        doc["seed"] = "abc"
        with open(model, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert main(["eval", "--model", model, "--data", "synthetic:eight_gaussians",
                     "--n", "300"]) == 1
        err = capsys.readouterr().err
        assert "error: seed: expected a non-negative integer or null, got 'abc'" in err
        assert "Traceback" not in err

    def test_null_seed_and_missing_smooth_base_load(self, tmp_path):
        doc, path = _saved_doc(tmp_path)
        doc["seed"] = None
        del doc["smooth_base"]
        path.write_text(json.dumps(doc))
        ck = load_checkpoint(path)
        assert ck.seed is None and not ck.estimator.smooth_base

    def test_conjugate_config_on_a_fixed_prior_loads(self, tmp_path):
        # `train` rejects this combination; a checkpoint recording it still loads
        est = DensityEstimator(build_flow(2, n_coupling=1, hidden=(4,)), FixedPrior("gaussian", 2))
        cfg = TrainConfig(prior="gaussian", hidden=(4,), conjugate=True)
        path = tmp_path / "g.json"
        save_checkpoint(path, est, config=cfg, seed=1)
        assert load_checkpoint(path).config == cfg

    def test_conjugate_config_with_a_kl_weight_loads(self, tmp_path):
        # `train` rejects this combination too; a checkpoint recording it still loads
        est = DensityEstimator(build_flow(2, n_coupling=1, hidden=(4,), sigmoid=True),
                               PolyaTreeModel.uniform(3, 2))
        cfg = TrainConfig(hidden=(4,), conjugate=True, kl_weight=2.0)
        path = tmp_path / "t.json"
        save_checkpoint(path, est, config=cfg, seed=1)
        assert load_checkpoint(path).config == cfg

    # Documents that once escaped validation as AttributeError, KeyError or TypeError
    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda d: [d], "checkpoint: expected an object, got list", id="list-root"),
        pytest.param(lambda d: d.pop("flow") and d, "flow: missing", id="flow-missing"),
        pytest.param(lambda d: d.pop("prior") and d, "prior: missing", id="prior-missing"),
        pytest.param(lambda d: {**d, "flow": "coupling"}, "flow: expected an object, got str",
                     id="flow-string"),
        pytest.param(lambda d: _set(d, ("flow", "layers", 0), None) or d,
                     r"flow\.layers\[0\]: expected an object, got null", id="layer-null"),
        pytest.param(lambda d: d["standardization"].pop("mean") and d,
                     r"standardization\.mean: missing", id="standardization-mean-missing"),
        # OverflowError from 1 << levels
        pytest.param(lambda d: _set(d, ("prior", "levels"), 2**70) or d,
                     r"prior\.levels: expected 1 to 62, got 1180591620717411303424",
                     id="levels-huge"),
        # messages that named no field
        pytest.param(lambda d: _set(d, ("schema_version",), 2) or d,
                     r"schema_version: unsupported checkpoint schema version 2", id="schema-2"),
        pytest.param(lambda d: _set(d, ("flow", "layers", 1, "type"), "?") or d,
                     r"flow\.layers\[1\]\.type: unknown flow layer type '\?'",
                     id="layer-type-unknown"),
        pytest.param(lambda d: _set(d, ("prior", "kind"), None) or d,
                     r"prior\.kind: unknown prior kind None", id="prior-kind-null"),
        pytest.param(lambda d: _set(d, ("prior", "split_raw"), None) or d,
                     r"prior\.split_raw: expected shape \(2, 3\), got \(\)", id="split-null"),
        pytest.param(lambda d: _set(d, ("prior", "partition_mode"), "dyadic") or d,
                     r"prior\.split_raw: expected null on a dyadic tree", id="dyadic-split"),
        pytest.param(lambda d: _set(d, ("config",), {"prior": None}) or d,
                     r"config: prior must be one of", id="config-prior-null"),
    ])
    def test_malformed_document_names_the_field(self, tmp_path, capsys, edit, message):
        doc, path = _saved_doc(tmp_path)
        path.write_text(json.dumps(edit(doc)))
        with pytest.raises(ValueError, match="^" + message):
            load_checkpoint(path)
        assert main(["eval", "--model", str(path), "--data", "synthetic:eight_gaussians",
                     "--n", "300"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert re.match("error: " + message, err)


def _prior_doc(tmp_path, prior):
    """A small checkpoint of each prior with every context field, as a JSON dict plus its path."""
    rng = np.random.default_rng(21)
    if prior == "vpt":
        base = PolyaTreeModel.uniform(2, 2, "per-node")
    elif prior == "histogram":
        base = LearnableHistogram.uniform(3, 2)
    else:
        base = FixedPrior(prior, 2)
    flow = build_flow(2, n_coupling=1, hidden=(2,), sigmoid=prior in ("vpt", "histogram"),
                      rng=rng)
    est = DensityEstimator(flow, base)
    est.theta += rng.normal(0.0, 0.2, est.theta.shape)
    path = tmp_path / f"{prior}.json"
    save_checkpoint(path, est, config=TrainConfig(prior=prior, levels=2, hidden=(2,)), seed=5,
                    standardization=(np.array([0.5, -1.0]), np.array([2.0, 0.25])),
                    summary={"val_nll": 1.5})
    return json.loads(path.read_text()), path


class TestSmoothBaseNeedsATree:
    """`smooth_base` on a histogram or fixed prior once loaded and failed in evaluation."""

    def test_estimator_rejects_it(self):
        flow = build_flow(2, n_coupling=1, hidden=(4,), sigmoid=True)
        with pytest.raises(ValueError, match="^smooth_base: a LearnableHistogram base has no "
                                             "smooth read; only a tree base can be smooth"):
            DensityEstimator(flow, LearnableHistogram.uniform(4, 2), smooth_base=True)

    @pytest.mark.parametrize("prior", ["histogram", "gaussian", "logistic"])
    def test_checkpoint_names_the_field(self, tmp_path, capsys, prior):
        doc, path = _prior_doc(tmp_path, prior)
        doc["smooth_base"] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^smooth_base: a (LearnableHistogram|FixedPrior) "
                                             "base has no smooth read"):
            load_checkpoint(path)
        assert main(["eval", "--model", str(path), "--data", "synthetic:eight_gaussians",
                     "--n", "300"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: smooth_base: ") and "Traceback" not in err


# "<field>: ...", a field path of dict keys and list indices, as `checkpoint._field` names it
FIELD_PATH = re.compile(r"^[a-z_]+(\.[^\s.:\[\]]+|\[\d+\])*: ")
REPLACEMENTS = [None, "?", ["?"], {"?": "?"}, float("nan"), 2**70]


def _mutation_sites(node, path=()):
    """(path, value) of every object field, and of every list entry that is a container.

    A number inside an array is left out: any finite replacement is a
    well-formed checkpoint of another model.
    """
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = [(i, v) for i, v in enumerate(node) if isinstance(v, (dict, list))]
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _mutation_sites(value, path + (key,))


class TestMutatedCheckpoints:
    """One mutation of a valid checkpoint either fails naming a field or changes nothing."""

    POINTS = np.random.default_rng(22).normal(size=(40, 2))

    @pytest.mark.parametrize("prior", ["vpt", "histogram", "gaussian", "logistic"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_load_names_a_field_or_evaluates_bitwise(self, tmp_path_factory, prior, data):
        doc, path = _prior_doc(tmp_path_factory.mktemp("m"), prior)
        want = load_checkpoint(path).estimator.log_likelihood(self.POINTS)
        sites = list(_mutation_sites(doc))
        keys, value = data.draw(st.sampled_from(sites), label="site")
        edits = [("set", r) for r in REPLACEMENTS]
        if isinstance(keys[-1], str):
            edits.append(("delete", None))
        # dropping the last layer leaves a well-formed shorter flow
        if isinstance(value, list) and value and keys != ("flow", "layers"):
            edits.append(("truncate", None))
        edit, replacement = data.draw(st.sampled_from(edits), label="edit")
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        if edit == "delete":
            del parent[keys[-1]]
        elif edit == "truncate":
            parent[keys[-1]] = value[:-1]
        else:
            parent[keys[-1]] = replacement
        path.write_text(json.dumps(doc))
        try:
            loaded = load_checkpoint(path)
        except ValueError as err:
            assert FIELD_PATH.match(str(err)), f"{keys} {edit}: {err}"
        else:
            np.testing.assert_array_equal(loaded.estimator.log_likelihood(self.POINTS), want)


class TestEvalSeedDefault:
    """`eval` splits the data with the checkpoint's seed unless --seed is given."""

    def _train_on_csv(self, tmp_path):
        rng = np.random.default_rng(11)
        pts = rng.normal([1.0, -2.0], [0.5, 2.0], size=(400, 2))
        data = tmp_path / "d.csv"
        data.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pts) + "\n")
        model = str(tmp_path / "m.json")
        assert main(["train", "--data", str(data), "--prior", "gaussian",
                     "--flow-layers", "1", "--hidden", "8", "--epochs", "3",
                     "--batch", "128", "--seed", "5", "--out", model]) == 0
        return str(data), model

    def _expected_nll(self, data, model, seed):
        ck = load_checkpoint(model)
        ds = load_delimited(data, seed=seed, standardize=False)
        mean, std = ck.standardization
        return -avg_log_likelihood(ck.estimator, (ds.test - mean) / std)

    def _eval(self, capsys, argv):
        capsys.readouterr()
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])["value"]

    def test_default_uses_checkpoint_seed(self, tmp_path, capsys):
        data, model = self._train_on_csv(tmp_path)
        argv = ["eval", "--data", data, "--model", model, "--split", "test",
                "--metric", "nll"]
        assert self._eval(capsys, argv) == self._expected_nll(data, model, 5)
        # an explicit --seed still wins
        assert self._eval(capsys, argv + ["--seed", "0"]) == self._expected_nll(data, model, 0)
