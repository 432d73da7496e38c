"""The benchmark's four workloads: inputs from a seed, one closed-loop cycle, checks.

Every call into polyaflow goes through a module attribute looked up at
call time (`train_mod.train`, `data.synth`, ...), so the span wrappers of
`spans.Tracer` see the benchmark's own calls as well as the package's
internal ones.
"""

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

checkpoint = importlib.import_module("polyaflow.checkpoint")
cli = importlib.import_module("polyaflow.cli")
data = importlib.import_module("polyaflow.data")
train_mod = importlib.import_module("polyaflow.train")   # `polyaflow.train` is the function

# Criterion 07/08 comparison config (tests/test_acceptance.py), with patience
# above the epoch count so every train() call runs its fixed number of epochs.
COMPARISON = dict(flow_layers=1, hidden=(50, 50), activation="relu", batch_size=256,
                  lr_decay=True, lr_decay_patience=80)
DEEP = dict(COMPARISON, prior="vpt", levels=10, partition_mode="dyadic", flow_layers=2,
            batch_size=1024, conjugate=True)
FIT_CONFIGS = {
    "fit-small": dict(COMPARISON, prior="vpt", levels=3),
    "fit-histogram": dict(COMPARISON, prior="histogram", levels=4, bins=16),
    "fit-deep": DEEP,
}


@dataclass(frozen=True)
class Scale:
    """Input sizes; the runner always uses the defaults, tests shrink them."""

    points: int = 20000              # rows per dataset (70% train split)
    fit_epochs: int = 20             # epochs per train() call, D = 2 workloads
    deep_epochs: int = 5             # epochs per train() call, fit-deep
    serve_train_epochs: int = 2      # epochs of the model serve-deep trains in set-up
    serve_points: int = 100000       # points per log_likelihood and sample call
    cli_per_cycle: int = 10          # CLI evals per serve cycle: >= 10 beyond p90 in 20 s
    setups: int = 5                  # set-ups per run; setup_s is their median


class Record:
    """Operation and failure counts plus named timing samples of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.samples = {}
        self.facts = {}

    def add(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _checkerboard_columns(n, rng, dims):
    """`dims // 2` independent checkerboards side by side; split from the first."""
    boards = [data.synth("checkerboard", n, rng) for _ in range(dims // 2)]
    first = boards[0]
    points = np.concatenate([b.points for b in boards], axis=1)
    return data.Dataset(points, first.train_idx, first.val_idx, first.test_idx,
                        name=f"checkerboard-x{dims // 2}")


def _write_csv(path, points):
    with open(path, "w") as fh:
        fh.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in points)


def _trajectory_hash(values):
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def _all_finite(values):
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


class FitWorkload:
    """Repeated `train()` calls with a fixed epoch count on seeded data."""

    def __init__(self, name, seed, scale):
        self.seed = seed
        self.scale = scale
        deep = name == "fit-deep"
        self.dims = 8 if deep else 2
        self.epochs = scale.deep_epochs if deep else scale.fit_epochs
        self.config = train_mod.TrainConfig(**FIT_CONFIGS[name], epochs=self.epochs,
                                            patience=self.epochs + 1, seed=seed)
        self.expected = None

    def prepare_checks(self, rec):
        """Fits are checked inside each cycle."""

    def setup(self):
        """Generate the dataset and run one warm-up epoch."""
        rng = np.random.default_rng(self.seed)
        self.dataset = _checkerboard_columns(self.scale.points, rng, self.dims)
        train_mod.train(dataclasses.replace(self.config, epochs=1), self.dataset)

    def cycle(self, rec):
        tic = time.perf_counter()
        _, report = train_mod.train(self.config, self.dataset)
        wall = time.perf_counter() - tic
        n_train = self.dataset.train.shape[0]
        epochs = len(report.train_nll)
        rec.add("wall", wall)
        rec.add("fit_pts_per_s", epochs * n_train / wall)
        for sec in report.epoch_seconds:
            rec.add("epoch", sec)
        test_nll = report.final["test_nll"]
        rec.check(epochs == self.epochs, f"ran {epochs} of {self.epochs} epochs")
        rec.check(_all_finite(report.train_nll + report.val_nll + [test_nll]),
                  "non-finite NLL in a fit")
        outcome = (_trajectory_hash(report.train_nll), report.best_epoch, test_nll)
        if self.expected is None:
            self.expected = outcome
        rec.check(outcome == self.expected, "seeded fit did not repeat bit for bit")
        rec.facts.update(train_nll_sha256=outcome[0], best_epoch=outcome[1], test_nll=test_nll)

    def end_to_end(self, rec):
        epoch_ms = 1e3 * np.asarray(rec.samples["epoch"])
        pts = np.median(rec.samples["fit_pts_per_s"])
        p50, p90 = np.percentile(epoch_ms, [50, 90])
        return {
            "pts_per_s": pts,
            "call_ms_p50": p50,
            "cycle_ms": 1e3 * np.median(rec.samples["wall"]),
            "test_nll": rec.facts["test_nll"],
        }, {
            "fit_pts_per_s": pts,
            "epoch_ms_p50": p50,
            "epoch_ms_p90": p90,
            "epochs": epoch_ms.size,
            "epochs_beyond_p90": int(np.sum(epoch_ms > p90)),
        }


class ServeWorkload:
    """Read-only use of a trained 8-D tree model: likelihood, sampling, CLI, draws."""

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.scale = scale
        self.csv_path = os.path.join(workdir, "serve-deep.csv")
        self.model_path = os.path.join(workdir, "serve-deep.json")
        self.config = train_mod.TrainConfig(**DEEP, epochs=scale.serve_train_epochs,
                                            patience=scale.serve_train_epochs + 1, seed=seed)

    def setup(self):
        """Write the data as CSV, load it back, train briefly, save a checkpoint."""
        rng = np.random.default_rng(self.seed)
        _write_csv(self.csv_path, _checkerboard_columns(self.scale.points, rng, 8).points)
        self.dataset = data.load_delimited(self.csv_path, seed=self.seed, standardize=False)
        self.trained, _ = train_mod.train(self.config, self.dataset)
        checkpoint.save_checkpoint(self.model_path, self.trained, config=self.config,
                                   seed=self.seed,
                                   standardization=(self.dataset.mean, self.dataset.std))
        self.queries = _checkerboard_columns(self.scale.serve_points, rng, 8).points
        self.served = checkpoint.load_checkpoint(self.model_path).estimator
        self.draw_rng = np.random.default_rng(self.seed + 1)

    def prepare_checks(self, rec):
        """Checks made once per run, outside the timed cycles."""
        probe = self.queries[:2048]
        rec.check(np.array_equal(self.served.log_likelihood(probe),
                                 self.trained.log_likelihood(probe)),
                  "reloaded checkpoint does not evaluate bit-identically")
        self.reference_nll = -train_mod.avg_log_likelihood(self.trained, self.dataset.test)
        rec.facts["test_nll"] = self.reference_nll

    def _cli_eval(self):
        out, err = io.StringIO(), io.StringIO()
        argv = ["eval", "--model", self.model_path, "--data", self.csv_path,
                "--split", "test", "--metric", "nll", "--seed", str(self.seed)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def cycle(self, rec):
        n = self.scale.serve_points
        tic = time.perf_counter()
        ll = self.served.log_likelihood(self.queries)
        t_ll = time.perf_counter()
        samples = self.served.sample(n, self.draw_rng)
        t_sample = time.perf_counter()
        branch = self.served.base.sample_branch_probabilities(self.draw_rng)
        t_draw = time.perf_counter()
        rec.add("eval", t_ll - tic)
        rec.add("sample", t_sample - t_ll)
        rec.add("draw", t_draw - t_sample)
        rec.check(ll.shape == (n,) and _all_finite(ll), "non-finite log-likelihoods")
        rec.check(samples.shape == (n, 8) and _all_finite(samples),
                  "samples non-finite or of the wrong shape")
        rec.check(bool(np.all((branch > 0.0) & (branch < 1.0))), "branch draw outside (0, 1)")
        for _ in range(self.scale.cli_per_cycle):
            start = time.perf_counter()
            code, text = self._cli_eval()
            rec.add("cli", time.perf_counter() - start)
            ok = code == 0
            if ok:
                reply = json.loads(text)
                ok = reply == {"metric": "nll", "value": self.reference_nll}
            rec.check(ok, f"CLI eval exited {code} or disagreed with the library")
        rec.add("wall", time.perf_counter() - tic)

    def end_to_end(self, rec):
        n = self.scale.serve_points
        cli_ms = 1e3 * np.asarray(rec.samples["cli"])
        t_eval, t_sample = np.median(rec.samples["eval"]), np.median(rec.samples["sample"])
        p50, p90 = np.percentile(cli_ms, [50, 90])
        return {
            "pts_per_s": 2 * n / (t_eval + t_sample),
            "call_ms_p50": p50,
            "cycle_ms": 1e3 * np.median(rec.samples["wall"]),
            "test_nll": rec.facts["test_nll"],
        }, {
            "eval_pts_per_s": n / t_eval,
            "sample_pts_per_s": n / t_sample,
            "cli_eval_ms_p50": p50,
            "cli_eval_ms_p90": p90,
            "cli_calls": cli_ms.size,
            "cli_calls_beyond_p90": int(np.sum(cli_ms > p90)),
            "posterior_draws_per_s": 1.0 / np.median(rec.samples["draw"]),
        }


def make(name, seed, scale, workdir):
    """The workload called `name`: "serve-deep" or a key of FIT_CONFIGS."""
    if name == "serve-deep":
        return ServeWorkload(seed, scale, workdir)
    return FitWorkload(name, seed, scale)
