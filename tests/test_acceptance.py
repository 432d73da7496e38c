"""End-to-end acceptance checks for the whole library.

Each test exercises one advertised guarantee at its stated tolerance and
prints a single PASS/FAIL line (visible even under pytest's capture) so a
full run yields a one-page scorecard.  The heavyweight training
comparisons live at the bottom; everything above runs in seconds.
"""

import time

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp_special

from polyaflow import autodiff as ad
from polyaflow import special
from polyaflow.baselines import FixedPrior, LearnableHistogram
from polyaflow.checkpoint import load_checkpoint, save_checkpoint
from polyaflow.data import synth
from polyaflow.distributions import BetaDist, DiagGaussian, beta_kl, beta_kl_vars, gaussian_kl
from polyaflow.flow import DensityEstimator, build_flow
from polyaflow.polya_tree import PolyaTreeModel, intervals_from_splits, param_count
from polyaflow.train import TrainConfig, sse_calibration, train

from helpers import numeric_gradient, relative_error, tape_gradients

MODES = ("dyadic", "per-level", "per-node")


def _emit(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _random_tree(rng, levels, dims, mode):
    model = PolyaTreeModel.uniform(levels, dims, mode)
    model.raw_left += rng.normal(0.0, 1.2, size=model.raw_left.shape)
    model.raw_right += rng.normal(0.0, 1.2, size=model.raw_right.shape)
    if model.split_raw is not None:
        model.split_raw += rng.normal(0.0, 0.8, size=model.split_raw.shape)
    return model


def _interior_points(model, rng, n, margin=1e-3):
    """Points in (0,1]^D at least `margin` away from every leaf boundary."""
    all_bounds = model.leaf_boundaries()
    pts = np.empty((n, model.dims))
    for d in range(model.dims):
        bounds = all_bounds[d]
        centers = 0.5 * (bounds[:-1] + bounds[1:])
        widths = bounds[1:] - bounds[:-1]
        k = rng.integers(0, centers.size, size=n)
        jitter = rng.uniform(-0.5, 0.5, size=n) * np.maximum(widths[k] - 4 * margin, 0.0)
        pts[:, d] = centers[k] + jitter
    return pts


def test_criterion_01_normalization(capsys):
    tic = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_sum = 0.0
    worst_int = 0.0
    for i in range(100):
        levels = 1 + i % 4
        mode = MODES[i % 3]
        dims = 1 if i % 2 == 0 else 1 + i % 3
        model = _random_tree(rng, levels, dims, mode)

        # leaf masses three ways: the model's leaf table, an independent
        # product-of-branch-probabilities enumeration, and 1-D quadrature
        g = ad.evaluate(model.leaf_log_densities_vars, model.parameter_arrays())
        left, right = model.alphas()
        y = left / (left + right)
        all_bounds = model.leaf_boundaries()
        for d in range(model.dims):
            bounds = all_bounds[d]
            widths = bounds[1:] - bounds[:-1]
            masses = np.exp(g[d]) * widths
            worst_sum = max(worst_sum, abs(masses.sum() - 1.0))
            enumerated = np.empty(model.n_leaves)
            for leaf in range(model.n_leaves):
                prob, prefix = 1.0, 0
                for j in range(levels):
                    bit = (leaf >> (levels - 1 - j)) & 1
                    node = 2**j - 1 + prefix
                    prob *= y[d, node] if bit == 0 else 1.0 - y[d, node]
                    prefix = 2 * prefix + bit
                enumerated[leaf] = prob
            worst_sum = max(worst_sum, abs(enumerated.sum() - 1.0),
                            np.abs(enumerated - masses).max())
        if dims == 1:
            bounds = all_bounds[0]
            sub = np.linspace(bounds[:-1], bounds[1:], 33).T   # 32 cells per leaf
            mids = 0.5 * (sub[:, :-1] + sub[:, 1:])
            dx = sub[:, 1:] - sub[:, :-1]
            dens = np.exp(model.log_density(mids.reshape(-1, 1)))
            worst_int = max(worst_int, abs(float((dens * dx.reshape(-1)).sum()) - 1.0))
    sec = time.perf_counter() - tic
    ok = worst_sum < 1e-12 and worst_int < 1e-3 and sec < 10.0
    _emit(capsys, 1, "normalization", ok,
          f"max |leaf sum - 1| = {worst_sum:.2e}, max |integral - 1| = {worst_int:.2e}, "
          f"{sec:.1f}s")


def test_criterion_02_interval_oracle(capsys):
    b1, b2 = 0.6, 0.5
    bounds = intervals_from_splits(2, (b1, b2), "per-level")
    hand = np.array([0.0, b1 * b2, b1, b1 + (1.0 - b1) * b2, 1.0])
    exact = np.array_equal(bounds, hand)
    close = np.allclose(bounds, [0.0, 0.30, 0.60, 0.80, 1.0], atol=1e-12)
    intervals = list(zip(bounds[:-1], bounds[1:]))
    ok = exact and close and len(intervals) == 4
    _emit(capsys, 2, "interval oracle", ok,
          "bounds " + ", ".join(f"({lo:.2f},{hi:.2f}]" for lo, hi in intervals))


def test_criterion_03_parameter_accounting(capsys):
    table = {6: (180, 756), 8: (240, 1008), 21: (630, 2646),
             43: (1290, 5418), 63: (1890, 7938)}
    got = {d: (param_count(4, d, "dyadic"), param_count(6, d, "dyadic"))
           for d in table}
    ok = got == table
    _emit(capsys, 3, "parameter accounting", ok,
          "ten dyadic L=4/L=6 entries " + ("all match" if ok else f"got {got}"))


def _walk_counts(model, x):
    """Per-point Python router driven only by split proportions."""
    betas = model.split_betas()
    counts_l = np.zeros((model.dims, model.n_nodes), dtype=np.int64)
    counts_r = np.zeros_like(counts_l)
    for pt in x:
        for d in range(model.dims):
            lo, hi, prefix = 0.0, 1.0, 0
            for j in range(model.levels):
                node = 2**j - 1 + prefix
                split = lo + (hi - lo) * betas[d, node]
                if pt[d] <= split:
                    counts_l[d, node] += 1
                    hi, prefix = split, 2 * prefix
                else:
                    counts_r[d, node] += 1
                    lo, prefix = split, 2 * prefix + 1
    return counts_l, counts_r


def test_criterion_04_conjugacy(capsys):
    tic = time.perf_counter()
    rng = np.random.default_rng(104)
    mismatches = 0
    worst_alpha = 0.0
    for i in range(50):
        levels = 1 + i % 4
        dims = 1 + i % 3
        model = _random_tree(rng, levels, dims, MODES[i % 3])
        n = 10000 if i == 0 else int(rng.integers(20, 2000))
        x = rng.uniform(1e-9, 1.0, (n, dims))
        scale = 1.0 if i % 2 == 0 else float(rng.uniform(0.5, 4.0))
        updated = model.conjugate_update(x, prior_alphas=1.0, count_scale=scale)
        cl, cr = _walk_counts(model, x)
        fast_cl, fast_cr = model.branch_counts(x)
        exact = (np.array_equal(fast_cl, cl) and np.array_equal(fast_cr, cr)
                 and np.array_equal(updated.raw_left,
                                    special.inv_softplus(1.0 + scale * cl))
                 and np.array_equal(updated.raw_right,
                                    special.inv_softplus(1.0 + scale * cr)))
        mismatches += 0 if exact else 1
        al, ar = updated.alphas()
        worst_alpha = max(
            worst_alpha,
            np.abs(al / (1.0 + scale * cl) - 1.0).max(),
            np.abs(ar / (1.0 + scale * cr) - 1.0).max())
    sec = time.perf_counter() - tic
    ok = mismatches == 0 and worst_alpha < 1e-13 and sec < 30.0
    _emit(capsys, 4, "conjugacy", ok,
          f"50 datasets, {mismatches} router mismatches, "
          f"alpha round-trip error {worst_alpha:.1e}, {sec:.1f}s")


def test_criterion_05_gradient_suite(capsys):
    tic = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    configs = 0

    def run(build, params):
        nonlocal worst, configs
        keys = sorted(params)
        wrapped = lambda tape, leaves: build(tape, dict(zip(keys, leaves)))
        arrays = [params[k] for k in keys]
        _, analytic = tape_gradients(wrapped, arrays)

        def value_of(arrs):
            tape = ad.Tape()
            return float(wrapped(tape, [tape.leaf(a) for a in arrs]).value)

        numeric = numeric_gradient(value_of,
                                   [np.array(a, dtype=np.float64) for a in arrays])
        worst = max(worst, relative_error(analytic, numeric))
        configs += 1

    for i in range(30):                                   # tree log density
        model = _random_tree(rng, 1 + i % 4, 1 + i % 2, MODES[i % 3])
        x = _interior_points(model, rng, 5)
        run(lambda tape, pv, m=model, x=x: m.log_density_vars(tape, pv, x).sum(),
            model.parameter_arrays())

    for i in range(20):                                   # joint posterior
        model = _random_tree(rng, 1 + i % 3, 1 + i % 2, MODES[i % 3])
        x = _interior_points(model, rng, 4)
        run(lambda tape, pv, m=model, x=x: m.log_joint_posterior_vars(tape, pv, x),
            model.parameter_arrays())

    for i in range(20):                                   # histogram log density
        hist = LearnableHistogram.uniform(3 + i % 4, 1 + i % 2)
        hist.raw_widths += rng.normal(0.0, 0.3, size=hist.raw_widths.shape)
        hist.raw_logits += rng.normal(0.0, 0.7, size=hist.raw_logits.shape)
        bounds = hist.boundaries()
        centers = 0.5 * (bounds[:-1] + bounds[1:])        # (K, D) native support
        picks = rng.integers(0, hist.bins, size=(4, hist.dims))
        z = np.take_along_axis(centers, picks, axis=0) / bounds[-1]   # unit cube
        run(lambda tape, pv, h=hist, z=z: h.log_density_vars(tape, pv, z).sum(),
            hist.parameter_arrays())

    for i in range(20):                                   # full flow likelihood
        base_kind = ("gaussian", "vpt", "histogram", "logistic")[i % 4]
        dims = 1 + i % 2
        if base_kind == "vpt":
            base = _random_tree(rng, 2, dims, MODES[i % 3])
        elif base_kind == "histogram":
            base = LearnableHistogram.uniform(4, dims)
            base.raw_logits += rng.normal(0.0, 0.5, size=base.raw_logits.shape)
        else:
            base = FixedPrior(base_kind, dims)
        sigmoid = base_kind in ("vpt", "histogram")
        flow = build_flow(dims, n_coupling=1 + i % 2, hidden=(4,),
                          activation="tanh", sigmoid=sigmoid, rng=rng)
        for arr in flow.parameter_arrays().values():
            arr += rng.normal(0.0, 0.1, size=arr.shape)
        est = DensityEstimator(flow, base)
        cand = rng.normal(0.0, 1.0, (40, dims))
        if sigmoid:
            z = est.latent(cand)
            if base_kind == "vpt":
                edges = base.leaf_boundaries()               # (D, K+1), unit cube
            else:
                b = base.boundaries()                        # (K+1, D), own support
                edges = (b / b[-1]).T
            dist = np.min([np.abs(z[:, d, None] - edges[d]).min(axis=1)
                           for d in range(dims)], axis=0)
            cand = cand[dist > 1e-3][:4]
            assert cand.shape[0] >= 3, "too few boundary-safe points"
        else:
            cand = cand[:4]
        run(lambda tape, pv, e=est, x=cand: e.log_likelihood_vars(tape, pv, x).sum(),
            est.parameter_arrays())

    for i in range(10):                                   # Beta KL
        shape = (2, 3)
        params = {"a": rng.uniform(0.4, 6.0, shape), "b": rng.uniform(0.4, 6.0, shape)}
        cq, dq = rng.uniform(0.4, 6.0, shape), rng.uniform(0.4, 6.0, shape)
        run(lambda tape, pv, cq=cq, dq=dq:
            beta_kl_vars(pv["a"], pv["b"], cq, dq).sum(), params)

    sec = time.perf_counter() - tic
    ok = configs == 100 and worst < 1e-4 and sec < 60.0
    _emit(capsys, 5, "gradient suite", ok,
          f"{configs} configurations, worst relative error {worst:.2e}, {sec:.1f}s")


def test_criterion_06_joint_consistency(capsys):
    rng = np.random.default_rng(106)
    uniform = PolyaTreeModel.uniform(3, 2)
    x = rng.uniform(1e-6, 1.0, (64, 2))
    per_point = uniform.log_joint_posterior(x) / x.shape[0]

    skewed = PolyaTreeModel.uniform(3, 2, "per-node")
    skewed.split_raw += rng.normal(0.0, 0.7, size=skewed.split_raw.shape)
    gap = abs(skewed.log_joint_posterior(x) - skewed.log_density(x).sum())
    ok = abs(per_point) < 1e-12 and gap < 1e-12
    _emit(capsys, 6, "joint consistency", ok,
          f"uniform joint per point {per_point:.2e}, "
          f"unit-alpha joint vs density sum gap {gap:.2e}")


def _comparison_config(prior, levels, bins=0):
    return TrainConfig(
        prior=prior, levels=levels, bins=bins, flow_layers=1, hidden=(50, 50),
        activation="relu", epochs=1200, batch_size=256, patience=240,
        lr_decay=True, lr_decay_patience=80, seed=0,
    )


def test_criterion_07_prior_ordering(capsys):
    tic = time.perf_counter()
    details = []
    ok = True
    for name in ("eight_gaussians", "two_spirals", "checkerboard"):
        ds = synth(name, 20000, np.random.default_rng(7))
        nll = {}
        for prior, levels in (("gaussian", 3), ("vpt", 2), ("vpt", 3)):
            _, report = train(_comparison_config(prior, levels), ds)
            nll[f"{prior}{levels if prior == 'vpt' else ''}"] = report.final["test_nll"]
        beats_gaussian = nll["vpt3"] <= nll["gaussian"] - 0.05
        deeper_helps = nll["vpt3"] <= nll["vpt2"] + 0.02
        ok = ok and beats_gaussian and deeper_helps
        details.append(f"{name}: gauss {nll['gaussian']:.3f} vpt2 {nll['vpt2']:.3f} "
                       f"vpt3 {nll['vpt3']:.3f}")
    sec = time.perf_counter() - tic
    ok = ok and sec < 900.0
    _emit(capsys, 7, "prior ordering", ok, "; ".join(details) + f"; {sec:.0f}s")


def test_criterion_08_histogram_comparison(capsys):
    tic = time.perf_counter()
    ds = synth("checkerboard", 20000, np.random.default_rng(7))
    cfg_tree = _comparison_config("vpt", 4)
    cfg_hist = _comparison_config("histogram", 4, bins=16)
    cfg_tree.epochs = cfg_hist.epochs = 800
    cfg_tree.patience = cfg_hist.patience = 160
    _, rep_tree = train(cfg_tree, ds)
    _, rep_hist = train(cfg_hist, ds)
    tree_nll = rep_tree.final["test_nll"]
    hist_nll = rep_hist.final["test_nll"]
    sec = time.perf_counter() - tic
    ok = tree_nll <= hist_nll + 0.05 and sec < 600.0
    _emit(capsys, 8, "histogram comparison", ok,
          f"tree L=4 {tree_nll:.3f} vs histogram K=16 {hist_nll:.3f} nats, {sec:.0f}s")


def _beta_kl_quadrature(p, q):
    """KL(p||q) for Betas via weighted quadrature (QAWS handles the endpoints).

    The integrand factors as t^(a-1) (1-t)^(b-1) times a combination of 1,
    ln t and ln(1-t); each piece gets the matching singular weight.
    """
    a, b, c, d = p.alpha, p.beta, q.alpha, q.beta
    wv = (a - 1.0, b - 1.0)
    one = lambda t: 1.0
    i_plain, e0 = integrate.quad(one, 0.0, 1.0, weight="alg", wvar=wv, limit=200)
    i_logt, e1 = integrate.quad(one, 0.0, 1.0, weight="alg-loga", wvar=wv, limit=200)
    i_log1t, e2 = integrate.quad(one, 0.0, 1.0, weight="alg-logb", wvar=wv, limit=200)
    assert max(e0, e1, e2) < 1e-9   # quadrature itself must stay well below 1e-6
    log_ratio = sp_special.betaln(c, d) - sp_special.betaln(a, b)
    combined = (a - c) * i_logt + (b - d) * i_log1t + log_ratio * i_plain
    return np.exp(-sp_special.betaln(a, b)) * combined


def test_criterion_09_kl_formulas(capsys):
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(120):
        p = BetaDist(float(rng.uniform(0.5, 8.0)), float(rng.uniform(0.5, 8.0)))
        q = BetaDist(float(rng.uniform(0.5, 8.0)), float(rng.uniform(0.5, 8.0)))
        worst = max(worst, abs(beta_kl(p, q) - _beta_kl_quadrature(p, q)))
    for _ in range(80):
        d = int(rng.integers(1, 4))
        p = DiagGaussian(rng.normal(0.0, 1.0, d), rng.uniform(0.3, 3.0, d))
        q = DiagGaussian(rng.normal(0.0, 1.0, d), rng.uniform(0.3, 3.0, d))
        total = 0.0
        for k in range(d):
            pk = DiagGaussian(p.mean[k:k + 1], p.variance[k:k + 1])
            qk = DiagGaussian(q.mean[k:k + 1], q.variance[k:k + 1])
            sd = np.sqrt(max(p.variance[k], q.variance[k]))
            lo = min(p.mean[k], q.mean[k]) - 15.0 * sd
            hi = max(p.mean[k], q.mean[k]) + 15.0 * sd
            val, err = integrate.quad(
                lambda t: np.exp(pk.log_pdf(np.array([t])))
                * (pk.log_pdf(np.array([t])) - qk.log_pdf(np.array([t]))),
                lo, hi, limit=400, epsabs=1e-12, epsrel=1e-11)
            assert err < 1e-9
            total += val
        worst = max(worst, abs(gaussian_kl(p, q) - total))

    pb = BetaDist(2.7, 0.9)
    pg = DiagGaussian(np.array([0.4, -1.0]), np.array([1.3, 0.2]))
    self_kl = max(abs(beta_kl(pb, pb)), abs(gaussian_kl(pg, pg)))
    ok = worst < 1e-6 and self_kl < 1e-12
    _emit(capsys, 9, "kl formulas", ok,
          f"200 pairs, worst |closed form - quadrature| = {worst:.2e}, "
          f"self-KL {self_kl:.2e}")


def test_criterion_10_calibration_self_consistency(capsys):
    ds = synth("eight_gaussians", 4000, np.random.default_rng(21))
    cfg = TrainConfig(prior="vpt", levels=3, flow_layers=1, hidden=(50, 50),
                      activation="relu", epochs=60, batch_size=256,
                      patience=15, seed=0)
    est, _ = train(cfg, ds)
    draws = est.sample(10000, np.random.default_rng(100))
    sse = sse_calibration(est, draws, np.random.default_rng(200), n_samples=10000)
    ok = 0.9 <= sse <= 1.1
    _emit(capsys, 10, "calibration self-consistency", ok,
          f"SSE on model's own samples = {sse:.4f}")


def test_criterion_11_roundtrip_determinism(capsys):
    rng = np.random.default_rng(111)

    worst_rt = 0.0
    for dims, sigmoid, couplings in ((2, True, 2), (3, False, 3)):
        flow = build_flow(dims, n_coupling=couplings, hidden=(16, 16),
                          sigmoid=sigmoid, rng=rng)
        for arr in flow.parameter_arrays().values():
            arr += rng.normal(0.0, 0.05, size=arr.shape)
        x = rng.normal(0.0, 1.5, (1000, dims))
        z, _ = flow.forward(x)
        worst_rt = max(worst_rt, float(np.abs(flow.inverse(z) - x).max()))

    ds = synth("two_spirals", 400, np.random.default_rng(6))
    cfg = TrainConfig(prior="vpt", levels=2, flow_layers=1, hidden=(8,),
                      epochs=4, batch_size=128, seed=11)
    est_a, rep_a = train(cfg, ds)
    est_b, rep_b = train(cfg, ds)
    same_report = rep_a.substantive_fields() == rep_b.substantive_fields()
    same_params = all(np.array_equal(v, est_b.parameter_arrays()[k])
                      for k, v in est_a.parameter_arrays().items())

    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_checkpoint(path, est_a, config=cfg, seed=11)
        reloaded = load_checkpoint(path).estimator
    x = ds.points
    bit_identical = np.array_equal(reloaded.log_likelihood(x),
                                   est_a.log_likelihood(x))

    ok = worst_rt < 1e-9 and same_report and same_params and bit_identical
    _emit(capsys, 11, "round-trip determinism", ok,
          f"max inverse(forward(x)) error {worst_rt:.2e}, "
          f"seeded retrain bitwise {'equal' if same_report and same_params else 'DIFFERENT'}, "
          f"checkpoint reload bitwise {'equal' if bit_identical else 'DIFFERENT'}")
