"""Training loop, optimizer behavior, and evaluation metrics."""

import gc
import weakref

import numpy as np
import pytest

from polyaflow import autodiff as ad
from polyaflow import special
from polyaflow.autodiff import Tape
from polyaflow.baselines import FixedPrior, LearnableHistogram
from polyaflow.checkpoint import load_checkpoint, save_checkpoint
from polyaflow.data import Dataset, synth
from polyaflow.flow import DensityEstimator, FlowModel, build_flow
from polyaflow.polya_tree import PolyaTreeModel
from polyaflow.train import (
    PRIORS,
    Adam,
    TrainConfig,
    avg_log_likelihood,
    bits_per_dim,
    build_estimator,
    density_grid,
    sse_calibration,
    train,
)

EMPTY = np.array([], dtype=np.intp)


def _identity_gaussian(rng=None):
    """Estimator whose flow starts as the identity map (zero-init couplings)."""
    rng = rng or np.random.default_rng(0)
    flow = build_flow(2, n_coupling=1, hidden=(8,), sigmoid=False, rng=rng)
    return DensityEstimator(flow, FixedPrior("gaussian", 2))


def _balanced_grid_dataset():
    """16 cell centers of the depth-2 dyadic partition of (0, 1]^2."""
    centers = (np.arange(4) + 0.5) / 4.0
    gx, gy = np.meshgrid(centers, centers, indexing="ij")
    pts = np.column_stack([gx.reshape(-1), gy.reshape(-1)])
    return Dataset(points=pts, train_idx=np.arange(16), val_idx=EMPTY,
                   test_idx=EMPTY)


class TestConfig:
    def test_rejects_unknown_prior(self):
        with pytest.raises(ValueError, match="prior"):
            TrainConfig(prior="cauchy")

    def test_hidden_coerced_to_ints(self):
        cfg = TrainConfig(hidden=[16.0, 8.0])
        assert cfg.hidden == (16, 8)


class TestAdam:
    def test_quadratic_convergence(self):
        w = np.array([5.0, -4.0])
        target = np.array([3.0, 1.5])
        opt = Adam()
        for _ in range(600):
            opt.step(w, w - target, 0.1)
        np.testing.assert_allclose(w, target, atol=1e-3)

    def test_first_step_has_lr_magnitude(self):
        w = np.array([0.0])
        Adam().step(w, np.array([1e-6]), 0.05)
        assert abs(w[0] + 0.05) < 1e-3


def _per_key_adam(beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference Adam keeping separate moments per key: a step function over (params, grads, lr_of)."""
    m, v, t = {}, {}, [0]

    def step(params, grads, lr_of):
        t[0] += 1
        correct1 = 1.0 - beta1**t[0]
        correct2 = 1.0 - beta2**t[0]
        for key, p in params.items():
            g = grads[key]
            mk = m.setdefault(key, np.zeros_like(p))
            vk = v.setdefault(key, np.zeros_like(p))
            mk *= beta1
            mk += (1.0 - beta1) * g
            vk *= beta2
            vk += (1.0 - beta2) * (g * g)
            p -= lr_of(key) * ((mk / correct1) / (np.sqrt(vk / correct2) + eps))

    return step


class TestFlatAdam:
    """Adam on one vector, laid out and rated as `train` does, against per-key moments."""

    SHAPES = {"flow/c0_W0": (3, 4), "flow/c0_b0": (4,), "flow/s1_log_scale": (2,),
              "prior/raw_left": (2, 7), "prior/raw_right": (2, 7)}

    def _run(self, flow_only, steps=50):
        rng = np.random.default_rng(17)
        start = {k: rng.standard_normal(shape) for k, shape in self.SHAPES.items()}
        theta = np.concatenate([v.reshape(-1) for v in start.values()])
        n_flow = sum(v.size for k, v in start.items() if k.startswith("flow/"))
        n_step = n_flow if flow_only else theta.size
        keys = [k for k in start if k.startswith("flow/") or not flow_only]
        ref = {k: start[k].copy() for k in keys}
        rates = np.repeat([0.01, 0.1], [n_flow, theta.size - n_flow])
        opt, ref_step = Adam(0.8, 0.99, 1e-7), _per_key_adam(0.8, 0.99, 1e-7)
        scale = [1.0]

        def lr_of(key):
            return (0.01 if key.startswith("flow/") else 0.1) * scale[0]

        for t in range(steps):
            if t in (20, 35):
                scale[0] *= 0.5
            grads = {k: rng.standard_normal(self.SHAPES[k]) * 10.0 ** rng.integers(-6, 2)
                     for k in keys}
            grad = np.concatenate([grads[k].reshape(-1) for k in keys])
            opt.step(theta[:n_step], grad, (rates * scale[0])[:n_step])
            ref_step(ref, grads, lr_of)
            want = np.concatenate([ref[k].reshape(-1) for k in keys])
            assert theta[:n_step].tobytes() == want.tobytes(), t
        assert theta[n_step:].tobytes() == b"".join(start[k].tobytes() for k in start
                                                    if k not in keys)

    def test_matches_per_key_reference_bitwise(self):
        self._run(flow_only=False)

    def test_flow_only_subset(self):
        self._run(flow_only=True)

    def test_empty_parameter_set(self):
        opt = Adam()
        opt.step(np.empty(0), np.empty(0), 0.1)
        opt.step(np.empty(0), np.empty(0), 0.1)
        assert opt.t == 2

    def test_other_size_rejected(self):
        opt = Adam()
        opt.step(np.zeros(2), np.ones(2), 0.1)
        with pytest.raises(ValueError, match="sized 2, got 3 and 3"):
            opt.step(np.zeros(3), np.ones(3), 0.1)
        with pytest.raises(ValueError, match="sized 2, got 2 and 3"):
            opt.step(np.zeros(2), np.ones(3), 0.1)


class TestBuildEstimator:
    def test_tree_prior_gets_unit_cube_flow(self):
        cfg = TrainConfig(prior="vpt", levels=3)
        est = build_estimator(cfg, 2, np.random.default_rng(0))
        assert isinstance(est.base, PolyaTreeModel)
        assert est.flow.has_sigmoid
        assert not est.smooth_base

    def test_histogram_bins_default_to_tree_leaf_count(self):
        cfg = TrainConfig(prior="histogram", levels=3, bins=0)
        est = build_estimator(cfg, 2, np.random.default_rng(0))
        assert isinstance(est.base, LearnableHistogram)
        assert est.base.raw_widths.shape == (8, 2)
        assert est.flow.has_sigmoid

    def test_fixed_priors_skip_sigmoid(self):
        for kind in ("gaussian", "logistic"):
            cfg = TrainConfig(prior=kind)
            est = build_estimator(cfg, 3, np.random.default_rng(1))
            assert isinstance(est.base, FixedPrior)
            assert not est.flow.has_sigmoid

    def test_smooth_base_applies_only_to_tree(self):
        rng = np.random.default_rng(2)
        assert build_estimator(
            TrainConfig(prior="vpt", smooth_base=True), 2, rng).smooth_base
        assert not build_estimator(
            TrainConfig(prior="gaussian", smooth_base=True), 2, rng).smooth_base


class TestParameterVector:
    """An estimator owns one `theta`; its named parameter arrays are views that tile it."""

    @pytest.mark.parametrize("source", ["built", "loaded"])
    @pytest.mark.parametrize("prior", PRIORS)
    def test_parameter_arrays_tile_theta(self, tmp_path, prior, source):
        cfg = TrainConfig(prior=prior, levels=2, partition_mode="per-level", flow_layers=2,
                          hidden=(4,))
        est = build_estimator(cfg, 3, np.random.default_rng(0))
        if source == "loaded":
            save_checkpoint(tmp_path / "m.json", est, config=cfg)
            est = load_checkpoint(tmp_path / "m.json").estimator
        params = est.parameter_arrays()
        assert all(np.shares_memory(v, est.theta) for v in params.values())
        assert sum(v.size for v in params.values()) == est.theta.size
        assert est.n_flow == sum(v.size for k, v in params.items() if k.startswith("flow/"))
        est.theta[:] = np.arange(est.theta.size)
        tiled = np.concatenate([v.reshape(-1) for v in est.parameter_arrays().values()])
        np.testing.assert_array_equal(tiled, np.arange(est.theta.size))

    def test_in_place_edits_show_in_theta(self):
        est = build_estimator(TrainConfig(prior="vpt", levels=2, hidden=(4,)), 2,
                              np.random.default_rng(0))
        est.base.raw_left[...] = -800.0            # the first base array
        assert np.all(est.theta[est.n_flow:est.n_flow + est.base.raw_left.size] == -800.0)
        est.flow.layers[1].log_scale[0] = 0.25     # the last flow array
        assert est.theta[est.n_flow - 2] == 0.25
        est.theta[-1] = 7.0
        assert est.base.raw_right[-1, -1] == 7.0

    def test_train_rejects_arrays_detached_from_theta(self):
        # a detached array would silently never move: Adam steps theta alone
        ds = synth("eight_gaussians", 300, np.random.default_rng(1))
        cfg = TrainConfig(prior="vpt", levels=2, hidden=(4,), epochs=1)
        est = build_estimator(cfg, 2, np.random.default_rng(0))
        DensityEstimator(est.flow, FixedPrior("gaussian", 2))     # takes over est's flow
        with pytest.raises(ValueError, match="not all views of its theta"):
            train(cfg, ds, estimator=est)
        est = build_estimator(cfg, 2, np.random.default_rng(0))
        est.base.raw_left = est.base.raw_left.copy()
        with pytest.raises(ValueError, match="not all views of its theta"):
            train(cfg, ds, estimator=est)


class TestTrainLoop:
    def test_uniform_tree_on_balanced_grid_is_stationary(self):
        # every leaf holds exactly one point, so branch gradients cancel and
        # the loss (uniform density on the unit square -> 0 nats) cannot move
        ds = _balanced_grid_dataset()
        est = DensityEstimator(FlowModel(2, []), PolyaTreeModel.uniform(2, 2))
        cfg = TrainConfig(prior="vpt", levels=2, epochs=10, batch_size=16,
                          lr_prior=0.1, patience=100)
        est, report = train(cfg, ds, estimator=est)
        assert np.abs(report.train_nll).max() < 1e-6
        assert abs(report.final["val_nll"]) < 1e-6
        left, right = est.base.alphas()
        np.testing.assert_allclose(left, 1.0, atol=1e-6)
        np.testing.assert_allclose(right, 1.0, atol=1e-6)

    def test_loss_decreases_on_clustered_data(self):
        ds = synth("eight_gaussians", 800, np.random.default_rng(3))
        cfg = TrainConfig(prior="vpt", levels=2, flow_layers=1, hidden=(16,),
                          epochs=12, batch_size=256, seed=3)
        _, report = train(cfg, ds)
        assert report.train_nll[-1] < report.train_nll[0]
        assert report.final["val_nll"] < report.val_nll[0]

    def test_conjugate_epoch_blends_closed_form_update(self):
        rng = np.random.default_rng(4)
        pts = rng.random((32, 2)) * 0.999 + 0.0005
        ds = Dataset(points=pts, train_idx=np.arange(32), val_idx=EMPTY,
                     test_idx=EMPTY)
        base = PolyaTreeModel.uniform(2, 2)
        est = DensityEstimator(FlowModel(2, []), base)
        cfg = TrainConfig(prior="vpt", levels=2, epochs=1, batch_size=32,
                          conjugate=True, conjugate_blend=0.9)
        est, _ = train(cfg, ds, estimator=est)
        refreshed = PolyaTreeModel.uniform(2, 2).conjugate_update(
            pts, prior_alphas=1.0, count_scale=1.0)
        want_l = 0.9 * 1.0 + 0.1 * refreshed.alphas()[0]
        want_r = 0.9 * 1.0 + 0.1 * refreshed.alphas()[1]
        got_l, got_r = est.base.alphas()
        np.testing.assert_allclose(got_l, want_l, atol=1e-12)
        np.testing.assert_allclose(got_r, want_r, atol=1e-12)

    @pytest.mark.parametrize("mode", ["per-node", "per-level"])
    def test_conjugate_trains_learned_splits(self, mode):
        # Adam steps every entry of theta but the refreshed alphas, splits included
        ds = synth("checkerboard", 1500, np.random.default_rng(2))
        cfg = TrainConfig(prior="vpt", partition_mode=mode, hidden=(8,), epochs=3, seed=2,
                          conjugate=True)
        est, _ = train(cfg, ds)
        assert np.abs(est.base.split_raw).max() > 0.1

    def test_conjugate_refresh_routes_through_the_loss_splits(self):
        # one full-batch step: the refreshed alphas count the pre-step latents in the
        # pre-step cells, not in the cells of the splits Adam has just moved
        x = synth("checkerboard", 600, np.random.default_rng(2)).points
        ds = Dataset(points=x, train_idx=np.arange(600), val_idx=EMPTY, test_idx=EMPTY)
        cfg = TrainConfig(prior="vpt", partition_mode="per-node", hidden=(8,), epochs=1,
                          batch_size=600, conjugate=True)
        est = build_estimator(cfg, 2, np.random.default_rng(2))
        z = est.latent(x)
        prior_alphas = [0.9 * a + 0.1 for a in est.base.alphas()]
        want = est.base.conjugate_update(z, prior_alphas=prior_alphas, count_scale=0.1)
        train(cfg, ds, estimator=est)
        moved = est.base.conjugate_update(z, prior_alphas=prior_alphas, count_scale=0.1)
        assert not np.array_equal(moved.raw_left, want.raw_left)    # the splits did move
        np.testing.assert_allclose(est.base.raw_left, want.raw_left, rtol=1e-12)
        np.testing.assert_allclose(est.base.raw_right, want.raw_right, rtol=1e-12)

    def test_conjugate_step_runs_the_flow_once(self, monkeypatch):
        # 700 training points in batches of 256: 3 steps per epoch, one tape pass each;
        # the only numpy passes are each epoch's validation and one over the test split,
        # whose NLL gives both final metrics
        calls = {"tape": 0, "eval_tape": 0, "forward": 0}
        forward_vars, forward = FlowModel.forward_vars, FlowModel.forward

        def counted_forward_vars(self, tape, pvars, x):
            calls["tape" if tape.records else "eval_tape"] += 1
            return forward_vars(self, tape, pvars, x)

        def counted_forward(self, x):
            calls["forward"] += 1
            return forward(self, x)

        monkeypatch.setattr(FlowModel, "forward_vars", counted_forward_vars)
        monkeypatch.setattr(FlowModel, "forward", counted_forward)
        ds = synth("checkerboard", 1000, np.random.default_rng(1))
        cfg = TrainConfig(prior="vpt", levels=3, hidden=(8,), epochs=2, batch_size=256,
                          conjugate=True)
        train(cfg, ds)
        assert calls == {"tape": 6, "eval_tape": 3, "forward": 3}

    @pytest.mark.parametrize("mode", ["dyadic", "per-node"])
    def test_conjugate_step_routes_and_transforms_the_alphas_once(self, monkeypatch, mode):
        # the refresh counts the cells the loss read and blends the alphas its table used
        x = synth("checkerboard", 300, np.random.default_rng(2)).points
        ds = Dataset(points=x, train_idx=np.arange(300), val_idx=EMPTY, test_idx=EMPTY)
        cfg = TrainConfig(prior="vpt", partition_mode=mode, hidden=(8,), epochs=1,
                          batch_size=300, conjugate=True)
        est = build_estimator(cfg, 2, np.random.default_rng(2))
        routes, softplus_of = [], []
        route, softplus = PolyaTreeModel.route, special.softplus

        def counted_softplus(v):
            softplus_of.extend(k for k in ("raw_left", "raw_right")
                               if np.shares_memory(v, getattr(est.base, k)))
            return softplus(v)

        monkeypatch.setattr(PolyaTreeModel, "route",
                            lambda self, pts: routes.append(1) or route(self, pts))
        monkeypatch.setattr(special, "softplus", counted_softplus)
        train(cfg, ds, estimator=est)
        assert len(routes) == 1
        assert softplus_of == ["raw_left", "raw_right"]

    @pytest.mark.parametrize("prior", ["gaussian", "histogram"])
    def test_conjugate_needs_a_tree_base(self, prior):
        ds = synth("eight_gaussians", 300, np.random.default_rng(1))
        cfg = TrainConfig(prior=prior, hidden=(4,), epochs=1, conjugate=True)
        with pytest.raises(ValueError, match="conjugate mode needs a tree base, got"):
            train(cfg, ds)

    def test_conjugate_rejects_a_kl_weight(self):
        # the refresh sets the alphas in closed form: a KL penalty would change nothing
        ds = synth("checkerboard", 300, np.random.default_rng(1))
        cfg = TrainConfig(prior="vpt", hidden=(4,), epochs=1, conjugate=True, kl_weight=0.5)
        with pytest.raises(ValueError, match="kl_weight must be 0, got 0.5"):
            train(cfg, ds)

    def test_divergence_reports_epoch_and_batch(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(0.0, 1e-3, size=(48, 2))
        ds = Dataset(points=pts, train_idx=np.arange(48), val_idx=EMPTY,
                     test_idx=EMPTY)
        # tiny data pushes the scaling layer's log-scale up by ~lr per step;
        # lr 1e3 overflows exp() on the second batch
        cfg = TrainConfig(prior="gaussian", flow_layers=0, epochs=3,
                          batch_size=24, lr_flow=1e3)
        with np.errstate(over="ignore"):
            with pytest.raises(RuntimeError,
                               match=r"non-finite loss at epoch 0, batch 1"):
                train(cfg, ds)

    def test_tape_domain_error_reports_epoch_and_batch(self):
        # alpha = softplus(-800) underflows to 0, so ln(alpha) fails on the tape
        ds = synth("checkerboard", 200, np.random.default_rng(8))
        cfg = TrainConfig(prior="vpt", levels=2, flow_layers=1, hidden=(4,), epochs=2,
                          batch_size=64)
        est = build_estimator(cfg, 2, np.random.default_rng(0))
        est.base.raw_left[...] = -800.0
        with pytest.raises(RuntimeError, match=r"epoch 0, batch 0: log requires"):
            train(cfg, ds, estimator=est)

    def test_zero_width_histogram_cell_reports_epoch_and_batch(self):
        # width = softplus(-800) underflows to 0, so ln(width) fails on the tape
        ds = synth("checkerboard", 200, np.random.default_rng(8))
        cfg = TrainConfig(prior="histogram", bins=4, flow_layers=1, hidden=(4,), epochs=2,
                          batch_size=64)
        est = build_estimator(cfg, 2, np.random.default_rng(0))
        est.base.raw_widths[1, 0] = -800.0
        with pytest.raises(RuntimeError, match=r"epoch 0, batch 0: log requires"):
            train(cfg, ds, estimator=est)

    def test_empty_train_split_rejected(self):
        ds = Dataset(points=np.zeros((4, 2)), train_idx=EMPTY,
                     val_idx=np.arange(4), test_idx=EMPTY)
        with pytest.raises(ValueError, match="training split"):
            train(TrainConfig(prior="gaussian"), ds)

    def test_seeded_runs_reproduce_bitwise(self):
        ds = synth("two_spirals", 400, np.random.default_rng(6))
        cfg = TrainConfig(prior="vpt", levels=2, flow_layers=1, hidden=(8,),
                          epochs=6, batch_size=128, seed=11)
        est_a, rep_a = train(cfg, ds)
        est_b, rep_b = train(cfg, ds)
        assert rep_a.substantive_fields() == rep_b.substantive_fields()
        pa, pb = est_a.parameter_arrays(), est_b.parameter_arrays()
        assert pa.keys() == pb.keys()
        for k in pa:
            np.testing.assert_array_equal(pa[k], pb[k])

    def test_early_stopping_restores_best_parameters(self):
        ds = synth("eight_gaussians", 500, np.random.default_rng(7))
        cfg = TrainConfig(prior="gaussian", flow_layers=1, hidden=(8,),
                          epochs=60, batch_size=128, patience=5, seed=7)
        est, report = train(cfg, ds)
        assert report.best_epoch == int(np.argmin(report.val_nll))
        assert report.final["val_nll"] == min(report.val_nll)
        recomputed = -avg_log_likelihood(est, ds.val)
        assert abs(recomputed - report.final["val_nll"]) < 1e-12

    def test_early_stopped_polyak_run_restores_the_best_average(self):
        ds = synth("eight_gaussians", 500, np.random.default_rng(7))
        cfg = TrainConfig(prior="gaussian", flow_layers=1, hidden=(8,), epochs=60,
                          batch_size=128, patience=5, seed=7, polyak=True, polyak_decay=0.9)
        est, report = train(cfg, ds)
        assert len(report.val_nll) < cfg.epochs
        assert report.best_epoch == int(np.argmin(report.val_nll)) < len(report.val_nll) - 1
        recomputed = -avg_log_likelihood(est, ds.val)
        assert abs(recomputed - report.final["val_nll"]) < 1e-12

    def test_polyak_run_completes_and_reproduces(self):
        ds = synth("eight_gaussians", 400, np.random.default_rng(8))
        cfg = TrainConfig(prior="gaussian", flow_layers=1, hidden=(8,),
                          epochs=5, batch_size=128, polyak=True, seed=8)
        _, rep_a = train(cfg, ds)
        _, rep_b = train(cfg, ds)
        assert rep_a.substantive_fields() == rep_b.substantive_fields()
        assert len(rep_a.val_nll) == 5

    def test_kl_penalty_shrinks_alphas_toward_one(self):
        rng = np.random.default_rng(9)
        pts = np.clip(rng.beta(0.3, 0.3, size=(256, 2)), 1e-4, 1 - 1e-4)
        ds = Dataset(points=pts, train_idx=np.arange(256), val_idx=EMPTY,
                     test_idx=EMPTY)

        def deviation(kl_weight):
            est = DensityEstimator(FlowModel(2, []), PolyaTreeModel.uniform(2, 2))
            cfg = TrainConfig(prior="vpt", levels=2, epochs=25, batch_size=256,
                              kl_weight=kl_weight, seed=9)
            est, _ = train(cfg, ds, estimator=est)
            left, right = est.base.alphas()
            return max(np.abs(left - 1.0).max(), np.abs(right - 1.0).max())

        assert deviation(50.0) < deviation(0.0)


# Two short non-conjugate fits, recorded when theta was laid out flow, raw_left,
# raw_right, split_raw: Adam and the Polyak average act elementwise, so no layout
# of theta may move them.  The two conjugate fits were recorded while the refresh
# still routed the latents a second time and rebuilt the model: counting the cells
# the loss read and blending the alphas it used must leave them bitwise.
RECORDED_FITS = {
    "dyadic-relu": {
        "train_nll": [3.394104947127024, 3.3562125316393345, 3.3492846233312403],
        "flow/c0_W0": [0.40312938612672916, -1.0661677665070006, 0.7306485862024865,
            0.23725078574861655],
        "flow/c0_W1": [-0.07094082379174542, 0.008850762354724068, -0.07046070198390983,
            -0.07154544183549208],
        "flow/c0_b0": [-0.05084415241710194, -0.044659114024228785, -0.05395035060796206,
            -0.05053916173658455],
        "flow/c0_b1": [-0.017235973362028388],
        "flow/s1_log_scale": [0.0894449042539968, 0.08876643297844956],
        "prior/raw_left": [0.6656585522770035, 0.338044752624905, 0.5790777740023559,
            0.5263069325782679, 0.24971777508296863, 0.7578356537727382],
        "prior/raw_right": [0.42211683609053496, 0.7496045252307291, 0.513581195451113,
            0.571452312077095, 0.8507904239793757, 0.33509089402482783],
    },
    "per-node-kl": {
        "train_nll": [3.4104219111324263, 3.3690556728602976, 3.3432546946550508],
        "flow/c0_W0": [0.3682947955838107, -1.03857299551961, 0.6622482593857285,
            0.208780491741534],
        "flow/c0_W1": [-0.04171445388124215, 0.02302059566423012, -0.03556523916674324,
            -0.04259076776095565],
        "flow/c0_b0": [-0.01100757286580904, 0.019692805736810048, -0.01604547765623304,
            -0.008621060501068329],
        "flow/c0_b1": [-0.026144429144961824],
        "flow/s1_log_scale": [0.0894449042539968, 0.08876946643297061],
        "prior/raw_left": [0.6101181304516246, 0.4776675496645492, 0.5404041725386755,
            0.5703363635637622, 0.6781541893925215, 0.4873399211459013],
        "prior/raw_right": [0.4829931405723561, 0.6219222443206026, 0.5668913698237527,
            0.5316353257623408, 0.43178525926333583, 0.6057095557681833],
        "prior/split_raw": [-0.08748577750421695, 0.037512373480265794, -7.69165201461796e-06,
            0.22757788328369055, 0.14909555326832535, -0.4054060620753668],
    },
    "dyadic-conjugate": {
        "train_nll": [3.248851074589105, 3.1075591978576895, 3.136277687318475],
        "flow/c0_W0": [0.3625330100663977, -1.0874805923304702, 0.6853865554849451,
            0.19706103010874834],
        "flow/c0_W1": [-0.023820412432631385, 0.020449791659713987, -0.02288196479271712,
            -0.0240080843987596],
        "flow/c0_b0": [-0.015494070270390795, 0.01477635388354336, -0.014959274803958145,
            -0.01586413442540415],
        "flow/c0_b1": [-0.013041326257529191],
        "flow/s1_log_scale": [0.029954255587995637, 0.029830941183856798],
        "prior/raw_left": [40.68270833333332, 19.738854163990425, 18.79822915981126,
            3.0661182259869006, 12.832913995286571, 8.19076450319852, 18.6509374920567,
            37.53708333333332, 16.041979058757832, 23.84406249995587, 3.474922142616949,
            13.246352399889147, 10.88383540781423, 16.337291586350233],
        "prior/raw_right": [37.19729166666666, 21.943854166371604, 19.399062496240806,
            17.627187477888928, 10.110896866478662, 11.607178399515915, 1.5568433307249188,
            40.34291666666666, 22.495104166496642, 17.49885414152788, 13.536561178260433,
            10.24871459764798, 13.960207468049193, 2.0392309359336234],
    },
    "per-node-conjugate": {
        "train_nll": [3.426493475640695, 3.3723541382502447, 3.348275542371612],
        "flow/c0_W0": [0.3625330100663977, -1.0874805923304702, 0.6853865554849451,
            0.19706103010874834],
        "flow/c0_W1": [-0.023820412432631385, 0.020449791659713987, -0.02288196479271712,
            -0.0240080843987596],
        "flow/c0_b0": [-0.015494070270390795, 0.01477635388354336, -0.014959274803958145,
            -0.01586413442540415],
        "flow/c0_b1": [-0.013041326257529191],
        "flow/s1_log_scale": [0.029954255587995637, 0.029830941183856798],
        "prior/raw_left": [40.68270833333332, 20.90552083249994, 16.647187441086018,
            39.88499999999999, 21.496145832871647, 21.496145832871644],
        "prior/raw_right": [37.19729166666666, 20.77718749905249, 21.550104166229232,
            37.99499999999999, 19.3888541628689, 17.49885414152788],
        "prior/split_raw": [0.033916511160822845, -0.059718127596078724, -0.12273359356467876,
            0.0974660036382012, 0.1989865730683526, -0.14550205155751042],
    },
}


class TestRecordedFits:
    """Seeded fits stay bitwise where they were recorded, whatever theta's layout."""

    CONFIGS = {
        "dyadic-relu": dict(activation="relu"),
        "per-node-kl": dict(partition_mode="per-node", kl_weight=0.5),
        "dyadic-conjugate": dict(levels=3, conjugate=True),
        "per-node-conjugate": dict(partition_mode="per-node", conjugate=True),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_fit_matches_its_record(self, name):
        ds = synth("checkerboard", 400, np.random.default_rng(12))
        cfg = TrainConfig(**{"prior": "vpt", "levels": 2, "hidden": (4,), "epochs": 3,
                             "batch_size": 128, "patience": 10, "seed": 12,
                             **self.CONFIGS[name]})
        est, report = train(cfg, ds)
        want = RECORDED_FITS[name]
        got = {"train_nll": report.train_nll, **est.parameter_arrays()}
        assert sorted(got) == sorted(want)
        for key, ref in want.items():       # the records are repr()s, exact doubles
            np.testing.assert_array_equal(np.ravel(got[key]), ref, err_msg=key)


class TestTapeSize:
    def test_criterion_07_loss_records_at_most_21_nodes(self):
        # vpt L=3 under one (50, 50) relu coupling, scaling and the sigmoid squash
        cfg = TrainConfig(prior="vpt", levels=3, flow_layers=1, hidden=(50, 50),
                          activation="relu", batch_size=256)
        est = build_estimator(cfg, 2, np.random.default_rng(0))
        xb = synth("checkerboard", 256, np.random.default_rng(1)).points
        tape = Tape()
        pvars = {k: tape.leaf(v) for k, v in est.parameter_arrays().items()}
        loss = -est.log_likelihood_vars(tape, pvars, xb).mean()
        assert len(tape) <= 21                    # the tree density is 2 of them
        assert np.isfinite(loss.value)

    def test_criterion_08_histogram_loss_records_at_most_32_nodes(self):
        # histogram K=16: a (K, D) cell table read by one node, no per-point takes
        cfg = TrainConfig(prior="histogram", levels=4, bins=16, flow_layers=1,
                          hidden=(50, 50), activation="relu", batch_size=256)
        est = build_estimator(cfg, 2, np.random.default_rng(0))
        xb = synth("checkerboard", 256, np.random.default_rng(1)).points
        tape = Tape()
        pvars = {k: tape.leaf(v) for k, v in est.parameter_arrays().items()}
        loss = -est.log_likelihood_vars(tape, pvars, xb).mean()
        assert len(tape) <= 32
        assert np.isfinite(loss.value)


class TestTapeLifetime:
    @pytest.mark.parametrize("overrides", [
        {},
        {"smooth_base": True, "partition_mode": "per-node", "kl_weight": 1.0},
        {"conjugate": True, "polyak": True},
        {"prior": "histogram", "bins": 16},
        {"partition_mode": "per-level", "y_mode": "sampled"},
    ])
    def test_step_tapes_are_freed_without_the_collector(self, monkeypatch, overrides):
        # a callback that captures a Var closes a tape -> callback -> Var -> tape
        # cycle: every step's tape, intermediates and all, then waits for the collector
        refs = []

        class WatchedTape(ad.Tape):
            def __init__(self):
                super().__init__()
                refs.append(weakref.ref(self))

        monkeypatch.setattr(ad, "Tape", WatchedTape)
        overrides = dict(overrides)
        if overrides.pop("y_mode", None) == "sampled":
            # each step scores the batch under one Beta draw of the tree's branch probabilities
            score = DensityEstimator.log_likelihood_vars
            draws = np.random.default_rng(2)
            monkeypatch.setattr(
                DensityEstimator, "log_likelihood_vars",
                lambda self, tape, pvars, x: score(self, tape, pvars, x, y_mode="sampled",
                                                   rng=draws))
        cfg = TrainConfig(**{"prior": "vpt", "levels": 3, "hidden": (50, 50),
                             "activation": "relu", "epochs": 1, **overrides})
        ds = synth("checkerboard", 1000, np.random.default_rng(1))
        gc.disable()
        try:
            train(cfg, ds)
            alive = sum(ref() is not None for ref in refs)
        finally:
            gc.enable()
        assert len(refs) == 3                     # one tape per batch of 700 training points
        assert alive == 0


class TestMetrics:
    def test_bits_per_dim_agrees_with_nats(self):
        est = _identity_gaussian()
        x = np.random.default_rng(10).normal(size=(64, 2))
        nats = float(est.log_likelihood(x).mean())
        assert abs(bits_per_dim(est, x) - (-nats / (2 * np.log(2.0)))) < 1e-12
        assert abs(avg_log_likelihood(est, x) - nats) < 1e-15

    def test_avg_log_likelihood_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            avg_log_likelihood(_identity_gaussian(), np.zeros((0, 2)))

    def test_sse_near_one_on_self_samples(self):
        est = _identity_gaussian()
        draws = est.sample(2000, np.random.default_rng(11))
        sse = sse_calibration(est, draws, np.random.default_rng(12), n_samples=8000)
        assert 0.9 < sse < 1.1

    def test_sse_detects_overdispersed_data(self):
        est = _identity_gaussian()
        wide = 3.0 * np.random.default_rng(13).normal(size=(1500, 2))
        sse = sse_calibration(est, wide, np.random.default_rng(14), n_samples=6000)
        assert sse > 5.0

    def test_sse_rejects_degenerate_model(self):
        class Frozen:
            def sample(self, n, rng):
                return np.zeros((n, 2))

        with pytest.raises(RuntimeError, match="zero spread"):
            sse_calibration(Frozen(), np.zeros((10, 2)), np.random.default_rng(0))


class TestDensityGrid:
    def test_shape_and_ordering(self):
        grid = density_grid(_identity_gaussian(), (-3.0, 3.0), 21)
        assert grid.shape == (441, 3)
        # x is the outer loop: the first 21 rows share x and sweep y
        assert np.all(grid[:21, 0] == -3.0)
        assert grid[0, 1] == -3.0 and grid[20, 1] == 3.0
        assert grid[21, 0] > -3.0

    def test_riemann_sum_near_one(self):
        grid = density_grid(_identity_gaussian(), (-6.0, 6.0), 61)
        cell = (12.0 / 60.0) ** 2
        assert abs(grid[:, 2].sum() * cell - 1.0) < 0.02

    def test_separate_axis_bounds(self):
        grid = density_grid(_identity_gaussian(), ((-1.0, 2.0), (0.0, 4.0)), 5)
        assert grid[:, 0].min() == -1.0 and grid[:, 0].max() == 2.0
        assert grid[:, 1].min() == 0.0 and grid[:, 1].max() == 4.0

    def test_bad_arguments(self):
        est = _identity_gaussian()
        with pytest.raises(ValueError, match="bounds"):
            density_grid(est, (3.0, -3.0), 10)
        with pytest.raises(ValueError, match="resolution"):
            density_grid(est, (-1.0, 1.0), 1)
