"""Flow-layer behavior: invertibility, log-determinants, and estimator assembly."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyaflow import autodiff as ad
from polyaflow.baselines import FixedPrior
from polyaflow.distributions import DiagGaussian
from polyaflow.flow import (
    EVAL_ROWS,
    CouplingLayer,
    DensityEstimator,
    FlowModel,
    ScalingLayer,
    SigmoidLayer,
    build_flow,
)
from polyaflow.polya_tree import PolyaTreeModel

from helpers import check_gradients


def random_flow(rng, dims=2, n_coupling=2, hidden=(8, 7), scaling=True, sigmoid=False):
    flow = build_flow(dims, n_coupling, hidden, "tanh", scaling, sigmoid, rng)
    for layer in flow.layers:
        if isinstance(layer, CouplingLayer):
            for w in layer.weights:
                w += 0.3 * rng.standard_normal(w.shape)
        elif isinstance(layer, ScalingLayer):
            layer.log_scale += 0.3 * rng.standard_normal(layer.log_scale.shape)
    return flow


def numeric_log_det(flow, x0, eps=1e-6):
    d = x0.size
    jac = np.zeros((d, d))
    for j in range(d):
        bump = np.zeros(d)
        bump[j] = eps
        hi, _ = flow.forward((x0 + bump)[None, :])
        lo, _ = flow.forward((x0 - bump)[None, :])
        jac[:, j] = (hi - lo)[0] / (2.0 * eps)
    sign, log_det = np.linalg.slogdet(jac)
    assert sign > 0
    return log_det


class TestLayers:
    def test_identity_at_init(self):
        flow = build_flow(4, n_coupling=3, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((10, 4))
        z, log_det = flow.forward(x)
        np.testing.assert_allclose(z, x, atol=1e-15)
        np.testing.assert_allclose(log_det, 0.0, atol=1e-15)

    def test_coupling_log_det_is_zero_for_any_weights(self):
        rng = np.random.default_rng(3)
        flow = random_flow(rng, dims=3, n_coupling=4, scaling=False)
        x = rng.standard_normal((20, 3))
        z, log_det = flow.forward(x)
        assert not np.allclose(z, x)          # the map is nontrivial...
        np.testing.assert_array_equal(log_det, 0.0)   # ...but volume-free

    def test_coupling_preserves_masked_coordinates(self):
        rng = np.random.default_rng(4)
        flow = random_flow(rng, dims=4, n_coupling=1, scaling=False)
        mask = flow.layers[0].mask
        x = rng.standard_normal((7, 4))
        z, _ = flow.forward(x)
        np.testing.assert_array_equal(z[:, mask], x[:, mask])
        assert not np.allclose(z[:, ~mask], x[:, ~mask])

    def test_scaling_log_det(self):
        flow = FlowModel(3, [ScalingLayer(np.array([0.1, -0.4, 0.25]))])
        x = np.random.default_rng(0).standard_normal((5, 3))
        z, log_det = flow.forward(x)
        np.testing.assert_allclose(z, x * np.exp([0.1, -0.4, 0.25]), atol=1e-15)
        np.testing.assert_allclose(log_det, 0.1 - 0.4 + 0.25, atol=1e-14)

    def test_sigmoid_log_det_formula(self):
        flow = FlowModel(2, [SigmoidLayer()])
        x = np.array([[0.3, -1.2]])
        _, log_det = flow.forward(x)
        s = 1.0 / (1.0 + np.exp(-x))
        np.testing.assert_allclose(log_det, np.log(s * (1.0 - s)).sum(), atol=1e-12)

    def test_log_det_matches_numeric_jacobian(self):
        rng = np.random.default_rng(8)
        for sigmoid in [False, True]:
            flow = random_flow(rng, dims=2, n_coupling=2, sigmoid=sigmoid)
            for _ in range(5):
                x0 = rng.standard_normal(2)
                _, log_det = flow.forward(x0[None, :])
                assert log_det[0] == pytest.approx(numeric_log_det(flow, x0), abs=1e-5)

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            CouplingLayer(np.array([True, True]), [np.zeros((2, 1)), np.zeros(1)])

    def test_one_dimension_degenerates(self):
        flow = build_flow(1, n_coupling=3, sigmoid=True, rng=np.random.default_rng(2))
        kinds = [type(layer).__name__ for layer in flow.layers]
        assert kinds == ["ScalingLayer", "SigmoidLayer"]


class TestInverse:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for sigmoid in [False, True]:
            for dims in [1, 2, 5]:
                flow = random_flow(rng, dims=dims, n_coupling=2, sigmoid=sigmoid)
                x = rng.standard_normal((50, dims)) * 1.5
                z, _ = flow.forward(x)
                back = flow.inverse(z)
                assert np.abs(back - x).max() < 1e-9

    def test_sigmoid_inverse_domain(self):
        flow = FlowModel(2, [SigmoidLayer()])
        with pytest.raises(ValueError):
            flow.inverse(np.array([[0.5, 1.0]]))
        with pytest.raises(ValueError):
            flow.inverse(np.array([[0.0, 0.5]]))

    def test_inverse_shape_validation(self):
        flow = build_flow(2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            flow.inverse(np.zeros((3, 5)))


class TestGradients:
    def test_flow_log_likelihood_gradients(self):
        rng = np.random.default_rng(21)
        flow = random_flow(rng, dims=2, n_coupling=1, hidden=(6, 5), sigmoid=False)
        base = FixedPrior("gaussian", 2)
        est = DensityEstimator(flow, base)
        x = rng.standard_normal((12, 2))
        keys = list(est.parameter_arrays().keys())
        arrays = list(est.parameter_arrays().values())

        def build(tape, leaves):
            pvars = dict(zip(keys, leaves))
            return est.log_likelihood_vars(tape, pvars, x).sum()

        check_gradients(build, arrays, tol=1e-4)

    def test_logistic_base_gradients(self):
        rng = np.random.default_rng(22)
        flow = random_flow(rng, dims=2, n_coupling=1, hidden=(5,), sigmoid=False)
        est = DensityEstimator(flow, FixedPrior("logistic", 2))
        x = rng.standard_normal((9, 2))
        keys = list(est.parameter_arrays().keys())

        def build(tape, leaves):
            pvars = dict(zip(keys, leaves))
            return est.log_likelihood_vars(tape, pvars, x).sum()

        check_gradients(build, list(est.parameter_arrays().values()), tol=1e-4)


def _coupling_oracle(tape, layer, z, weights):
    """The primitive composition a coupling node stands for: one-hot gather and
    scatter matmuls around per-layer matmul, add and activation nodes."""
    eye = np.eye(layer.mask.size)
    h = ad.matmul(z, eye[:, layer.mask])
    act = ad.tanh if layer.activation == "tanh" else ad.relu
    n_dense = len(weights) // 2
    for i in range(n_dense):
        h = ad.matmul(h, weights[2 * i]) + weights[2 * i + 1]
        if i < n_dense - 1:
            h = act(h)
    return z + ad.matmul(h, eye[:, ~layer.mask].T)


def _random_coupling(rng, dims, activation, parity, hidden=(50, 50)):
    layer = build_flow(dims, n_coupling=2, hidden=hidden, activation=activation,
                       scaling=False, rng=rng).layers[parity]
    for w in layer.weights:
        w += 0.5 * rng.standard_normal(w.shape)
    return layer


def _coupling_on_tape(layer, x, upstream, oracle):
    """(output value, gradients of the input and of every weight) for sum(out * upstream)."""
    tape = ad.Tape()
    z = tape.leaf(x)
    weights = [tape.leaf(w) for w in layer.weights]
    if oracle:
        out = _coupling_oracle(tape, layer, z, weights)
    else:
        pvars = {f"c0_{'W' if j % 2 == 0 else 'b'}{j // 2}": w for j, w in enumerate(weights)}
        out, _ = FlowModel(x.shape[1], [layer]).forward_vars(tape, pvars, z)
    ad.backward((out * upstream).sum())
    return out.value, [z.grad] + [w.grad for w in weights]


class TestCouplingNode:
    """A coupling layer is one tape node, bitwise equal to its primitive composition."""

    @pytest.mark.parametrize("dims", [2, 3, 8])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("n", [7, EVAL_ROWS - 1, EVAL_ROWS + 1])
    def test_bitwise_equal_to_primitive_composition(self, dims, activation, parity, n):
        rng = np.random.default_rng(dims * 100 + parity * 10 + (activation == "tanh"))
        layer = _random_coupling(rng, dims, activation, parity)
        x = rng.standard_normal((n, dims))
        upstream = rng.standard_normal((n, dims))
        got_value, got_grads = _coupling_on_tape(layer, x, upstream, oracle=False)
        want_value, want_grads = _coupling_on_tape(layer, x, upstream, oracle=True)
        assert got_value.tobytes() == want_value.tobytes()
        for got, want in zip(got_grads, want_grads):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mask, strided", [
        ([True, False, False, True, False, False, True], True),   # every third column
        ([False, True, True, True, False], True),                 # a contiguous block
        ([True, True, False, True, False], False),                # unevenly spaced
    ])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_any_mask_matches_the_composition(self, mask, strided, activation):
        rng = np.random.default_rng(len(mask) * 10 + strided)
        mask = np.array(mask)
        sizes = [int(mask.sum()), 9, 7, int((~mask).sum())]
        weights = []
        for a, b in zip(sizes[:-1], sizes[1:]):
            weights += [rng.standard_normal((a, b)), 0.3 * rng.standard_normal(b)]
        layer = CouplingLayer(mask, weights, activation)
        assert isinstance(layer.pass_cols, slice) == strided
        x = rng.standard_normal((EVAL_ROWS + 1, mask.size))
        upstream = rng.standard_normal(x.shape)
        got_value, got_grads = _coupling_on_tape(layer, x, upstream, oracle=False)
        want_value, want_grads = _coupling_on_tape(layer, x, upstream, oracle=True)
        assert got_value.tobytes() == want_value.tobytes()
        for got, want in zip(got_grads, want_grads):
            assert got.tobytes() == want.tobytes()
        flow = FlowModel(mask.size, [layer])
        np.testing.assert_allclose(flow.inverse(flow.forward(x)[0]), x, rtol=0, atol=1e-13)

    def test_constant_input_gets_no_gradient(self):
        # a data batch enters as a constant: the weights' gradients are unchanged
        rng = np.random.default_rng(4)
        layer = _random_coupling(rng, 8, "relu", 1)
        x = rng.standard_normal((50, 8))
        upstream = rng.standard_normal((50, 8))
        _, want = _coupling_on_tape(layer, x, upstream, oracle=False)
        tape = ad.Tape()
        weights = [tape.leaf(w) for w in layer.weights]
        pvars = {f"c0_{'W' if j % 2 == 0 else 'b'}{j // 2}": w for j, w in enumerate(weights)}
        out, _ = FlowModel(8, [layer]).forward_vars(tape, pvars, x)
        assert len(tape) == len(weights) + 1 + 1     # the weights, the coupling, a zero log-det
        ad.backward((out * upstream).sum())
        for w, ref in zip(weights, want[1:]):
            assert w.grad.tobytes() == ref.tobytes()

    def test_one_node_per_coupling(self):
        rng = np.random.default_rng(3)
        flow = random_flow(rng, dims=4, n_coupling=3, scaling=False)
        tape = ad.Tape()
        pvars = {k: tape.leaf(v) for k, v in flow.parameter_arrays().items()}
        before = len(tape)
        flow.forward_vars(tape, pvars, tape.leaf(rng.standard_normal((5, 4))))
        assert len(tape) - before == 1 + 3 + 1      # input leaf, 3 couplings, zero log_det

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_finite_differences(self, activation):
        rng = np.random.default_rng(8)
        layer = _random_coupling(rng, 3, activation, 1, hidden=(6, 5))
        x = rng.standard_normal((6, 3))
        upstream = rng.standard_normal((6, 3))
        keys = [f"c0_{'W' if j % 2 == 0 else 'b'}{j // 2}" for j in range(len(layer.weights))]

        def build(tape, leaves):
            out, _ = FlowModel(3, [layer]).forward_vars(tape, dict(zip(keys, leaves[1:])),
                                                        leaves[0])
            return (out * out * upstream).sum()

        check_gradients(build, [x] + [w.copy() for w in layer.weights], tol=1e-6)

    def test_non_finite_hidden_activation_reports_layer(self):
        # tanh saturates, so only the check of the hidden pre-activation sees the overflow
        layer = _random_coupling(np.random.default_rng(9), 2, "tanh", 0, hidden=(3,))
        layer.weights[0][...] = 1e308
        flow = FlowModel(2, [layer])
        with np.errstate(over="ignore"), pytest.raises(ad.NumericError, match="layer 0"):
            flow.forward(np.array([[10.0, 1.0]]))


def _squash_oracle(z, log_det):
    """The primitive composition a sigmoid layer's two nodes stand for."""
    term = (ad.log_sigmoid(z) + ad.log_sigmoid(-z)).sum(axis=1)
    log_det = term if log_det is None else log_det + term
    return ad.sigmoid(z), log_det


def _squash_on_tape(flow, x, upstream, upstream_log_det, oracle):
    """(z, log_det, gradients of x and of every parameter) for
    sum(z * upstream) + sum(log_det * upstream_log_det); no z term when upstream is None.

    `flow` holds scaling and sigmoid layers; the oracle runs the scaling
    layer as `forward_vars` does and each squash as `_squash_oracle`.
    """
    tape = ad.Tape()
    leaves = [tape.leaf(x)]
    pvars = {k: tape.leaf(v) for k, v in flow.parameter_arrays().items()}
    leaves += pvars.values()
    if oracle:
        z, log_det = leaves[0], None
        for i, layer in enumerate(flow.layers):
            if isinstance(layer, ScalingLayer):
                ls = pvars[f"s{i}_log_scale"]
                z, log_det = z * ad.exp(ls), ls.sum()
            else:
                z, log_det = _squash_oracle(z, log_det)
    else:
        z, log_det = flow.forward_vars(tape, pvars, leaves[0])
    loss = (log_det * upstream_log_det).sum()
    if upstream is not None:
        loss = loss + (z * upstream).sum()
    ad.backward(loss)
    return z.value, log_det.value, [v.grad for v in leaves]


class TestSquashNode:
    """The sigmoid layer is two tape nodes, bitwise equal to its primitive composition."""

    @pytest.mark.parametrize("dims", [1, 2, 8])
    @pytest.mark.parametrize("before", [None, "scaling", "sigmoid"])
    @pytest.mark.parametrize("smooth", [False, True])
    def test_bitwise_equal_to_primitive_composition(self, dims, before, smooth):
        rng = np.random.default_rng(dims * 10 + smooth)
        layers = {None: [], "sigmoid": [SigmoidLayer()],
                  "scaling": [ScalingLayer(rng.uniform(-0.1, 0.1, dims))]}[before]
        flow = FlowModel(dims, layers + [SigmoidLayer()])
        # saturated tails (|u| >= 40, where exp(-|u|) underflows past 745) and signed zeros
        special = np.array([0.0, -0.0, 45.0, -45.0, 120.0, -120.0, 800.0, -800.0])
        x = np.concatenate([3.0 * rng.standard_normal(40 * dims),
                            np.tile(special, dims)]).reshape(-1, dims)
        upstream = rng.standard_normal(x.shape) if smooth else None
        upstream_log_det = rng.standard_normal(x.shape[0])
        got = _squash_on_tape(flow, x, upstream, upstream_log_det, oracle=False)
        want = _squash_on_tape(flow, x, upstream, upstream_log_det, oracle=True)
        for got_value, want_value in zip(got[:2], want[:2]):
            assert got_value.tobytes() == want_value.tobytes()
        for got_grad, want_grad in zip(got[2], want[2]):
            assert got_grad.shape == want_grad.shape
            assert got_grad.tobytes() == want_grad.tobytes()

    def test_two_nodes_per_squash(self):
        tape = ad.Tape()
        z = tape.leaf(np.random.default_rng(0).standard_normal((5, 3)))
        before = len(tape)
        FlowModel(3, [SigmoidLayer(), SigmoidLayer()]).forward_vars(tape, {}, z)
        assert len(tape) - before == 4


class TestEstimator:
    def test_gaussian_assembly_matches_manual(self):
        rng = np.random.default_rng(30)
        flow = random_flow(rng, dims=3, n_coupling=2, sigmoid=False)
        est = DensityEstimator(flow, FixedPrior("gaussian", 3))
        x = rng.standard_normal((20, 3))
        z, log_det = flow.forward(x)
        oracle = DiagGaussian(np.zeros(3), np.ones(3)).log_pdf(z) + log_det
        np.testing.assert_allclose(est.log_likelihood(x), oracle, atol=1e-10)

    def test_identity_flow_is_base_density(self):
        est = DensityEstimator(FlowModel(2, []), FixedPrior("gaussian", 2))
        x = np.random.default_rng(0).standard_normal((8, 2))
        oracle = DiagGaussian(np.zeros(2), np.ones(2)).log_pdf(x)
        np.testing.assert_allclose(est.log_likelihood(x), oracle, atol=1e-12)

    def test_sampling_deterministic_and_invertible(self):
        rng = np.random.default_rng(5)
        flow = random_flow(rng, dims=2, n_coupling=1, sigmoid=False)
        est = DensityEstimator(flow, FixedPrior("logistic", 2))
        a = est.sample(40, np.random.default_rng(7))
        b = est.sample(40, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (40, 2)
        assert np.all(np.isfinite(est.log_likelihood(a)))

    def test_unit_cube_base_gets_clamped_inputs(self):
        from polyaflow.polya_tree import PolyaTreeModel

        rng = np.random.default_rng(9)
        flow = build_flow(2, n_coupling=1, hidden=(6,), sigmoid=True, rng=rng)
        est = DensityEstimator(flow, PolyaTreeModel.uniform(2, 2))
        x = np.array([[50.0, -50.0], [0.0, 0.1]])   # saturates the squash
        out = est.log_likelihood(x)
        assert np.all(np.isfinite(out))

    def test_nonfinite_reports_layer(self):
        flow = FlowModel(2, [ScalingLayer(np.array([800.0, 0.0]))])
        est = DensityEstimator(flow, FixedPrior("gaussian", 2))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="layer 0"):
            est.log_likelihood(np.array([[5.0, 5.0]]))


def _tree_estimator(rng, dims=4, levels=3, smooth=False):
    # a smooth base scales latent rounding by 2^levels times the step between
    # neighbouring leaf log densities: keep the tree shallow for the 1e-13 bound
    flow = random_flow(rng, dims=dims, n_coupling=2, hidden=(50, 50), sigmoid=True)
    tree = PolyaTreeModel.uniform(levels, dims)
    tree.raw_left[...] = rng.uniform(-1.0, 3.0, tree.raw_left.shape)
    tree.raw_right[...] = rng.uniform(-1.0, 3.0, tree.raw_right.shape)
    return DensityEstimator(flow, tree, smooth_base=smooth)


def _recorded_log_likelihood(est, x, chunk, y_mode):
    """Reference: log_likelihood_vars on a recording tape, `chunk` rows at a time.

    A sampled base draws its tree once per call; a fresh rng with the same
    seed gives every chunk the draw that one call with that seed makes.
    """
    out = []
    for start in range(0, x.shape[0], chunk):
        tape = ad.Tape()
        pvars = {k: tape.leaf(v) for k, v in est.parameter_arrays().items()}
        out.append(est.log_likelihood_vars(tape, pvars, x[start:start + chunk], y_mode=y_mode,
                                           rng=np.random.default_rng(5)).value)
    return np.concatenate(out)


class TestBlockedEvaluation:
    """Numpy-side evaluation runs the flow in EVAL_ROWS-row blocks on an EvalTape."""

    N = 2 * EVAL_ROWS + 1

    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("y_mode", ["posterior-mean", "sampled"])
    def test_log_likelihood_matches_recording_tape(self, y_mode, smooth):
        rng = np.random.default_rng(41)
        est = _tree_estimator(rng, smooth=smooth)
        x = 1.5 * rng.standard_normal((self.N, 4))
        got = est.log_likelihood(x, y_mode=y_mode, rng=np.random.default_rng(5))
        want = _recorded_log_likelihood(est, x, 3000, y_mode)
        assert got.shape == (self.N,)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    def test_sample_matches_unblocked_inverse(self):
        rng = np.random.default_rng(42)
        est = _tree_estimator(rng)
        got = est.sample(self.N, np.random.default_rng(6))
        z = est.base.sample(self.N, np.random.default_rng(6)).clip(1e-6, 1.0 - 1e-6)
        np.testing.assert_allclose(got, est.flow.inverse(z), rtol=0.0, atol=1e-13)

    def test_empty_input(self):
        est = _tree_estimator(np.random.default_rng(43))
        assert est.log_likelihood(np.zeros((0, 4))).shape == (0,)
        assert est.sample(0, np.random.default_rng(0)).shape == (0, 4)

    def test_forward_shape_validation(self):
        flow = build_flow(2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            flow.forward(np.zeros((3, 5)))

    def test_memory_does_not_grow_with_a_tape(self):
        # a recording tape keeps every (N, 50) coupling intermediate alive:
        # about 290 MB here; blocks on an EvalTape need about 13 MB
        rng = np.random.default_rng(44)
        flow = build_flow(8, n_coupling=2, hidden=(50, 50), activation="relu",
                          sigmoid=True, rng=rng)
        est = DensityEstimator(flow, PolyaTreeModel.uniform(6, 8))
        x = rng.standard_normal((50000, 8))
        tracemalloc.start()
        try:
            ll = est.log_likelihood(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(ll))
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestInverseProperty:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(EVAL_ROWS - 3, 2 * EVAL_ROWS + 3),
           dims=st.integers(2, 6),
           sigmoid=st.booleans())
    def test_inverse_of_forward_is_identity(self, seed, n, dims, sigmoid):
        rng = np.random.default_rng(seed)
        flow = random_flow(rng, dims=dims, n_coupling=3, sigmoid=sigmoid)
        x = rng.standard_normal((n, dims))
        z, _ = flow.forward(x)
        np.testing.assert_allclose(flow.inverse(z), x, rtol=0.0, atol=1e-9)
