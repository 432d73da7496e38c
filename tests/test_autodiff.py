"""Tape/Var mechanics and per-primitive gradient checks against central differences."""

import numpy as np
import pytest

from polyaflow import autodiff as ad

from helpers import check_gradients, numeric_gradient, relative_error, tape_gradients


class TestForwardValues:
    def test_arithmetic_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        tape = ad.Tape()
        va, vb = tape.leaf(a), tape.leaf(b)
        np.testing.assert_array_equal((va + vb).value, a + b)
        np.testing.assert_array_equal((va - vb).value, a - b)
        np.testing.assert_array_equal((va * vb).value, a * b)
        np.testing.assert_array_equal((va / vb).value, a / b)
        np.testing.assert_array_equal((-va).value, -a)
        np.testing.assert_array_equal(va.sum(axis=1).value, a.sum(axis=1))
        np.testing.assert_array_equal(va.mean().value, a.mean())

    def test_scalar_lifting(self):
        tape = ad.Tape()
        v = tape.leaf(np.array([1.0, 2.0]))
        out = 2.0 * v + 1.0
        np.testing.assert_array_equal(out.value, [3.0, 5.0])

    def test_known_points(self):
        tape = ad.Tape()
        zero = tape.leaf(0.0)
        assert ad.sigmoid(zero).value == pytest.approx(0.5)
        assert ad.softplus(zero).value == pytest.approx(np.log(2.0))
        assert ad.log_sigmoid(zero).value == pytest.approx(-np.log(2.0))
        assert np.isfinite(ad.log_sigmoid(tape.leaf(-30.0)).value)

    def test_mixed_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        a, b = t1.leaf(1.0), t2.leaf(2.0)
        with pytest.raises(ValueError):
            ad.add(a, b)

    def test_log_domain(self):
        tape = ad.Tape()
        with pytest.raises(ValueError):
            ad.log(tape.leaf(np.array([1.0, 0.0])))

    def test_nonfinite_rejected(self):
        tape = ad.Tape()
        big = tape.leaf(1e308)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            ad.mul(big, big)


class TestBackwardBasics:
    def test_quadratic_gradient(self):
        # d/dx sum(x*x) = 2x
        tape = ad.Tape()
        x = tape.leaf(np.array([1.0, 2.0, 3.0]))
        loss = (x * x).sum()
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_sigmoid_derivative_at_zero(self):
        tape = ad.Tape()
        x = tape.leaf(0.0)
        ad.backward(ad.sigmoid(x))
        assert x.grad == pytest.approx(0.25)
        tape = ad.Tape()
        x = tape.leaf(0.0)
        ad.backward(ad.softplus(x))
        assert x.grad == pytest.approx(0.5)

    def test_requires_scalar(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3))
        with pytest.raises(ValueError):
            ad.backward(x * x)

    def test_unreached_grad_is_zero(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3))
        y = tape.leaf(2.0)
        ad.backward((x * x).sum())
        np.testing.assert_array_equal(y.grad, 0.0)

    def test_fanout_accumulates(self):
        # y = x*x + 3x reuses x twice; dy/dx = 2x + 3
        tape = ad.Tape()
        x = tape.leaf(5.0)
        ad.backward(x * x + 3.0 * x)
        assert x.grad == pytest.approx(13.0)

    def test_take_gathers_and_scatters(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
        idx = np.array([0, 3, 3])
        out = ad.take(x, idx)
        np.testing.assert_array_equal(out.value, [1.0, 4.0, 4.0])
        ad.backward(out.sum())
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0], [0.0, 2.0]])

    def test_take_bounds(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(4))
        with pytest.raises(IndexError):
            ad.take(x, np.array([4]))

    def test_clip_gradient_mask(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([-1.0, 0.5, 2.0]))
        ad.backward(ad.clip(x, 0.0, 1.0).sum())
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_matmul_chain_fd(self):
        rng = np.random.default_rng(42)
        w1 = rng.standard_normal((4, 5)) * 0.5
        w2 = rng.standard_normal((5, 2)) * 0.5
        x = rng.standard_normal((3, 4))

        def build(tape, leaves):
            vw1, vw2 = leaves
            h = ad.tanh(ad.matmul(tape.leaf(x), vw1))
            return (ad.matmul(h, vw2) * ad.matmul(h, vw2)).sum()

        err = check_gradients(build, [w1, w2], tol=1e-6)
        assert err < 1e-6

    def test_broadcast_gradients(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 3))
        row = rng.standard_normal(3)

        def build(tape, leaves):
            vm, vrow = leaves
            return ((vm + vrow) * (vm * vrow)).sum()

        check_gradients(build, [m, row], tol=1e-6)


UNARY_OPS = {
    "exp": (ad.exp, (-2.0, 2.0)),
    "log": (ad.log, (0.1, 5.0)),
    "tanh": (ad.tanh, (-3.0, 3.0)),
    "relu": (ad.relu, (0.2, 3.0)),       # keep clear of the kink
    "sigmoid": (ad.sigmoid, (-4.0, 4.0)),
    "softplus": (ad.softplus, (-4.0, 4.0)),
    "log_sigmoid": (ad.log_sigmoid, (-4.0, 4.0)),
    "lgamma": (ad.lgamma, (0.3, 8.0)),
    "digamma": (ad.digamma, (0.5, 8.0)),
}


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name", sorted(UNARY_OPS))
    def test_unary_fd(self, name):
        op, (lo, hi) = UNARY_OPS[name]
        rng = np.random.default_rng(hash(name) % 2**32)
        for trial in range(20):
            x = rng.uniform(lo, hi, size=(3, 2))

            def build(tape, leaves):
                return op(leaves[0]).sum()

            check_gradients(build, [x], tol=1e-4)

    def test_binary_fd_random(self):
        rng = np.random.default_rng(99)
        ops = [ad.add, ad.sub, ad.mul, ad.div]
        for trial in range(25):
            a = rng.uniform(0.5, 2.0, size=(2, 3))
            b = rng.uniform(0.5, 2.0, size=(2, 3))
            op = ops[trial % len(ops)]

            def build(tape, leaves):
                return (op(leaves[0], leaves[1]) * op(leaves[0], leaves[1])).sum()

            check_gradients(build, [a, b], tol=1e-5)

    def test_sum_mean_axes(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 2))

        def build(tape, leaves):
            v = leaves[0]
            return ad.exp(v.sum(axis=(0, 2)) * 0.1).sum() + v.mean(axis=1).sum()

        check_gradients(build, [x], tol=1e-6)

    def test_take_gradient_fd(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(0.5, 2.0, size=(4, 3))
        idx = rng.integers(0, 12, size=7)

        def build(tape, leaves):
            g = ad.take(leaves[0], idx)
            return (g * g).sum()

        check_gradients(build, [x], tol=1e-6)

    def test_concat_gradient_fd(self):
        rng = np.random.default_rng(22)
        a = rng.uniform(0.5, 2.0, size=(3, 2))
        b = rng.uniform(0.5, 2.0, size=(3, 4))
        weights = rng.standard_normal((3, 6))

        def build(tape, leaves):
            joined = ad.concat(leaves[0], leaves[1])
            return (joined * joined * weights).sum()

        check_gradients(build, [a, b], tol=1e-6)
        tape = ad.Tape()
        joined = ad.concat(tape.leaf(a), tape.leaf(b))
        np.testing.assert_array_equal(joined.value, np.concatenate([a, b], axis=1))


class TestSecondOrderThroughSpecials:
    def test_lgamma_gradient_is_digamma(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([0.7, 1.3, 4.2]))
        ad.backward(ad.lgamma(x).sum())
        from polyaflow import special

        np.testing.assert_allclose(x.grad, special.digamma(x.value), atol=1e-10)

    def test_digamma_gradient_is_trigamma(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([0.9, 2.5]))
        ad.backward(ad.digamma(x).sum())
        from polyaflow import special

        np.testing.assert_allclose(x.grad, special.trigamma(x.value), atol=1e-10)


def _ops_on(tape, a, b, pos):
    """One value of every primitive on `tape`, for comparing two tapes."""
    va, vb, vp = tape.leaf(a), tape.leaf(b), tape.leaf(pos)
    return [
        va + vb, va - vb, va * vb, va / vp, -va, ad.matmul(va, vb.value.T),
        va.sum(axis=0), va.mean(), ad.exp(va), ad.log(vp), ad.tanh(va), ad.relu(va),
        ad.sigmoid(va), ad.softplus(va), ad.log_sigmoid(va), ad.take(va, [0, 5, 5]),
        ad.concat(va, vb), ad.clip(va, -0.5, 0.5), ad.lgamma(vp), ad.digamma(vp),
    ]


class TestEvalTape:
    def test_values_match_recording_tape_bitwise(self):
        rng = np.random.default_rng(31)
        a, b = rng.standard_normal((2, 3, 4))
        pos = rng.uniform(0.2, 4.0, (3, 4))
        recorded = _ops_on(ad.Tape(), a, b, pos)
        evaluated = _ops_on(ad.EvalTape(), a, b, pos)
        for want, got in zip(recorded, evaluated):
            np.testing.assert_array_equal(got.value, want.value)

    def test_records_nothing(self):
        tape = ad.EvalTape()
        x = tape.leaf(np.ones(3))
        y = ad.exp(x * x).sum()
        assert len(tape) == 0
        assert y.index is None
        assert not hasattr(tape, "_parents") and not hasattr(tape, "_vjps")

    def test_backward_raises(self):
        tape = ad.EvalTape()
        loss = (tape.leaf(np.ones(3)) * 2.0).sum()
        with pytest.raises(RuntimeError, match="recording Tape"):
            ad.backward(loss)
        with pytest.raises(RuntimeError):
            loss.grad

    def test_checks_finiteness(self):
        tape = ad.EvalTape()
        big = tape.leaf(1e308)
        with np.errstate(over="ignore"), pytest.raises(ad.NumericError):
            ad.mul(big, big)
        with pytest.raises(ad.NumericError):
            tape.leaf(np.array([0.0, np.nan]))

    def test_evaluate_matches_recorded_value(self):
        params = {"w": np.array([0.5, -1.5])}

        def fn(tape, pvars, x):
            return ad.softplus(pvars["w"] * x).sum()

        tape = ad.Tape()
        want = fn(tape, {"w": tape.leaf(params["w"])}, 3.0).value
        assert ad.evaluate(fn, params, 3.0) == want


class TestNumericError:
    @pytest.mark.parametrize("op", [ad.log, ad.lgamma, ad.digamma])
    def test_domain_errors_share_one_type(self, op):
        for tape in (ad.Tape(), ad.EvalTape()):
            with pytest.raises(ad.NumericError) as info:
                op(tape.leaf(np.array([1.0, 0.0])))
            assert isinstance(info.value, FloatingPointError)
            assert isinstance(info.value, ValueError)


class TestConstants:
    """Non-Var operands are checked constants, not recorded nodes."""

    def test_constant_operands_are_not_nodes(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        y = ad.div(ad.mul(x, np.array([3.0, 4.0])) + 1.0, 2.0)
        assert len(tape) == 4                      # the leaf, mul, add and div
        ad.backward(y.sum())
        np.testing.assert_array_equal(x.grad, [1.5, 2.0])

    def test_operations_on_constants_are_constants(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        data = tape.constant([3.0, 4.0])
        scaled = ad.exp(data * 2.0).sum()          # no operand is a node
        y = (x * data).sum() + scaled
        assert data.index is None and scaled.index is None
        assert len(tape) == 4                      # the leaf, mul, sum and add
        ad.backward(y)
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])
        np.testing.assert_array_equal(data.grad, [0.0, 0.0])
        assert scaled.grad == 0.0

    def test_backward_of_a_constant_loss_leaves_zero_gradients(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        loss = ad.log(tape.constant([2.0, 5.0])).sum()
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])
        assert loss.grad == 0.0

    def test_constant_checks_finiteness(self):
        with pytest.raises(ad.NumericError):
            ad.Tape().constant([1.0, np.inf])

    @pytest.mark.parametrize("op, constant", [(ad.div, np.inf), (ad.add, np.array([np.nan]))])
    def test_non_finite_constant_raises(self, op, constant):
        for tape in (ad.Tape(), ad.EvalTape()):
            v = tape.leaf(np.array([1.0, 2.0]))
            with pytest.raises(ad.NumericError):
                op(v, constant)
            with pytest.raises(ad.NumericError):
                op(constant, v)

    def test_ndarray_on_the_left_defers_to_var(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([1.0, 2.0, 4.0]))
        a = np.array([3.0, 5.0, 7.0])
        terms = [np.zeros(3) + x, a - x, a * x, a / x, np.float64(2.0) * x]
        assert all(isinstance(t, ad.Var) for t in terms)
        assert len(tape) == 6
        for term, want in zip(terms, [x.value, a - x.value, a * x.value, a / x.value,
                                      2.0 * x.value]):
            np.testing.assert_array_equal(term.value, want)
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        ad.backward(total.sum())
        np.testing.assert_array_equal(x.grad, 1.0 - 1.0 + a - a / (x.value * x.value) + 2.0)

    def test_reductions_spread_gradient_over_reduced_axes(self):
        tape = ad.Tape()
        x = tape.leaf(np.arange(24.0).reshape(2, 3, 4))
        w = np.arange(8.0).reshape(2, 1, 4)
        ad.backward((x.sum(axis=1) * w[:, 0]).sum() + (x.mean(axis=(0, 2)) * 3.0).sum())
        want = np.broadcast_to(w, (2, 3, 4)) + 3.0 / 8.0
        np.testing.assert_array_equal(x.grad, want)
