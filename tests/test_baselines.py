"""Histogram and fixed-prior baselines: routing, normalization, gradients."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from polyaflow import autodiff as ad
from polyaflow.baselines import FixedPrior, LearnableHistogram, _cell_table

from helpers import check_gradients


def random_histogram(rng, bins=4, dims=2):
    h = LearnableHistogram.uniform(bins, dims)
    h.raw_widths[...] = rng.uniform(-1.5, 1.0, h.raw_widths.shape)
    h.raw_logits[...] = rng.uniform(-1.0, 1.0, h.raw_logits.shape)
    return h


class TestHistogramStructure:
    def test_uniform_is_flat_on_unit_cube(self):
        h = LearnableHistogram.uniform(4, 2)
        np.testing.assert_allclose(h.boundaries()[-1], 1.0, atol=1e-12)
        x = np.random.default_rng(0).uniform(0.01, 1.0, (10, 2))
        np.testing.assert_allclose(h.log_density(x), 0.0, atol=1e-10)

    def test_param_count(self):
        assert LearnableHistogram.uniform(16, 2).param_count() == 64
        assert LearnableHistogram.uniform(8, 3).param_count() == 48

    def test_boundaries_increasing(self):
        h = random_histogram(np.random.default_rng(2), bins=6, dims=3)
        edges = h.boundaries()
        assert np.all(np.diff(edges, axis=0) > 0.0)
        assert np.all(edges[0] == 0.0)

    def test_probabilities_normalized(self):
        h = random_histogram(np.random.default_rng(3), bins=5, dims=2)
        np.testing.assert_allclose(h.probabilities().sum(axis=0), 1.0, atol=1e-12)


class TestActiveBin:
    def test_halfopen_convention(self):
        h = LearnableHistogram.uniform(2, 1)
        # boundaries (0, 0.5, 1): the shared edge belongs to the left cell
        assert h.active_bin(0, 0.5) == 0
        assert h.active_bin(0, 0.25) == 0
        assert h.active_bin(0, 0.75) == 1
        assert h.active_bin(0, 1.0) == 1

    def test_domain_errors(self):
        h = LearnableHistogram.uniform(2, 1)
        with pytest.raises(ValueError):
            h.active_bin(0, 0.0)
        with pytest.raises(ValueError):
            h.active_bin(0, 1.5)

    def test_binary_search_matches_linear_scan(self):
        rng = np.random.default_rng(7)
        h = random_histogram(rng, bins=9, dims=2)
        edges = h.boundaries()
        for _ in range(300):
            d = int(rng.integers(2))
            x = float(rng.uniform(1e-9, edges[-1, d]))
            found = h.active_bin(d, x)
            scan = next(k for k in range(h.bins) if edges[k, d] < x <= edges[k + 1, d])
            assert found == scan


@st.composite
def histograms_with_points(draw):
    """A 1-D histogram and points on its support: every interior edge, plus random ones."""
    bins = draw(st.integers(2, 8))
    raw = arrays(np.float64, (bins, 1), elements=st.floats(-3.0, 2.0))
    h = LearnableHistogram(bins, 1, draw(raw), draw(raw))
    edges = h.boundaries()[:, 0]
    inside = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=4))
    return h, np.concatenate([edges[1:-1], edges[-1] * np.asarray(inside, dtype=float)])


class TestHalfOpenCellsProperty:
    @settings(max_examples=200, deadline=None)
    @given(histograms_with_points())
    def test_scalar_and_vectorized_routing_agree(self, case):
        """Cells are (b_k, b_{k+1}]: an interior edge belongs to the cell on its left."""
        h, xs = case
        edges = h.boundaries()[:, 0]
        total = edges[-1]
        cell_log_density = np.log(h.probabilities()[:, 0]) - np.log(h.widths()[:, 0] / total)
        for k in range(1, h.bins):
            assert h.active_bin(0, edges[k]) == k - 1
        for x in xs:
            if x <= 0.0:
                continue
            cell = h.active_bin(0, x)
            assert edges[cell] < x <= edges[cell + 1]
            # the vectorized path routes the unit-cube point z with z * total == x
            z = x / total
            if z * total != x or z > 1.0:
                continue
            others = np.delete(cell_log_density, cell)
            assume(np.all(np.abs(others - cell_log_density[cell]) > 1e-9))
            got = h.log_density(np.array([[z]]))[0]
            assert got == pytest.approx(cell_log_density[cell], rel=1e-12, abs=1e-12)


class TestHistogramDensity:
    def test_normalizes_on_unit_cube_1d(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            h = random_histogram(rng, bins=int(rng.integers(2, 9)), dims=1)
            edges = h.boundaries()[:, 0]
            mids_z = 0.5 * (edges[:-1] + edges[1:]) / edges[-1]
            lens_z = np.diff(edges) / edges[-1]
            dens = np.exp(h.log_density(mids_z[:, None]))
            assert float(dens @ lens_z) == pytest.approx(1.0, abs=1e-10)

    def test_cell_values_by_hand(self):
        h = LearnableHistogram.uniform(2, 1)
        # masses (0.75, 0.25) on widths (0.5, 0.5): density 1.5 then 0.5
        h.raw_logits[:, 0] = [np.log(3.0), 0.0]
        out = np.exp(h.log_density(np.array([[0.2], [0.9]])))
        np.testing.assert_allclose(out, [1.5, 0.5], atol=1e-12)

    def test_domain_error(self):
        h = LearnableHistogram.uniform(3, 2)
        with pytest.raises(ValueError):
            h.log_density(np.array([[0.5, 0.0]]))

    def test_non_finite_points_rejected(self):
        h = LearnableHistogram.uniform(3, 2)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="point 1, dimension 0"):
                h.log_density(np.array([[0.5, 0.5], [bad, 0.5]]))

    def test_gradients(self):
        rng = np.random.default_rng(17)
        h = random_histogram(rng, bins=4, dims=2)
        z = rng.uniform(0.05, 0.95, (15, 2))
        keys = list(h.parameter_arrays().keys())

        def build(tape, leaves):
            pvars = dict(zip(keys, leaves))
            return h.log_density_vars(tape, pvars, z).sum()

        check_gradients(build, list(h.parameter_arrays().values()), tol=1e-4)


def composite_log_density(h, tape, pvars, z):
    """Oracle: the per-point composite the (K, D) cell table replaced.

    Two `take`s per point and a per-point log, sub and add, with the
    router's upper and final clips.
    """
    widths = ad.softplus(pvars["raw_widths"])
    totals = widths.sum(axis=0)
    logits = pvars["raw_logits"]
    shift = logits.value.max(axis=0)
    log_norm = ad.log(ad.exp(logits - shift).sum(axis=0)) + shift
    log_p = logits - log_norm
    edges = np.zeros((h.bins + 1, h.dims))
    edges[1:] = np.cumsum(widths.value, axis=0)
    scaled = z * edges[-1]
    cells = np.empty(z.shape, dtype=np.int64)
    for d in range(h.dims):
        col = np.clip(scaled[:, d], np.nextafter(0.0, 1.0), edges[-1, d])
        cells[:, d] = np.searchsorted(edges[:, d], col, side="left") - 1
    cells = np.clip(cells, 0, h.bins - 1)
    flat = cells * h.dims + np.arange(h.dims)[None, :]
    picked = ad.take(log_p, flat) - ad.log(ad.take(widths, flat))
    return (picked + ad.log(totals)).sum(axis=1)


class TestHistogramTable:
    """The table-and-read density against the per-point composite."""

    @staticmethod
    def _points(h, rng):
        # random points, every edge and its neighbours, 1.0 and the smallest float
        edges = h.boundaries()
        on_edges = edges[1:] / edges[-1]
        return np.clip(np.concatenate([
            rng.uniform(0.0, 1.0, (200, h.dims)),
            on_edges, np.nextafter(on_edges, 0.0), np.nextafter(on_edges, 2.0),
            np.ones((1, h.dims)), np.full((1, h.dims), 5e-324),
        ]), 5e-324, 1.0)

    @staticmethod
    def _run(fn, h, z, weights):
        tape = ad.Tape()
        pvars = {k: tape.leaf(v) for k, v in h.parameter_arrays().items()}
        out = fn(tape, pvars, z)
        ad.backward((out * weights).sum())
        return out.value, pvars["raw_logits"].grad, pvars["raw_widths"].grad, len(tape)

    @pytest.mark.parametrize("bins", [1, 3, 16])
    @pytest.mark.parametrize("dims", [1, 2, 8])
    def test_values_and_gradients_match_the_composite(self, bins, dims):
        rng = np.random.default_rng(100 * bins + dims)
        h = LearnableHistogram(bins, dims, rng.uniform(-3.0, 2.0, (bins, dims)),
                               rng.uniform(-2.0, 2.0, (bins, dims)))
        z = self._points(h, rng)
        weights = rng.normal(size=z.shape[0])
        value, logit_grad, width_grad, nodes = self._run(h.log_density_vars, h, z, weights)
        oracle = self._run(lambda t, p, x: composite_log_density(h, t, p, x), h, z, weights)
        np.testing.assert_array_equal(value, oracle[0])
        np.testing.assert_array_equal(logit_grad, oracle[1])
        # one (K, D) sum per cell instead of one term per point: rounding differs;
        # the scale bounds the summed terms' magnitudes
        scale = np.abs(weights).sum() / h.widths().min()
        np.testing.assert_allclose(width_grad, oracle[2], rtol=1e-12, atol=1e-12 * scale)
        assert nodes == 6           # two leaves, the table and its read, the weighting and sum
        np.testing.assert_array_equal(h.log_density(z), value)


def chain_cell_table(raw_widths, raw_logits):
    """Oracle: the (K, D) cell log-density table as the chain of 12 primitives it was."""
    widths = ad.softplus(raw_widths)
    totals = widths.sum(axis=0)
    shift = raw_logits.value.max(axis=0)
    log_norm = ad.log(ad.exp(raw_logits - shift).sum(axis=0)) + shift
    log_p = raw_logits - log_norm
    return (log_p - ad.log(widths)) + ad.log(totals)


class TestCellTableNode:
    """The histogram's one-node cell table against the chain of primitives it replaced."""

    @staticmethod
    def _run(fn, raw_widths, raw_logits, weights):
        """(table, d raw_widths, d raw_logits, nodes) of sum(weights * table), or the error."""
        tape = ad.Tape()
        rw, rl = tape.leaf(raw_widths), tape.leaf(raw_logits)
        try:
            table = fn(rw, rl)
        except ad.NumericError as err:
            return err
        ad.backward((table * weights).sum())
        return table.value, rw.grad, rl.grad, len(tape) - 4

    @staticmethod
    def _node(raw_widths, raw_logits):
        return _cell_table(raw_widths, raw_logits)[0]

    def _assert_as_the_chain(self, raw_widths, raw_logits, weights):
        got = self._run(self._node, raw_widths, raw_logits, weights)
        want = self._run(chain_cell_table, raw_widths, raw_logits, weights)
        if isinstance(want, Exception):
            assert isinstance(got, ad.NumericError), "the chain raised, the node did not"
            return got
        assert not isinstance(got, Exception), f"the node raised, the chain did not: {got}"
        for g, w in zip(got[:3], want[:3]):
            np.testing.assert_array_equal(g, w)
        assert (got[3], want[3]) == (1, 12)
        return None

    @pytest.mark.parametrize("bins", [1, 3, 16])
    @pytest.mark.parametrize("dims", [1, 2, 8])
    def test_values_and_gradients_are_the_chain_bitwise(self, bins, dims):
        rng = np.random.default_rng(1000 + 10 * bins + dims)
        for scale in (1.0, 30.0):
            raw_widths = rng.normal(0.0, scale, (bins, dims))
            raw_logits = rng.normal(0.0, scale, (bins, dims))
            counts = rng.integers(0, 50, (bins, dims)).astype(float)   # read_cells' bincounts
            for weights in (rng.normal(size=(bins, dims)), counts):
                assert self._assert_as_the_chain(raw_widths, raw_logits, weights) is None

    def test_finite_differences(self):
        rng = np.random.default_rng(31)
        weights = rng.normal(size=(5, 3))

        def build(tape, leaves):
            return (self._node(*leaves) * weights).sum()

        check_gradients(build, [rng.uniform(-2.0, 1.5, (5, 3)), rng.uniform(-1.5, 1.5, (5, 3))],
                        tol=1e-6)

    @pytest.mark.parametrize("case", [
        "logits-span-overflows", "logits-span-fits", "total-overflows", "one-huge-width",
        "subnormal-widths", "zero-width", "zero-width-and-total-overflow",
    ])
    def test_extreme_inputs_raise_or_pass_as_the_chain(self, case):
        raw_widths, raw_logits = np.zeros((3, 2)), np.zeros((3, 2))
        raises = True
        if case == "logits-span-overflows":
            raw_logits[:, 1] = [1e308, -1e308, 0.0]
        elif case == "logits-span-fits":
            raw_logits[:, 1] = [1e308, -7e307, 0.0]
            raises = False
        elif case == "total-overflows":
            raw_widths[:2, 0] = 1e308
        elif case == "one-huge-width":
            raw_widths[0, 0] = 1e308
            raises = False
        elif case == "subnormal-widths":
            raw_widths[:, 1] = -740.0
            raises = False
        elif case == "zero-width":
            raw_widths[1, 0] = -800.0
        else:
            raw_widths[:2, 0] = 1e308
            raw_widths[2, 1] = -800.0
        weights = np.random.default_rng(7).uniform(-0.5, 0.5, (3, 2))   # a finite loss
        with np.errstate(all="ignore"):
            err = self._assert_as_the_chain(raw_widths, raw_logits, weights)
        assert (err is not None) == raises
        if case == "zero-width":
            assert "log requires strictly positive input" in str(err)


class TestZeroWidthCells:
    """A width whose softplus underflows to 0 would leave a density of total mass < 1."""

    def test_constructor_names_the_width(self):
        h = LearnableHistogram.uniform(4, 1)
        h.raw_widths[1, 0] = -800.0
        with pytest.raises(ValueError, match=r"raw_widths\[1\]\[0\] is -800\.0"):
            LearnableHistogram(4, 1, h.raw_widths, h.raw_logits)
        LearnableHistogram(4, 1, np.full((4, 1), -740.0), h.raw_logits)   # subnormal, > 0

    def test_tape_raises_numeric_error(self):
        h = LearnableHistogram.uniform(4, 1)
        h.raw_widths[1, 0] = -800.0                 # set after construction, as a step may
        with pytest.raises(ad.NumericError, match="log requires strictly positive"):
            h.log_density(np.array([[0.5]]))


class TestHistogramSampling:
    def test_cell_frequencies(self):
        rng = np.random.default_rng(19)
        h = random_histogram(rng, bins=3, dims=1)
        draws = h.sample(30000, np.random.default_rng(23))
        assert np.all((draws > 0.0) & (draws <= 1.0))
        edges_z = h.boundaries()[:, 0] / h.boundaries()[-1, 0]
        counts = np.histogram(draws[:, 0], bins=edges_z)[0]
        probs = h.probabilities()[:, 0]
        sigma = np.sqrt(probs * (1.0 - probs) * draws.shape[0])
        assert np.all(np.abs(counts - probs * draws.shape[0]) < 4.0 * sigma + 1e-9)

    def test_deterministic(self):
        h = random_histogram(np.random.default_rng(1), bins=4, dims=3)
        a = h.sample(64, np.random.default_rng(5))
        b = h.sample(64, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestFixedPrior:
    def test_gaussian_matches_scipy(self):
        p = FixedPrior("gaussian", 3)
        x = np.random.default_rng(2).standard_normal((12, 3))
        oracle = stats.multivariate_normal(np.zeros(3), np.eye(3)).logpdf(x)
        np.testing.assert_allclose(p.log_density(x), oracle, atol=1e-10)

    def test_logistic_matches_scipy(self):
        p = FixedPrior("logistic", 2)
        x = np.random.default_rng(3).standard_normal((12, 2)) * 3.0
        oracle = stats.logistic.logpdf(x).sum(axis=1)
        np.testing.assert_allclose(p.log_density(x), oracle, atol=1e-10)

    def test_no_parameters(self):
        assert FixedPrior("gaussian", 4).parameter_arrays() == {}
        assert FixedPrior("logistic", 4).param_count() == 0

    def test_sampling_moments(self):
        rng = np.random.default_rng(4)
        g = FixedPrior("gaussian", 2).sample(50000, rng)
        assert abs(g.mean()) < 0.02
        assert g.std() == pytest.approx(1.0, abs=0.02)
        logi = FixedPrior("logistic", 1).sample(50000, rng)
        assert logi.std() == pytest.approx(np.pi / np.sqrt(3.0), abs=0.05)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            FixedPrior("cauchy", 2)
