"""Tree-density behavior: routing, normalization, conjugacy, sampling, gradients."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polyaflow import autodiff as ad
from polyaflow import special
from polyaflow.polya_tree import (
    PolyaTreeModel,
    intervals_from_splits,
    param_count,
)

from helpers import check_gradients


def random_model(rng, levels=None, dims=None, mode=None):
    levels = levels or int(rng.integers(1, 5))
    dims = dims or int(rng.integers(1, 4))
    mode = mode or rng.choice(["dyadic", "per-level", "per-node"])
    model = PolyaTreeModel.uniform(levels, dims, mode)
    model.raw_left[...] = rng.uniform(-1.0, 3.0, model.raw_left.shape)
    model.raw_right[...] = rng.uniform(-1.0, 3.0, model.raw_right.shape)
    if model.split_raw is not None:
        model.split_raw[...] = rng.uniform(-1.5, 1.5, model.split_raw.shape)
    return model


def descent(model, dim, x):
    """Reference root-to-leaf walk comparing x with each split on its path.

    Returns (path bits, leaf index, (lower, upper]) for scalar x in one
    dimension; routing, leaf lookup and branch counts must agree with it.
    """
    betas = model.split_betas()[dim]
    lo, hi, leaf, bits = 0.0, 1.0, 0, []
    for j in range(model.levels):
        split = lo + (hi - lo) * betas[(1 << j) - 1 + leaf]
        if x <= split:
            hi, bit = split, 0
        else:
            lo, bit = split, 1
        bits.append(bit)
        leaf = 2 * leaf + bit
    return tuple(bits), leaf, (lo, hi)


def searchsorted_route(model, x):
    """Reference routing: one binary search of the leaf boundaries per dimension."""
    bounds = model.leaf_boundaries()
    leaf = np.empty(x.shape, dtype=np.int64)
    for d in range(model.dims):
        leaf[:, d] = np.searchsorted(bounds[d], x[:, d], side="left") - 1
    return leaf


def counts_of_leaves(model, leaf):
    """Left/right branch counts per node of (N, D) leaf indices, one level at a time."""
    n, L = model.n_nodes, model.levels
    counts = np.zeros((2, model.dims, n), dtype=np.int64)
    for d in range(model.dims):
        for j in range(L):
            node = (1 << j) - 1 + (leaf[:, d] >> (L - j))
            bit = (leaf[:, d] >> (L - j - 1)) & 1
            counts[:, d] += np.bincount(bit * n + node, minlength=2 * n).reshape(2, n)
    return counts[0], counts[1]


def dyadic_edge_points(levels, dims, rng):
    """Random points, every k / 2^L boundary, its float neighbours, 5e-324 and 1.0."""
    edges = np.arange(1, (1 << levels) + 1) / float(1 << levels)
    column = np.concatenate([
        rng.uniform(0.0, 1.0, 2000), edges, np.nextafter(edges, 0.0),
        np.nextafter(edges[:-1], 2.0), [5e-324, 1e-310, 1.0],
    ])
    column = column[column > 0.0]
    return np.column_stack([rng.permutation(column) for _ in range(dims)])


def descent_counts(model, x):
    """Left/right branch counts per node, from the reference walk."""
    counts = np.zeros((2, model.dims, model.n_nodes), dtype=np.int64)
    for pt in x:
        for d in range(model.dims):
            path, _, _ = descent(model, d, pt[d])
            prefix = 0
            for j, bit in enumerate(path):
                counts[bit, d, (1 << j) - 1 + prefix] += 1
                prefix = 2 * prefix + bit
    return counts[0], counts[1]


@st.composite
def trees_with_points(draw):
    """A tree with random (possibly near-degenerate) splits, and points in its cube.

    split_raw reaches +-40, where sigmoid rounds to 0 or 1 and leaves have
    zero width; about half the coordinates sit exactly on a leaf boundary.
    """
    levels = draw(st.integers(1, 6))
    dims = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["dyadic", "per-level", "per-node"]))
    model = PolyaTreeModel.uniform(levels, dims, mode)
    if model.split_raw is not None:
        model.split_raw[...] = draw(arrays(
            np.float64, model.split_raw.shape, elements=st.floats(-40.0, 40.0)))
    model.raw_left[...] = draw(arrays(
        np.float64, model.raw_left.shape, elements=st.floats(-3.0, 5.0)))
    n = draw(st.integers(1, 12))
    x = draw(arrays(np.float64, (n, dims),
                    elements=st.floats(0.0, 1.0, exclude_min=True)))
    edge = draw(arrays(np.int64, (n, dims), elements=st.integers(1, model.n_leaves)))
    on_edge = draw(arrays(np.bool_, (n, dims)))
    edges = model.leaf_boundaries()[np.arange(dims), edge]
    return model, np.where(on_edge & (edges > 0.0), edges, x)


def naive_log_density(model, x):
    """Per-point tree walk, independent of the path-index machinery."""
    al, ar = model.alphas()
    y = al / (al + ar)
    out = np.zeros(len(x))
    for i, pt in enumerate(np.atleast_2d(x)):
        for d in range(model.dims):
            assign = model.leaf_of(d, pt[d])
            prefix = 0
            for j, bit in enumerate(assign.path):
                node = 2**j - 1 + prefix
                out[i] += np.log(y[d, node] if bit == 0 else 1.0 - y[d, node])
                prefix = 2 * prefix + bit
            out[i] -= np.log(assign.interval[1] - assign.interval[0])
    return out


class TestStructure:
    def test_param_count_all_modes(self):
        assert param_count(3, 2, "dyadic") == 28
        assert param_count(3, 2, "per-level") == 28 + 6
        assert param_count(3, 2, "per-node") == 28 + 14
        model = PolyaTreeModel.uniform(4, 3, "per-node")
        assert model.param_count() == sum(v.size for v in model.parameter_arrays().values())

    def test_uniform_model_shapes(self):
        model = PolyaTreeModel.uniform(3, 2)
        assert model.raw_left.shape == (2, 7)
        al, ar = model.alphas()
        np.testing.assert_allclose(al, 1.0, atol=1e-12)
        np.testing.assert_allclose(ar, 1.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PolyaTreeModel(0, 1, np.zeros((1, 0)), np.zeros((1, 0)))
        with pytest.raises(ValueError):
            PolyaTreeModel(2, 1, np.zeros((1, 3)), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            PolyaTreeModel.uniform(2, 2, "quadratic")
        with pytest.raises(ValueError):
            PolyaTreeModel(2, 1, np.zeros((1, 3)), np.zeros((1, 3)), "per-level", None)


class TestIntervals:
    def test_worked_two_level_example(self):
        b1, b2 = 0.6, 0.5
        bounds = intervals_from_splits(2, [b1, b2], "per-level")
        expected = np.array([0.0, b1 * b2, b1, b1 + (1.0 - b1) * b2, 1.0])
        np.testing.assert_array_equal(bounds, expected)
        np.testing.assert_allclose(bounds, [0.0, 0.3, 0.6, 0.8, 1.0], atol=1e-12, rtol=0.0)

    def test_dyadic_intervals(self):
        model = PolyaTreeModel.uniform(3, 1)
        cells = model.intervals(0)
        assert len(cells) == 8
        np.testing.assert_allclose([c[1] - c[0] for c in cells], 0.125, atol=1e-15)

    def test_intervals_partition_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            model = random_model(rng)
            for d in range(model.dims):
                cells = model.intervals(d)
                assert cells[0][0] == 0.0
                assert cells[-1][1] == 1.0
                for (_, hi), (lo2, _) in zip(cells[:-1], cells[1:]):
                    assert hi == lo2
                assert all(hi > lo for lo, hi in cells)

    def test_per_node_intervals_match_leaf_of(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, levels=3, dims=2, mode="per-node")
        cells = model.intervals(1)
        for x in rng.uniform(1e-6, 1.0, 200):
            assign = model.leaf_of(1, x)
            lo, hi = cells[assign.leaf_index]
            assert lo < x <= hi
            assert assign.interval == (lo, hi)


class TestRouting:
    def test_boundary_belongs_left(self):
        model = PolyaTreeModel.uniform(2, 1)
        # 0.25 sits exactly on the level-2 split: left child, leaf 0
        assert model.leaf_of(0, 0.25).leaf_index == 0
        assert model.leaf_of(0, 0.5).leaf_index == 1
        assert model.leaf_of(0, 0.25).path == (0, 0)
        assert model.leaf_of(0, 1.0).leaf_index == 3

    def test_domain_errors(self):
        model = PolyaTreeModel.uniform(2, 2)
        with pytest.raises(ValueError):
            model.leaf_of(0, 0.0)
        with pytest.raises(ValueError):
            model.leaf_of(0, 1.5)
        with pytest.raises(ValueError):
            model.log_density(np.array([[0.5, 0.0]]))
        with pytest.raises(ValueError):
            model.route(np.zeros((3, 5)))

    def test_route_matches_leaf_of(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            model = random_model(rng)
            x = rng.uniform(1e-9, 1.0, (40, model.dims))
            leaf = model.route(x)
            for i in range(40):
                for d in range(model.dims):
                    assert leaf[i, d] == model.leaf_of(d, x[i, d]).leaf_index


    def test_non_finite_points_rejected(self):
        model = PolyaTreeModel.uniform(2, 2)
        for bad in (np.nan, np.inf, -np.inf):
            x = np.array([[0.3, 0.5], [0.99, bad]])
            with pytest.raises(ValueError, match="point 1, dimension 1"):
                model.log_density(x)
            with pytest.raises(ValueError, match="point 1, dimension 1"):
                model.branch_counts(x)


class TestRoutingProperties:
    @settings(max_examples=200, deadline=None)
    @given(trees_with_points())
    def test_route_leaf_of_and_counts_match_descent(self, case):
        model, x = case
        leaf = model.route(x)
        for i in range(x.shape[0]):
            for d in range(model.dims):
                path, k, interval = descent(model, d, x[i, d])
                assert leaf[i, d] == k
                assign = model.leaf_of(d, x[i, d])
                assert (assign.path, assign.leaf_index, assign.interval) == (path, k, interval)
        cl, cr = model.branch_counts(x)
        want_l, want_r = descent_counts(model, x)
        np.testing.assert_array_equal(cl, want_l)
        np.testing.assert_array_equal(cr, want_r)

    @pytest.mark.parametrize("levels", range(1, 17))
    def test_dyadic_route_matches_binary_search(self, levels):
        rng = np.random.default_rng(levels)
        model = PolyaTreeModel.uniform(levels, 3)
        x = dyadic_edge_points(levels, 3, rng)
        leaf = model.route(x)
        want = searchsorted_route(model, x)
        assert leaf.dtype == want.dtype and leaf.shape == want.shape
        np.testing.assert_array_equal(leaf, want)
        cl, cr = model.branch_counts(x)
        want_l, want_r = counts_of_leaves(model, want)
        np.testing.assert_array_equal(cl, want_l)
        np.testing.assert_array_equal(cr, want_r)
        for i in rng.choice(x.shape[0], 60, replace=False):
            for d in range(3):
                assert model.leaf_of(d, x[i, d]).leaf_index == leaf[i, d]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 16),
           arrays(np.float64, (8, 2), elements=st.floats(0.0, 1.0, exclude_min=True)))
    def test_dyadic_route_matches_binary_search_anywhere(self, levels, x):
        model = PolyaTreeModel.uniform(levels, 2)
        np.testing.assert_array_equal(model.route(x), searchsorted_route(model, x))

    @pytest.mark.parametrize("mode", ["dyadic", "per-level", "per-node"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.5, 1.0 + 2**-52, 3.0])
    def test_points_outside_cube_rejected_by_position(self, mode, bad):
        model = PolyaTreeModel.uniform(10, 3, mode)
        x = np.full((4, 3), 0.5)
        x[2, 1] = bad
        for call in (model.route, model.branch_counts):
            with pytest.raises(ValueError, match="point 2, dimension 1"):
                call(x)

    @settings(max_examples=100, deadline=None)
    @given(trees_with_points())
    def test_leaf_log_densities_match_path_products(self, case):
        model, _ = case
        al, ar = model.alphas()
        log_y = np.log(al / (al + ar))
        log_1y = np.log(ar / (al + ar))
        split = np.zeros((model.dims, model.n_nodes))
        if model.split_raw is not None:
            split = model.split_raw
            if model.partition_mode == "per-level":
                split = np.repeat(split, 1 << np.arange(model.levels), axis=1)
        got = ad.evaluate(model.leaf_log_densities_vars, model.parameter_arrays())
        want = np.zeros_like(got)
        for d in range(model.dims):
            for k in range(model.n_leaves):
                for j in range(model.levels):
                    node = (1 << j) - 1 + (k >> (model.levels - j))
                    if (k >> (model.levels - j - 1)) & 1:
                        want[d, k] += log_1y[d, node] - special.log_sigmoid(-split[d, node])
                    else:
                        want[d, k] += log_y[d, node] - special.log_sigmoid(split[d, node])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


class TestDeepTrees:
    def test_depth_twelve_fits_in_memory(self):
        model = PolyaTreeModel.uniform(12, 1)
        x = np.random.default_rng(12).uniform(1e-9, 1.0, (1000, 1))
        tracemalloc.start()
        try:
            dens = model.log_density(x)
            cl, cr = model.branch_counts(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(dens, 0.0, atol=1e-12)
        want_l, want_r = descent_counts(model, x)
        np.testing.assert_array_equal(cl, want_l)
        np.testing.assert_array_equal(cr, want_r)
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("mode", ["dyadic", "per-node"])
    def test_branch_counts_memory_stays_linear_in_points(self, mode):
        # a fit-deep conjugate refresh: 14,000 x 8 points at L = 10, whose (L, N, D)
        # path-index gather took 18 MB; the (N, D) leaves alone are 0.9 MB
        model = random_model(np.random.default_rng(8), levels=10, dims=8, mode=mode)
        x = np.random.default_rng(9).uniform(1e-9, 1.0, (14_000, 8))
        tracemalloc.start()
        try:
            cl, cr = model.branch_counts(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        want_l, want_r = counts_of_leaves(model, model.route(x))
        assert cl.dtype == want_l.dtype and cr.dtype == want_r.dtype
        np.testing.assert_array_equal(cl, want_l)
        np.testing.assert_array_equal(cr, want_r)
        assert peak <= 4 * 2**20

    def test_serving_memory_stays_column_wise(self):
        # the (N, D) outputs alone are 6.1 MB; whole-array temporaries would double them
        model = random_model(np.random.default_rng(8), levels=10, dims=8, mode="dyadic")
        x = np.random.default_rng(9).uniform(1e-9, 1.0, (100_000, 8))
        for call, limit in [(lambda: model.sample(100_000, np.random.default_rng(1)), 12),
                            (lambda: model.route(x), 8)]:
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= limit * 2**20


class TestLogDensity:
    def test_flat_prior_is_lebesgue(self):
        rng = np.random.default_rng(0)
        for mode in ["dyadic", "per-level", "per-node"]:
            model = PolyaTreeModel.uniform(3, 2, mode)
            x = rng.uniform(1e-6, 1.0, (20, 2))
            np.testing.assert_allclose(model.log_density(x), 0.0, atol=1e-12)

    def test_one_level_hand_computed(self):
        # alpha = (2, 1): Y = 2/3, density 4/3 on (0, 1/2], 2/3 on (1/2, 1]
        model = PolyaTreeModel.uniform(1, 1)
        model.raw_left[...] = special.inv_softplus(2.0)
        out = model.log_density(np.array([[0.3], [0.7]]))
        np.testing.assert_allclose(out, [np.log(4.0 / 3.0), np.log(2.0 / 3.0)], atol=1e-12)

    def test_matches_naive_walk(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            model = random_model(rng)
            x = rng.uniform(1e-9, 1.0, (30, model.dims))
            np.testing.assert_allclose(
                model.log_density(x), naive_log_density(model, x), atol=1e-10
            )

    def test_leaf_masses_sum_to_one(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            model = random_model(rng)
            for d in range(model.dims):
                cells = model.intervals(d)
                mids = np.array([0.5 * (lo + hi) for lo, hi in cells])
                lens = np.array([hi - lo for lo, hi in cells])
                pts = np.full((mids.size, model.dims), 0.5)
                pts[:, d] = mids
                dens_other = model.log_density(np.full((1, model.dims), 0.5))
                dens = model.log_density(pts)
                # remove the other dimensions' shared contribution
                one_dim = dens - (dens_other - _dim_density(model, d, 0.5))
                mass = np.sum(np.exp(one_dim) * lens)
                assert mass == pytest.approx(1.0, abs=1e-10)

    def test_integrates_to_one_1d(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            model = random_model(rng, dims=1)
            cells = model.intervals(0)
            mids = np.array([[0.5 * (lo + hi)] for lo, hi in cells])
            lens = np.array([hi - lo for lo, hi in cells])
            total = float(np.exp(model.log_density(mids)) @ lens)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_sampled_mode_reproducible_and_normalized(self):
        model = random_model(np.random.default_rng(3), levels=3, dims=1)
        a = model.log_density(np.array([[0.3]]), y_mode="sampled", rng=np.random.default_rng(8))
        b = model.log_density(np.array([[0.3]]), y_mode="sampled", rng=np.random.default_rng(8))
        assert a == b
        rng = np.random.default_rng(77)
        cells = model.intervals(0)
        mids = np.array([[0.5 * (lo + hi)] for lo, hi in cells])
        lens = np.array([hi - lo for lo, hi in cells])
        dens = np.exp(model.log_density(mids, y_mode="sampled", rng=rng))
        assert float(dens @ lens) == pytest.approx(1.0, abs=1e-10)


def _dim_density(model, dim, value):
    """log density of one dimension at a scalar, by the naive walk."""
    al, ar = model.alphas()
    y = al / (al + ar)
    assign = model.leaf_of(dim, value)
    out = 0.0
    prefix = 0
    for j, bit in enumerate(assign.path):
        node = 2**j - 1 + prefix
        out += np.log(y[dim, node] if bit == 0 else 1.0 - y[dim, node])
        prefix = 2 * prefix + bit
    return out - np.log(assign.interval[1] - assign.interval[0])


class TestJointPosterior:
    def test_flat_prior_uniform_params_gives_zero(self):
        for mode in ["dyadic", "per-level", "per-node"]:
            model = PolyaTreeModel.uniform(3, 2, mode)
            x = np.random.default_rng(1).uniform(1e-6, 1.0, (25, 2))
            assert model.log_joint_posterior(x) == pytest.approx(0.0, abs=1e-12)

    def test_data_term_is_sum_of_log_densities_at_unit_alpha(self):
        rng = np.random.default_rng(6)
        model = PolyaTreeModel.uniform(3, 2, "per-node")
        model.split_raw[...] = rng.uniform(-1.0, 1.0, model.split_raw.shape)
        x = rng.uniform(1e-6, 1.0, (40, 2))
        # prior term vanishes at alpha = 1, so joint == sum of log densities
        joint = model.log_joint_posterior(x)
        assert joint == pytest.approx(model.log_density(x).sum(), abs=1e-12)

    def test_prior_term_closed_form(self):
        rng = np.random.default_rng(41)
        model = random_model(rng, levels=2, dims=2, mode="dyadic")
        al, ar = model.alphas()
        y = al / (al + ar)
        expected = np.sum((al - 1.0) * np.log(y) + (ar - 1.0) * np.log1p(-y))
        empty = np.empty((0, 2))
        assert model.log_joint_posterior(empty) == pytest.approx(expected, abs=1e-10)

    def test_joint_decomposes(self):
        rng = np.random.default_rng(50)
        model = random_model(rng, levels=3, dims=1, mode="per-level")
        x = rng.uniform(1e-6, 1.0, (30, 1))
        joint = model.log_joint_posterior(x)
        prior_only = model.log_joint_posterior(np.empty((0, 1)))
        assert joint == pytest.approx(model.log_density(x).sum() + prior_only, abs=1e-10)


class TestConjugateUpdate:
    def test_matches_bruteforce_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            model = random_model(rng, levels=int(rng.integers(1, 4)))
            x = rng.uniform(1e-9, 1.0, (int(rng.integers(1, 300)), model.dims))
            scale = float(rng.uniform(0.1, 3.0))
            updated = model.conjugate_update(x, prior_alphas=1.0, count_scale=scale)
            cl, cr = descent_counts(model, x)
            al, ar = updated.alphas()
            np.testing.assert_allclose(al, 1.0 + scale * cl, rtol=1e-13)
            np.testing.assert_allclose(ar, 1.0 + scale * cr, rtol=1e-13)

    def test_halved_uniform_counts(self):
        # 100 points on a dyadic L=2 tree: root sees all 100, children 50 each
        rng = np.random.default_rng(123)
        model = PolyaTreeModel.uniform(2, 1)
        x = rng.uniform(1e-9, 1.0, (100, 1))
        cl, cr = model.branch_counts(x)
        assert cl[0, 0] + cr[0, 0] == 100
        assert cl[0, 1] + cr[0, 1] == cl[0, 0]
        assert cl[0, 2] + cr[0, 2] == cr[0, 0]

    def test_original_untouched(self):
        model = PolyaTreeModel.uniform(2, 1)
        before = model.raw_left.copy()
        model.conjugate_update(np.array([[0.3], [0.8]]))
        np.testing.assert_array_equal(model.raw_left, before)

    @settings(max_examples=100, deadline=None)
    @given(trees_with_points(), st.floats(0.05, 5.0), st.floats(0.05, 5.0), st.booleans(),
           st.data())
    def test_alphas_are_prior_plus_scaled_counts(self, case, prior, scale, per_node, data):
        model, x = case
        if per_node:
            node_alphas = arrays(np.float64, (model.dims, model.n_nodes),
                                 elements=st.floats(0.05, 5.0))
            prior = (data.draw(node_alphas), data.draw(node_alphas))
        prior_left, prior_right = prior if per_node else (prior, prior)
        cl, cr = model.branch_counts(x)
        al, ar = model.conjugate_update(x, prior_alphas=prior, count_scale=scale).alphas()
        np.testing.assert_allclose(al, prior_left + scale * cl, rtol=1e-13)
        np.testing.assert_allclose(ar, prior_right + scale * cr, rtol=1e-13)

    def test_array_priors(self):
        model = PolyaTreeModel.uniform(1, 1)
        prior = (np.full((1, 1), 2.0), np.full((1, 1), 3.0))
        updated = model.conjugate_update(np.array([[0.2]]), prior_alphas=prior)
        al, ar = updated.alphas()
        assert al[0, 0] == pytest.approx(3.0, rel=1e-12)
        assert ar[0, 0] == pytest.approx(3.0, rel=1e-12)


def leaf_masses(model, y):
    """(D, K) leaf probabilities: the product of Y or 1 - Y down each leaf's path."""
    leaves = np.arange(model.n_leaves)
    mass = np.ones((model.dims, model.n_leaves))
    for j in range(model.levels):
        node = (1 << j) - 1 + (leaves >> (model.levels - j))
        right = (leaves >> (model.levels - j - 1)) & 1
        mass *= np.where(right == 1, 1.0 - y[:, node], y[:, node])
    return mass


def within_band(count, n, p, cells):
    """Binomial counts within Bernstein's bound of n p, for `cells` counts checked at once.

    |count - n p| <= t with t = L/3 + sqrt(L^2/9 + 2 L n p (1 - p)) and
    L = ln(2 cells / 1e-4): by Bernstein's inequality and a union bound, a
    correct sampler fails any of the cells with probability below 1e-4.
    For large counts t is about sqrt(2 L) sigma (4.8 sigma for 4 cells, 6
    for 3,072); unlike a normal band it also holds for leaves expected to
    be hit less than once.
    """
    L = np.log(2.0 * cells / 1e-4)
    return np.abs(count - n * p) <= L / 3.0 + np.sqrt(L * L / 9.0 + 2.0 * L * n * p * (1.0 - p))


def check_leaf_frequencies(levels, dims, mode, y_mode):
    """Sampled leaves follow the leaf masses; rows iid, dimensions independent."""
    rng = np.random.default_rng(31 + levels + dims)
    model = random_model(rng, levels=levels, dims=dims, mode=mode)
    if y_mode == "posterior-mean":
        # Y ~ 1e-200 at the root and its left child: the leftmost quarter
        # of leaves has mass exactly zero (in the oracle and in log space)
        model.raw_left[:, :2] = special.inv_softplus(1e-200)
        al, ar = model.alphas()
        y = al / (al + ar)
    else:
        # sample() draws Y first, so the same seed gives the same measure
        y = model.sample_branch_probabilities(np.random.default_rng(5))
    mass = leaf_masses(model, y)
    n = 100_000
    draws = model.sample(n, np.random.default_rng(5), y_mode=y_mode)
    assert draws.shape == (n, dims)
    assert np.all((draws > 0.0) & (draws <= 1.0))
    leaf = model.route(draws)
    counts = np.stack([np.bincount(leaf[:, d], minlength=model.n_leaves)
                       for d in range(dims)])
    assert np.all(counts[mass == 0.0] == 0)
    if y_mode == "posterior-mean":
        assert np.all(mass[:, : model.n_leaves // 4] == 0.0)
    assert np.all(within_band(counts, n, mass, mass.size))
    # rows are iid: in every dimension both halves of the rows fall at or
    # below the leaf whose cumulative mass is nearest 1/2 (short of 1) alike
    cumulative = np.cumsum(mass, axis=1)
    cut = np.argmin(np.abs(cumulative[:, :-1] - 0.5), axis=1)
    low = leaf <= cut
    p_low = cumulative[np.arange(dims), cut]
    halves = np.stack([low[: n // 2].sum(axis=0), low[n // 2:].sum(axis=0)])
    assert np.all(within_band(halves, n // 2, p_low, halves.size))
    if dims > 1:
        # and dimensions are independent
        both = low[:, 0] & low[:, 1]
        assert within_band(both.sum(), n, p_low[0] * p_low[1], 1)


class TestSampling:
    def test_leaf_frequencies_match_probabilities(self):
        for levels, dims, mode, y_mode in itertools.product(
                [2, 10], [1, 3], ["dyadic", "per-level", "per-node"],
                ["posterior-mean", "sampled"]):
            check_leaf_frequencies(levels, dims, mode, y_mode)

    def test_uniform_within_leaf(self):
        model = PolyaTreeModel.uniform(1, 1)
        model.raw_left[...] = special.inv_softplus(5.0)
        draws = model.sample(20000, np.random.default_rng(9))
        left = draws[draws <= 0.5]
        # conditional law within the leaf is uniform on (0, 1/2]
        hist, _ = np.histogram(left, bins=4, range=(0.0, 0.5))
        expected = left.size / 4.0
        assert np.abs(hist - expected).max() < 5.0 * np.sqrt(expected)

    def test_deterministic_given_seed(self):
        model = random_model(np.random.default_rng(7), levels=3, dims=2, mode="per-node")
        a = model.sample(50, np.random.default_rng(42))
        b = model.sample(50, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)
        c = model.sample(50, np.random.default_rng(43), y_mode="sampled")
        d = model.sample(50, np.random.default_rng(43), y_mode="sampled")
        np.testing.assert_array_equal(c, d)

    def test_tiny_alphas_in_sampled_mode(self):
        model = PolyaTreeModel.uniform(4, 3)
        model.raw_left[...] = special.inv_softplus(1e-3)
        model.raw_right[...] = special.inv_softplus(1e-3)
        rng = np.random.default_rng(17)
        y = model.sample_branch_probabilities(rng)
        assert y.shape == (3, model.n_nodes)
        assert np.all(np.isfinite(y)) and np.all((y > 0.0) & (y < 1.0))
        draws = model.sample(2000, rng, y_mode="sampled")
        assert np.all((draws > 0.0) & (draws <= 1.0))
        dens = model.log_density(draws, y_mode="sampled", rng=rng)
        assert np.all(np.isfinite(dens))

    def test_branch_probabilities_follow_alphas(self):
        model = PolyaTreeModel.uniform(2, 2)
        model.raw_left[...] = special.inv_softplus(np.array([[1.0, 4.0, 0.5], [9.0, 2.0, 3.0]]))
        rng = np.random.default_rng(18)
        y = np.stack([model.sample_branch_probabilities(rng) for _ in range(20000)])
        al, ar = model.alphas()
        np.testing.assert_allclose(y.mean(axis=0), al / (al + ar), atol=0.01)


class TestVarianceMap:
    def test_flat_prior_value(self):
        model = PolyaTreeModel.uniform(3, 2)
        np.testing.assert_allclose(model.variance_map(), 1.0 / 12.0, atol=1e-12)

    def test_concentrates_with_data(self):
        rng = np.random.default_rng(3)
        model = PolyaTreeModel.uniform(3, 1)
        x = rng.uniform(1e-9, 1.0, (5000, 1))
        updated = model.conjugate_update(x)
        assert np.all(updated.variance_map() < model.variance_map())

    def test_depth_selection(self):
        model = PolyaTreeModel.uniform(3, 1)
        model.raw_left[:, 0] = special.inv_softplus(50.0)
        model.raw_right[:, 0] = special.inv_softplus(50.0)
        assert model.variance_map(depth=1)[0] < model.variance_map(depth=3)[0]
        with pytest.raises(ValueError):
            model.variance_map(depth=4)


class TestGradients:
    def test_log_density_gradients_all_modes(self):
        rng = np.random.default_rng(8)
        for mode in ["dyadic", "per-level", "per-node"]:
            model = random_model(rng, levels=2, dims=2, mode=mode)
            x = rng.uniform(0.05, 0.95, (15, 2))
            arrays = list(model.parameter_arrays().values())
            keys = list(model.parameter_arrays().keys())

            def build(tape, leaves):
                pvars = dict(zip(keys, leaves))
                return model.log_density_vars(tape, pvars, x).sum()

            check_gradients(build, arrays, tol=1e-4)

    def test_joint_posterior_gradients(self):
        rng = np.random.default_rng(18)
        model = random_model(rng, levels=3, dims=1, mode="per-node")
        x = rng.uniform(0.05, 0.95, (25, 1))
        keys = list(model.parameter_arrays().keys())

        def build(tape, leaves):
            pvars = dict(zip(keys, leaves))
            return model.log_joint_posterior_vars(tape, pvars, x)

        check_gradients(build, list(model.parameter_arrays().values()), tol=1e-4)

    def test_smooth_mode_gives_coordinate_gradient(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, levels=2, dims=2, mode="dyadic")
        x = rng.uniform(0.1, 0.9, (6, 2))
        tape = ad.Tape()
        pvars = {k: tape.leaf(v) for k, v in model.parameter_arrays().items()}
        xv = tape.leaf(x)
        out = model.log_density_vars(tape, pvars, xv, smooth=True)
        ad.backward(out.sum())
        assert np.any(xv.grad != 0.0)
        # plain mode: piecewise constant in x, so no coordinate gradient
        tape = ad.Tape()
        pvars = {k: tape.leaf(v) for k, v in model.parameter_arrays().items()}
        xv = tape.leaf(x)
        ad.backward(model.log_density_vars(tape, pvars, xv).sum())
        np.testing.assert_array_equal(xv.grad, 0.0)

    def test_smooth_density_continuous_at_boundaries(self):
        model = random_model(np.random.default_rng(10), levels=3, dims=1, mode="dyadic")
        eps = 1e-9
        for boundary in [0.125, 0.25, 0.5, 0.875]:
            lo = model.log_density(np.array([[boundary - eps]]), smooth=True)
            hi = model.log_density(np.array([[boundary + eps]]), smooth=True)
            assert abs(lo - hi) < 1e-6


# -- the 14-node composite the tree's two tape nodes replaced, kept as their oracle

def composite_path_index(levels):
    """(levels, K) breadth-first node of each leaf per depth, plus n on a right branch."""
    leaves = np.arange(1 << levels)
    depth = np.arange(levels)[:, None]
    node = (1 << depth) - 1 + (leaves >> (levels - depth))
    right = (leaves >> (levels - depth - 1)) & 1
    return node + ((1 << levels) - 1) * right


def composite_path_sums(left, right, levels):
    both = ad.concat(left, right)                               # (D, 2n)
    width = both.shape[1]
    flat = np.arange(both.shape[0])[:, None, None] * width + composite_path_index(levels)
    return ad.take(both, flat).sum(axis=1)


def composite_leaf_table(model, tape, pvars, y_mode, rng):
    """((D, K) leaf log densities, (ln Y, ln(1-Y))) as primitive nodes."""
    if y_mode == "posterior-mean":
        al = ad.softplus(pvars["raw_left"])
        ar = ad.softplus(pvars["raw_right"])
        log_total = ad.log(al + ar)
        log_ys = ad.log(al) - log_total, ad.log(ar) - log_total
    else:
        y = model.sample_branch_probabilities(rng)
        log_ys = tape.leaf(np.log(y)), tape.leaf(np.log1p(-y))
    mass = composite_path_sums(*log_ys, model.levels)
    if model.partition_mode == "dyadic":
        log_nu = np.full((model.dims, model.n_leaves), -model.levels * np.log(2.0))
    else:
        split = pvars["split_raw"]
        if model.partition_mode == "per-level":
            per_node = (np.arange(model.dims)[:, None] * model.levels
                        + np.repeat(np.arange(model.levels), 1 << np.arange(model.levels)))
            split = ad.take(split, per_node)
        log_nu = composite_path_sums(ad.log_sigmoid(split), ad.log_sigmoid(-split),
                                     model.levels)
    return mass - log_nu, log_ys


def composite_log_density(model, tape, pvars, x, y_mode="posterior-mean", rng=None,
                          smooth=False):
    leaf = model.route(x.value if isinstance(x, ad.Var) else x)
    table, _ = composite_leaf_table(model, tape, pvars, y_mode, rng)
    cells = leaf + np.arange(model.dims) * model.n_leaves
    if smooth:
        return model._read_leaves(table, x, cells, smooth=True)
    return ad.take(table, cells).sum(axis=1)


def composite_log_joint_posterior(model, tape, pvars, x, y_mode="posterior-mean", rng=None):
    leaf = model.route(x.value if isinstance(x, ad.Var) else x)
    table, (log_y, log_1y) = composite_leaf_table(model, tape, pvars, y_mode, rng)
    al = ad.softplus(pvars["raw_left"])
    ar = ad.softplus(pvars["raw_right"])
    prior = ((al - 1.0) * log_y + (ar - 1.0) * log_1y).sum()
    if leaf.shape[0] == 0:
        return prior
    flat = leaf + np.arange(model.dims) * model.n_leaves
    return ad.take(table, flat).sum(axis=1).sum() + prior


def tree_on_tape(fn, model, x, weights, tape_cls=ad.Tape):
    """(value, parameter gradients, point gradient, nodes recorded) of one tree call."""
    tape = tape_cls()
    pvars = {k: tape.leaf(v) for k, v in model.parameter_arrays().items()}
    xv = tape.leaf(x)
    before = len(tape)
    out = fn(tape, pvars, xv)
    nodes = len(tape) - before
    if not tape.records:
        return out.value, None, None, nodes
    ad.backward((out * weights).sum() if out.shape else out)
    return out.value, {k: v.grad for k, v in pvars.items()}, xv.grad, nodes


def extreme_model(levels, dims, mode, rng, y_mode):
    """A random tree; in posterior-mean mode some alphas sit near 1e-300 and at 1e6."""
    model = random_model(rng, levels=levels, dims=dims, mode=mode)
    if y_mode == "posterior-mean":
        # (a Beta draw at alpha 1e-300 rounds Y to 0, so sampled mode keeps moderate alphas)
        model.raw_left[:, 0] = special.inv_softplus(1e-300)
        model.raw_right[:, -1] = special.inv_softplus(1e-299)
        model.raw_left[:, -1] = 1e6
        model.raw_right[:, model.n_nodes // 2] = 1e6
    return model


class TestTreeNodes:
    """The tree density is two tape nodes, equal to the primitive composite it replaced."""

    @pytest.mark.parametrize("mode", ["dyadic", "per-level", "per-node"])
    @pytest.mark.parametrize("y_mode", ["posterior-mean", "sampled"])
    def test_matches_composite(self, mode, y_mode):
        for levels, dims, smooth, n in itertools.product([1, 3, 10], [1, 2, 8],
                                                         [False, True], [0, 300]):
            rng = np.random.default_rng(levels * 100 + dims * 10 + smooth)
            model = extreme_model(levels, dims, mode, rng, y_mode)
            x = rng.uniform(1e-9, 1.0, (n, dims))
            weights = rng.uniform(0.5, 1.5, n)
            calls = [(model.log_density_vars, composite_log_density,
                      {"y_mode": y_mode, "smooth": smooth})]
            if not smooth:
                calls.append((model.log_joint_posterior_vars, composite_log_joint_posterior,
                              {"y_mode": y_mode}))
            for node, oracle, kwargs in calls:
                got = tree_on_tape(
                    lambda t, p, xv: node(t, p, xv, rng=np.random.default_rng(5), **kwargs),
                    model, x, weights)
                want = tree_on_tape(
                    lambda t, p, xv: oracle(model, t, p, xv, rng=np.random.default_rng(5),
                                            **kwargs),
                    model, x, weights)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[2].tobytes() == want[2].tobytes()
                for key, grad in got[1].items():
                    ref = want[1][key]
                    assert grad.shape == ref.shape
                    np.testing.assert_allclose(grad, ref, rtol=1e-13,
                                               atol=1e-13 * np.abs(ref).max(), err_msg=key)

    @pytest.mark.parametrize("mode", ["dyadic", "per-level", "per-node"])
    def test_eval_tape_values_match_composite(self, mode):
        rng = np.random.default_rng(3)
        model = extreme_model(10, 8, mode, rng, "posterior-mean")
        x = rng.uniform(1e-9, 1.0, (500, 8))
        got = tree_on_tape(model.log_density_vars, model, x, None, ad.EvalTape)
        want = tree_on_tape(lambda t, p, xv: composite_log_density(model, t, p, xv),
                            model, x, None, ad.EvalTape)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[0].tobytes() == model.log_density(x).tobytes()

    @pytest.mark.parametrize("mode", ["dyadic", "per-level", "per-node"])
    def test_two_nodes_per_density(self, mode):
        # a sampled dyadic table has no parents: it and its read are tape constants
        model = random_model(np.random.default_rng(1), levels=3, dims=2, mode=mode)
        x = np.random.default_rng(2).uniform(1e-9, 1.0, (50, 2))
        for y_mode in ["posterior-mean", "sampled"]:
            constant = mode == "dyadic" and y_mode == "sampled"
            run = tree_on_tape(
                lambda t, p, xv: model.log_density_vars(t, p, xv, y_mode=y_mode,
                                                        rng=np.random.default_rng(0)),
                model, x, np.ones(50))
            assert run[3] == (0 if constant else 2)
            tape = ad.Tape()
            pvars = {k: tape.leaf(v) for k, v in model.parameter_arrays().items()}
            table = model.leaf_log_densities_vars(tape, pvars, y_mode, np.random.default_rng(0))
            assert (table.index is None) == constant
        oracle = tree_on_tape(lambda t, p, xv: composite_log_density(model, t, p, xv),
                              model, x, np.ones(50))
        assert oracle[3] == {"dyadic": 14, "per-node": 20, "per-level": 21}[mode]

    @pytest.mark.parametrize("mode", ["dyadic", "per-level", "per-node"])
    @pytest.mark.parametrize("smooth", [False, True])
    def test_constant_alphas_record_no_alpha_parents(self, mode, smooth):
        # conjugate training passes the raw alphas as plain arrays: same values and
        # split gradients, no alpha closed forms, and a dyadic table that is a constant
        model = extreme_model(3, 2, mode, np.random.default_rng(6), "posterior-mean")
        x = np.random.default_rng(7).uniform(1e-9, 1.0, (40, 2))
        weights = np.random.default_rng(8).uniform(0.5, 1.5, 40)
        want = tree_on_tape(lambda t, p, xv: model.log_density_vars(t, p, xv, smooth=smooth),
                            model, x, weights)
        tape = ad.Tape()
        alphas = {"raw_left": model.raw_left, "raw_right": model.raw_right}
        pvars = {k: v if k in alphas else tape.leaf(v)
                 for k, v in model.parameter_arrays().items()}
        xv = tape.leaf(x)
        table = model.leaf_log_densities_vars(tape, pvars)
        if mode == "dyadic":
            assert table.index is None
        else:
            assert tape._parents[table.index] == (pvars["split_raw"].index,)
        out = model.log_density_vars(tape, pvars, xv, smooth=smooth)
        ad.backward((out * weights).sum())
        assert out.value.tobytes() == want[0].tobytes()
        assert xv.grad.tobytes() == want[2].tobytes()
        if mode != "dyadic":
            assert pvars["split_raw"].grad.tobytes() == want[1]["split_raw"].tobytes()

    @pytest.mark.parametrize("tape_cls", [ad.Tape, ad.EvalTape])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e4, 1.7e308])
    def test_non_finite_parameters_raise_on_both_tapes(self, tape_cls, bad):
        # -1e4 rounds alpha to 0 (ln 0); 1.7e308 on both sides overflows alpha_l + alpha_r
        model = random_model(np.random.default_rng(4), levels=3, dims=2, mode="per-node")
        model.raw_left[1, 2] = bad
        model.raw_right[1, 2] = bad if bad > 0 else 1.0
        x = np.random.default_rng(5).uniform(1e-9, 1.0, (20, 2))
        messages = []
        for fn in (model.log_density_vars,
                   lambda t, p, xv: composite_log_density(model, t, p, xv)):
            with np.errstate(over="ignore"), pytest.raises(ad.NumericError) as err:
                tree_on_tape(fn, model, x, np.ones(20), tape_cls)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


class TestBranchCountDtype:
    @pytest.mark.parametrize("mode", ["dyadic", "per-level", "per-node"])
    def test_counts_are_int64_and_match_descent(self, mode):
        model = random_model(np.random.default_rng(11), levels=4, dims=3, mode=mode)
        x = np.random.default_rng(12).uniform(1e-9, 1.0, (500, 3))
        cl, cr = model.branch_counts(x)
        assert cl.dtype == cr.dtype == np.int64
        want_l, want_r = descent_counts(model, x)
        np.testing.assert_array_equal(cl, want_l)
        np.testing.assert_array_equal(cr, want_r)
