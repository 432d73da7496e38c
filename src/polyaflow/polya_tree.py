"""Tree-structured base density on (0,1]^D with Beta-distributed branch splits.

Each dimension carries an independent depth-L binary tree.  Every internal
node holds a Beta(alpha_left, alpha_right) posterior over the probability
mass routed to its left child; partitions are dyadic by default or use
learnable split proportions (one per level, or one per node).  Intervals
are half-open on the left, (lower, upper], and a point sitting exactly on
a split belongs to the left child.

Internal nodes are indexed breadth-first: the root is 0 and the node
reached by branch bits e_1..e_t sits at index 2^t - 1 + int(e_1..e_t as
binary).  A depth-L tree has 2^L - 1 internal nodes and K = 2^L leaves
per dimension.

Two level-by-level sums carry everything between nodes and leaves.
`_sum_down` adds per-node values top-down into (D, K) per-leaf path
sums: leaf log masses (ln Y or ln(1-Y) per node) and log leaf lengths
(ln beta or ln(1-beta)).  `_sum_up` adds (D, K) leaf values bottom-up
into per-node left/right subtree sums: branch counts and the tree's
gradients.  On a tape the tree density is two nodes: a
(D, K) leaf table whose vjp is a `_sum_up` of its gradient followed by
the Beta-Binomial closed forms (Lavine 1992), and a `read_cells` node
whose vjp is one weighted bincount.  Memory is O(N D + D K).  The cell
helpers `route_cells`, `read_cells` and `sample_cells` also serve the
histogram of `baselines`.

Split positions are computed in one place, `leaf_boundaries`.  Routing sends a point to the first leaf
whose upper boundary is >= x, which is exactly the half-open cell a
root-to-leaf descent reaches: learned partitions use `route_cells`, and
dyadic trees compute ceil(x 2^L) - 1, which gives the same leaf bit for
bit.  Sampling reads the leaf masses the density uses.

Parameters are stored as unconstrained floats: alphas through a softplus,
split proportions through a sigmoid.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from . import special
from .distributions import sample_beta

PARTITION_MODES = ("dyadic", "per-level", "per-node")

_UNIT_RAW = float(special.inv_softplus(1.0))   # raw value giving alpha = 1


@lru_cache(maxsize=None)
def _dyadic_boundaries(levels, dims):
    """Read-only (dims, K+1) leaf boundaries of the dyadic partition."""
    bounds = intervals_from_splits(levels, np.full((dims, (1 << levels) - 1), 0.5), "per-node")
    bounds.setflags(write=False)
    return bounds


def _level_of_node(levels):
    """(2^levels - 1,) depth of each breadth-first internal node."""
    return np.repeat(np.arange(levels), 1 << np.arange(levels))


def _sum_down(left, right, levels):
    """(D, K) sums over each leaf's path of the (D, n) left[node] or right[node] values.

    Built top-down one level at a time, so each leaf adds its terms in depth order.
    """
    sums = np.concatenate([left[:, :1], right[:, :1]], axis=1)
    for depth in range(1, levels):
        level = slice((1 << depth) - 1, (2 << depth) - 1)
        below = np.empty((sums.shape[0], 2 * sums.shape[1]))
        np.add(sums, left[:, level], out=below[:, 0::2])
        np.add(sums, right[:, level], out=below[:, 1::2])
        sums = below
    return sums


def _sum_up(leaf_values, levels):
    """Per-node left/right subtree sums, two (D, n) arrays, of (D, K) leaf values.

    A level's left and right sums are the even and odd entries of the level
    below, whose pairwise sums it passes up; the dtype is kept.
    """
    dims, n = leaf_values.shape[0], (1 << levels) - 1
    left = np.empty((dims, n), dtype=leaf_values.dtype)
    right = np.empty_like(left)
    for depth in reversed(range(levels)):
        level = slice((1 << depth) - 1, (2 << depth) - 1)
        left[:, level], right[:, level] = leaf_values[:, 0::2], leaf_values[:, 1::2]
        leaf_values = left[:, level] + right[:, level]
    return left, right


def route_cells(column, bounds, out):
    """Write into `out` the cell k with bounds[k] < x <= bounds[k+1] of each x in `column`."""
    out[...] = np.searchsorted(bounds, column, side="left")
    out -= 1


def read_cells(table, flat):
    """(N,) Var: row sums of Var `table` at (N, D) flat indices; the vjp is one bincount."""
    shape, size, dims = table.value.shape, table.value.size, flat.shape[1]
    value = table.value.reshape(-1)[flat].sum(axis=1)
    return table.tape.record(value, (table.index,), lambda g: (np.bincount(
        flat.reshape(-1), np.repeat(g, dims), minlength=size).reshape(shape),))


def sample_cells(mass, bounds, n, rng):
    """(n, D) iid draws with independent dimensions, cells weighted by the (D, K) `mass`.

    Per dimension one multinomial split of n, shuffled into row order; each
    point is then uniform on its cell (bounds[d, k], bounds[d, k+1]].
    """
    cell_ids = np.arange(mass.shape[1])
    out = np.empty((n, mass.shape[0]))
    for d, row in enumerate(mass):
        cell = np.repeat(cell_ids, rng.multinomial(n, row / row.sum()))
        rng.shuffle(cell)
        lo, hi = bounds[d, cell], bounds[d, cell + 1]
        out[:, d] = hi - (hi - lo) * rng.random(n)
    return out


def _mean_log_ys(alpha_left, alpha_right):
    """(ln Y, ln(1-Y)) at the posterior mean Y = alpha_left / (alpha_left + alpha_right).

    An alpha that underflowed to 0 raises `ad.log`'s domain error; callers
    check the results for finiteness.
    """
    if (alpha_left <= 0.0).any() or (alpha_right <= 0.0).any():
        raise ad.NumericError("log requires strictly positive input")
    with np.errstate(all="ignore"):
        log_total = np.log(alpha_left + alpha_right)
        return np.log(alpha_left) - log_total, np.log(alpha_right) - log_total


def check_unit_cube(x):
    """Raise ValueError naming the first entry of (N, D) `x` outside (0, 1].

    NaN and infinities fail the test, so they are reported too.
    """
    inside = (x > 0.0) & (x <= 1.0)
    if not inside.all():
        row, col = np.argwhere(~inside)[0]
        raise ValueError(
            f"point {row}, dimension {col} is {x[row, col]!r}: "
            "points must lie in the half-open unit cube (0, 1]^D"
        )


def param_count(levels, dims, partition_mode="dyadic"):
    """Number of scalar parameters of a model with this structure."""
    if partition_mode not in PARTITION_MODES:
        raise ValueError(f"unknown partition mode: {partition_mode}")
    n = (1 << levels) - 1
    count = 2 * n * dims
    if partition_mode == "per-level":
        count += levels * dims
    elif partition_mode == "per-node":
        count += n * dims
    return count


def intervals_from_splits(levels, betas, partition_mode="dyadic"):
    """Leaf boundaries (..., K+1) from split proportions.

    `betas` is ignored for dyadic trees, per-level expects (..., levels),
    and per-node expects (..., 2^levels - 1) in breadth-first node order;
    leading axes (one row per dimension, say) are kept.
    """
    if partition_mode == "dyadic":
        props = np.full((1 << levels) - 1, 0.5)
    elif partition_mode == "per-level":
        props = np.asarray(betas, dtype=np.float64)[..., _level_of_node(levels)]
    elif partition_mode == "per-node":
        props = np.asarray(betas, dtype=np.float64)
    else:
        raise ValueError(f"unknown partition mode: {partition_mode}")
    bounds = np.zeros(props.shape[:-1] + (2,))
    bounds[..., 1] = 1.0
    for j in range(levels):
        lows, highs = bounds[..., :-1], bounds[..., 1:]
        mids = lows + (highs - lows) * props[..., (1 << j) - 1: (2 << j) - 1]
        split = np.empty(props.shape[:-1] + (2 * lows.shape[-1] + 1,))
        split[..., 0::2] = bounds
        split[..., 1::2] = mids
        bounds = split
    return bounds


@dataclass(frozen=True)
class LeafAssignment:
    """Where a scalar lands in one dimension's partition."""

    path: tuple          # branch bits e_1..e_L (0 = left)
    leaf_index: int      # int(path) in breadth-first leaf order
    interval: tuple      # (lower, upper], the leaf's cell


@dataclass
class PolyaTreeModel:
    """Per-dimension Beta-branch trees; see the module docstring for layout.

    raw_left/raw_right are (dims, 2^levels - 1) unconstrained floats with
    alpha = softplus(raw).  split_raw is None for dyadic partitions,
    (dims, levels) for per-level, (dims, 2^levels - 1) for per-node, with
    split proportion beta = sigmoid(split_raw).
    """

    levels: int
    dims: int
    raw_left: np.ndarray
    raw_right: np.ndarray
    partition_mode: str = "dyadic"
    split_raw: np.ndarray = None

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.dims < 1:
            raise ValueError("dims must be >= 1")
        if self.partition_mode not in PARTITION_MODES:
            raise ValueError(f"unknown partition mode: {self.partition_mode}")
        n = self.n_nodes
        expect = (self.dims, n)
        self.raw_left = np.asarray(self.raw_left, dtype=np.float64)
        self.raw_right = np.asarray(self.raw_right, dtype=np.float64)
        if self.raw_left.shape != expect or self.raw_right.shape != expect:
            raise ValueError(f"raw alpha arrays must have shape {expect}")
        if self.partition_mode == "dyadic":
            if self.split_raw is not None:
                raise ValueError("dyadic trees take no split parameters")
        else:
            want = (self.dims, self.levels if self.partition_mode == "per-level" else n)
            self.split_raw = np.asarray(self.split_raw, dtype=np.float64)
            if self.split_raw.shape != want:
                raise ValueError(f"split_raw must have shape {want}")

    # -- construction ---------------------------------------------------

    @classmethod
    def uniform(cls, levels, dims, partition_mode="dyadic"):
        """The flat prior: every alpha = 1, every split proportion 1/2."""
        n = (1 << levels) - 1
        raw = np.full((dims, n), _UNIT_RAW)
        split = None
        if partition_mode == "per-level":
            split = np.zeros((dims, levels))
        elif partition_mode == "per-node":
            split = np.zeros((dims, n))
        return cls(levels, dims, raw.copy(), raw.copy(), partition_mode, split)

    # -- basic views ----------------------------------------------------

    @property
    def n_nodes(self):
        return (1 << self.levels) - 1

    @property
    def n_leaves(self):
        return 1 << self.levels

    def alphas(self):
        """(alpha_left, alpha_right), each (dims, n_nodes)."""
        return special.softplus(self.raw_left), special.softplus(self.raw_right)

    def split_betas(self):
        """Split proportions as a dense (dims, n_nodes) array, any mode."""
        if self.partition_mode == "dyadic":
            return np.full((self.dims, self.n_nodes), 0.5)
        props = special.sigmoid(self.split_raw)
        if self.partition_mode == "per-level":
            return props[:, _level_of_node(self.levels)]
        return props

    def parameter_arrays(self):
        """Live references to the trainable arrays, keyed by name, the raw alphas last."""
        params = {} if self.split_raw is None else {"split_raw": self.split_raw}
        params.update(raw_left=self.raw_left, raw_right=self.raw_right)
        return params

    def param_count(self):
        return param_count(self.levels, self.dims, self.partition_mode)

    def intervals(self, dim):
        """List of (lower, upper] leaf intervals for one dimension."""
        if not 0 <= dim < self.dims:
            raise ValueError("dim out of range")
        bounds = self.leaf_boundaries()[dim]
        return [(float(a), float(b)) for a, b in zip(bounds[:-1], bounds[1:])]

    def leaf_boundaries(self):
        """(dims, K+1) array of leaf boundaries per dimension.

        The only place split positions are computed: learned routing,
        leaf lookup and sampling read their cells from these boundaries.
        Dyadic boundaries are cached per (levels, dims) and read-only.
        """
        if self.partition_mode == "dyadic":
            return _dyadic_boundaries(self.levels, self.dims)
        return intervals_from_splits(self.levels, self.split_betas(), "per-node")

    # -- routing ----------------------------------------------------------

    def _validate_points(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.dims:
            raise ValueError(f"points must be (N, {self.dims})")
        check_unit_cube(x)
        return x

    def _route_column(self, column, bounds, out):
        """Write the leaf of each coordinate of one dimension, all in (0, 1], into `out`.

        A point lands in the first leaf whose upper boundary is >= x, which
        is the half-open (lower, upper] cell a root-to-leaf descent reaches,
        zero-width leaves included.  Learned partitions pass their (K+1,)
        `bounds` to `route_cells`.  Dyadic boundaries are exactly k / 2^L and x * 2^L
        is exact (a power-of-two scaling), so there the leaf is
        ceil(x * 2^L) - 1, the binary search's answer bit for bit.
        """
        if self.partition_mode == "dyadic":
            scaled = column * float(self.n_leaves)
            np.ceil(scaled, out=scaled)
            np.subtract(scaled, 1.0, out=out, casting="unsafe")
        else:
            route_cells(column, bounds, out)

    def route(self, x):
        """Leaf index per point and dimension: (N, D) ints in [0, 2^L)."""
        x = self._validate_points(x)
        bounds = self.leaf_boundaries()
        leaf = np.empty(x.shape, dtype=np.int64)
        for d in range(self.dims):
            self._route_column(x[:, d], bounds[d], leaf[:, d])
        return leaf

    def _cells(self, x):
        """(N, D) flat indices, into a (D, K) leaf table, of the leaves `x` reaches."""
        cells = self.route(x.value if isinstance(x, ad.Var) else x)
        cells += np.arange(self.dims) * self.n_leaves
        return cells

    def leaf_of(self, dim, x):
        """Full assignment (path bits, leaf index, interval) of scalar x in one dimension."""
        if not 0 <= dim < self.dims:
            raise ValueError("dim out of range")
        x = float(x)
        if not 0.0 < x <= 1.0:
            raise ValueError("x must lie in (0, 1]")
        bounds = self.leaf_boundaries()[dim]
        out = np.empty(1, dtype=np.int64)
        self._route_column(np.array([x]), bounds, out)
        leaf = int(out[0])
        path = tuple((leaf >> (self.levels - 1 - j)) & 1 for j in range(self.levels))
        return LeafAssignment(path, leaf, (float(bounds[leaf]), float(bounds[leaf + 1])))

    # -- densities on the tape -------------------------------------------

    def _sampled_log_ys(self, y_mode, rng):
        """(ln Y, ln(1-Y)) of one Beta draw in sampled mode; None in posterior-mean mode."""
        if y_mode == "posterior-mean":
            return None
        if y_mode == "sampled":
            if rng is None:
                raise ValueError("sampled mode needs an rng")
            y = self.sample_branch_probabilities(rng)
            return np.log(y), np.log1p(-y)
        raise ValueError(f"unknown y_mode: {y_mode}")

    def _leaf_table(self, tape, pvars, log_ys=None, seen=None):
        """(D, K) Var of leaf log densities, recorded as one node.

        Its value is `_sum_down` of (ln Y, ln(1-Y)) minus that of the log split
        proportions; `log_ys` is a sampled-mode draw, or None for the posterior
        mean, whose raw alphas are then parents unless they are constants
        (plain arrays, as in conjugate training).  Given a list `seen`, the
        posterior-mean alphas (alpha_left, alpha_right) are appended to it.
        A table with no parents (dyadic, constant or sampled Y) is a tape
        constant, so neither it nor its read runs a vjp.  The vjp sums g up the tree
        into per-node cL, cR: d/d raw_left = (cL/al - (cL+cR)/(al+ar))
        sigmoid(raw_left), likewise raw_right, and d/d s = cR sigmoid(s) -
        cL sigmoid(-s) per node (summed per level for per-level splits).
        """
        levels = self.levels
        per_level = self.partition_mode == "per-level"
        parents, mean, split = [], None, None
        if log_ys is None:
            raw_l, raw_r = pvars["raw_left"], pvars["raw_right"]
            if isinstance(raw_l, ad.Var):
                parents += [raw_l.index, raw_r.index]
                raw_l, raw_r = raw_l.value, raw_r.value
            al, ar = special.softplus(raw_l), special.softplus(raw_r)
            mean = (raw_l, raw_r, al, ar) if parents else None
            log_ys = _mean_log_ys(al, ar)
            if seen is not None:
                seen += [al, ar]
        table = _sum_down(*log_ys, levels)
        if self.partition_mode == "dyadic":
            table -= -levels * np.log(2.0)
        else:
            parents.append(pvars["split_raw"].index)
            split = pvars["split_raw"].value
            if per_level:
                split = split[:, _level_of_node(levels)]
            table -= _sum_down(special.log_sigmoid(split), special.log_sigmoid(-split), levels)

        def vjp(g):
            cl, cr = _sum_up(g, levels)
            grads = []
            if mean is not None:
                raw_l, raw_r, al, ar = mean
                both = (cl + cr) / (al + ar)
                grads += [(cl / al - both) * special.sigmoid(raw_l),
                          (cr / ar - both) * special.sigmoid(raw_r)]
            if split is not None:
                grad = cr * special.sigmoid(split) - cl * special.sigmoid(-split)
                if per_level:
                    grad = np.add.reduceat(grad, (1 << np.arange(levels)) - 1, axis=1)
                grads.append(grad)
            return grads

        return tape.record(table, tuple(parents), vjp)

    def leaf_log_densities_vars(self, tape, pvars, y_mode="posterior-mean", rng=None):
        """(D, K) Var: log density of each leaf cell (mass minus log length)."""
        return self._leaf_table(tape, pvars, self._sampled_log_ys(y_mode, rng))

    def log_density_vars(self, tape, pvars, x, y_mode="posterior-mean", rng=None,
                         smooth=False, seen=None):
        """Per-point log density as an (N,) Var.

        `x` may be a plain array or a Var (e.g. the output of a flow); in
        the latter case `smooth=True` additionally gives the coordinates a
        gradient by interpolating leaf log densities between leaf centers.
        Given a list `seen`, the (N, D) flat cells the points reached and,
        in posterior-mean mode, the alphas of the table are appended to it,
        the inputs of `refresh_alphas`.
        """
        cells = self._cells(x)
        if seen is not None:
            seen.append(cells)
        table = self._leaf_table(tape, pvars, self._sampled_log_ys(y_mode, rng), seen)
        return self._read_leaves(table, x, cells, smooth)

    def _read_leaves(self, table, x, cells, smooth):
        """(N,) Var: the (D, K) leaf log densities `table` read at (N, D) flat `cells`."""
        K = self.n_leaves
        if not smooth:
            return read_cells(table, cells)

        leaf = cells - np.arange(self.dims) * K
        x_values = np.asarray(x.value if isinstance(x, ad.Var) else x,
                              dtype=np.float64).reshape(leaf.shape)
        bounds = self.leaf_boundaries()
        centers = 0.5 * (bounds[:, :-1] + bounds[:, 1:])      # (D, K)
        c_here = centers[np.arange(self.dims)[None, :], leaf]
        upper_side = x_values >= c_here
        lo_leaf = np.where(upper_side, leaf, np.maximum(leaf - 1, 0))
        hi_leaf = np.where(upper_side, np.minimum(leaf + 1, K - 1), leaf)
        d_idx = np.broadcast_to(np.arange(self.dims), leaf.shape)
        c_lo = centers[d_idx, lo_leaf]
        c_hi = centers[d_idx, hi_leaf]
        gap = c_hi - c_lo
        inv_gap = np.where(gap > 0.0, 1.0 / np.where(gap > 0.0, gap, 1.0), 0.0)
        g_lo = ad.take(table, d_idx * K + lo_leaf)
        g_hi = ad.take(table, d_idx * K + hi_leaf)
        if isinstance(x, ad.Var):
            w = (x - c_lo) * inv_gap
        else:
            w = (x_values - c_lo) * inv_gap
        return (g_lo + w * (g_hi - g_lo)).sum(axis=1)

    def log_density(self, x, y_mode="posterior-mean", rng=None, smooth=False):
        """Numpy wrapper around log_density_vars; returns (N,)."""
        return ad.evaluate(self.log_density_vars, self.parameter_arrays(),
                           x, y_mode, rng, smooth)

    def log_joint_posterior_vars(self, tape, pvars, x, y_mode="posterior-mean", rng=None):
        """Scalar Var: data term plus Beta prior term (flat split prior adds zero).

        The data term is the sum of per-point log densities; the prior
        term is sum over nodes of (alpha_l - 1) ln Y + (alpha_r - 1) ln(1 - Y).
        With an empty batch only the prior term remains.  In sampled mode
        both terms use the same draw of Y.
        """
        cells = self._cells(x)
        draw = self._sampled_log_ys(y_mode, rng)
        al = ad.softplus(pvars["raw_left"])
        ar = ad.softplus(pvars["raw_right"])
        if draw is None:
            log_total = ad.log(al + ar)
            log_y, log_1y = ad.log(al) - log_total, ad.log(ar) - log_total
        else:
            log_y, log_1y = draw
        prior = ((al - 1.0) * log_y + (ar - 1.0) * log_1y).sum()
        if cells.shape[0] == 0:
            return prior
        table = self._leaf_table(tape, pvars, draw)
        return self._read_leaves(table, x, cells, smooth=False).sum() + prior

    def log_joint_posterior(self, x, y_mode="posterior-mean", rng=None):
        return float(ad.evaluate(self.log_joint_posterior_vars, self.parameter_arrays(),
                                 x, y_mode, rng))

    # -- conjugate updates, sampling, uncertainty -------------------------

    def branch_counts(self, x):
        """Left/right routing counts per node: two (D, n_nodes) int arrays."""
        return self._cell_counts(self._cells(x))

    def _cell_counts(self, cells):
        """Left/right counts per node of (N, D) flat cells: one bincount gives the
        (D, K) leaf counts, and `_sum_up` sums them up the tree."""
        counts = np.bincount(cells.reshape(-1), minlength=self.dims * self.n_leaves)
        return _sum_up(counts.reshape(self.dims, self.n_leaves), self.levels)

    def _conjugate_raws(self, cells, prior_alphas, count_scale):
        """Raw (left, right) alphas of prior + scale * counts in the (N, D) flat `cells`."""
        if np.isscalar(prior_alphas):
            prior_alphas = (float(prior_alphas),) * 2
        return [special.inv_softplus(prior + count_scale * counts)
                for prior, counts in zip(prior_alphas, self._cell_counts(cells))]

    def conjugate_update(self, x, prior_alphas=1.0, count_scale=1.0):
        """Closed-form Beta-Binomial refresh: alpha = prior + scale * counts.

        Returns a new model; the receiver is left untouched.  `prior_alphas`
        is a scalar or a pair of (D, n_nodes) arrays for the left/right
        prior pseudo-counts.
        """
        raw_left, raw_right = self._conjugate_raws(self._cells(x), prior_alphas, count_scale)
        return replace(self, raw_left=raw_left, raw_right=raw_right,
                       split_raw=None if self.split_raw is None else self.split_raw.copy())

    def refresh_alphas(self, cells, prior_alphas, count_scale):
        """`conjugate_update` in place, from cells a density already routed.

        `cells` are the (N, D) flat cells `log_density_vars` appended to its
        `seen` list; the raw alphas are overwritten, not rebound, so arrays
        that share their memory (an estimator's `theta`) see the refresh.
        """
        self.raw_left[...], self.raw_right[...] = self._conjugate_raws(
            cells, prior_alphas, count_scale)

    def sample_branch_probabilities(self, rng):
        """One Beta draw per node: a (D, n_nodes) random branching measure."""
        return sample_beta(*self.alphas(), rng)

    def sample(self, n, rng, y_mode="posterior-mean"):
        """Draw n points with `sample_cells` from the leaf masses the density uses."""
        log_ys = self._sampled_log_ys(y_mode, rng)
        log_mass = _sum_down(*(log_ys or _mean_log_ys(*self.alphas())), self.levels)
        ad.check_finite(log_mass)
        return sample_cells(np.exp(log_mass), self.leaf_boundaries(), n, rng)

    def variance_map(self, depth=None):
        """Per-dimension mean Beta variance over the deepest internal nodes.

        A small value means the splits at the finest level are confidently
        pinned down; `depth` (1-based, default the deepest level) selects
        which level to average over.
        """
        depth = self.levels if depth is None else depth
        if not 1 <= depth <= self.levels:
            raise ValueError("depth out of range")
        start = (1 << (depth - 1)) - 1
        stop = (1 << depth) - 1
        al, ar = self.alphas()
        al = al[:, start:stop]
        ar = ar[:, start:stop]
        total = al + ar
        var = al * ar / (total * total * (total + 1.0))
        return var.mean(axis=1)
