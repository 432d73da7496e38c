"""Base-density baselines: a learnable per-dimension histogram and fixed priors.

The histogram factorizes over dimensions.  Each dimension holds K cells
with free widths (softplus of raw parameters, accumulated from zero) and
free masses (softmax of raw logits); cells are half-open on the left,
matching the tree convention, so a point on an edge belongs to the cell
to its left.  When used as the base of a sigmoid-terminated flow the unit
cube is stretched onto the histogram's own support (0, total_width] with
the corresponding log-Jacobian.
On a tape it reads its (K, D) cell log-density table with the Pólya
tree's helpers, `route_cells` and `read_cells`; it samples with `sample_cells`.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import special
from .polya_tree import check_unit_cube, read_cells, route_cells, sample_cells


@dataclass
class LearnableHistogram:
    """Product of per-dimension histograms with trainable widths and masses."""

    bins: int
    dims: int
    raw_widths: np.ndarray   # (K, D), width_k = softplus(raw)
    raw_logits: np.ndarray   # (K, D), masses by per-dimension softmax

    def __post_init__(self):
        if self.bins < 1 or self.dims < 1:
            raise ValueError("bins and dims must be >= 1")
        expect = (self.bins, self.dims)
        self.raw_widths = np.asarray(self.raw_widths, dtype=np.float64)
        self.raw_logits = np.asarray(self.raw_logits, dtype=np.float64)
        if self.raw_widths.shape != expect or self.raw_logits.shape != expect:
            raise ValueError(f"histogram parameter arrays must have shape {expect}")
        empty = np.argwhere(self.widths() == 0.0)
        if empty.size:
            k, d = empty[0]
            raise ValueError(f"raw_widths[{k}][{d}] is {float(self.raw_widths[k, d])!r}: "
                             "its cell width softplus(raw) underflows to 0")

    @classmethod
    def uniform(cls, bins, dims):
        """Equal-width cells tiling (0, 1] with equal masses."""
        raw_w = np.full((bins, dims), special.inv_softplus(1.0 / bins))
        return cls(bins, dims, raw_w, np.zeros((bins, dims)))

    # -- views -----------------------------------------------------------

    def parameter_arrays(self):
        return {"raw_widths": self.raw_widths, "raw_logits": self.raw_logits}

    def param_count(self):
        return 2 * self.bins * self.dims

    def widths(self):
        return special.softplus(self.raw_widths)

    def boundaries(self):
        """(K+1, D) cell edges per dimension, starting at 0."""
        out = np.zeros((self.bins + 1, self.dims))
        out[1:] = np.cumsum(self.widths(), axis=0)
        return out

    def probabilities(self):
        logits = self.raw_logits - self.raw_logits.max(axis=0)
        expl = np.exp(logits)
        return expl / expl.sum(axis=0)

    # -- routing -----------------------------------------------------------

    def active_bin(self, dim, x):
        """Index k of the half-open cell (b_k, b_{k+1}] containing scalar x."""
        if not 0 <= dim < self.dims:
            raise ValueError("dim out of range")
        edges = self.boundaries()[:, dim]
        x = float(x)
        if not edges[0] < x <= edges[-1]:
            raise ValueError(f"x must lie in ({edges[0]}, {edges[-1]}]")
        cell = np.empty(1, dtype=np.int64)
        route_cells(np.array([x]), edges, cell)
        return int(cell[0])

    # -- densities ---------------------------------------------------------

    def log_density_vars(self, tape, pvars, z):
        """(N,) Var of log density for unit-cube points z, on the tape.

        The unit cube is stretched by the per-dimension total width, which
        contributes +sum_d log(total_width_d) through the change of
        variables; gradients flow into both widths and logits.
        """
        z_values = z.value if isinstance(z, ad.Var) else np.asarray(z, dtype=np.float64)
        if z_values.ndim != 2 or z_values.shape[1] != self.dims:
            raise ValueError(f"points must be (N, {self.dims})")
        check_unit_cube(z_values)

        widths = ad.softplus(pvars["raw_widths"])          # (K, D)
        totals = widths.sum(axis=0)                        # (D,)
        logits = pvars["raw_logits"]
        shift = logits.value.max(axis=0)
        log_norm = ad.log(ad.exp(logits - shift).sum(axis=0)) + shift
        log_p = logits - log_norm                          # (K, D) log masses
        table = (log_p - ad.log(widths)) + ad.log(totals)  # (K, D) cell log densities

        # stretch by the last cell edge, as `active_bin` and `sample` do: the
        # summed `totals` can differ from it in the last bit.  z * edge lies in
        # (0, edge] once floored above 0, so every cell found is in 0..K-1
        edges = np.zeros((self.bins + 1, self.dims))
        edges[1:] = np.cumsum(widths.value, axis=0)
        scaled = np.maximum(z_values * edges[-1], np.nextafter(0.0, 1.0))
        cells = np.empty(z_values.shape, dtype=np.int64)
        for d in range(self.dims):
            route_cells(scaled[:, d], edges[:, d], cells[:, d])
        cells *= self.dims
        cells += np.arange(self.dims)
        return read_cells(table, cells)

    def log_density(self, z):
        """Numpy wrapper for the unit-cube density."""
        return ad.evaluate(self.log_density_vars, self.parameter_arrays(), z)

    # -- sampling ------------------------------------------------------------

    def sample(self, n, rng):
        """Unit-cube draws: `sample_cells` on the histogram's support, shrunk by its last edge."""
        edges = self.boundaries()
        return sample_cells(self.probabilities().T, edges.T, n, rng) / edges[-1]


@dataclass
class FixedPrior:
    """Parameter-free base on R^D: independent standard Gaussian or logistic."""

    kind: str
    dims: int

    def __post_init__(self):
        if self.kind not in ("gaussian", "logistic"):
            raise ValueError(f"unknown fixed prior kind: {self.kind}")
        if self.dims < 1:
            raise ValueError("dims must be >= 1")

    def parameter_arrays(self):
        return {}

    def param_count(self):
        return 0

    def log_density_vars(self, tape, pvars, z):
        if not isinstance(z, ad.Var):
            z = tape.constant(z)
        if self.kind == "gaussian":
            const = 0.5 * self.dims * np.log(2.0 * np.pi)
            return (z * z).sum(axis=1) * -0.5 - const
        # standard logistic: -u - 2 softplus(-u) per coordinate
        return (ad.neg(z) - 2.0 * ad.softplus(ad.neg(z))).sum(axis=1)

    def log_density(self, z):
        return ad.evaluate(self.log_density_vars, {}, z)

    def sample(self, n, rng):
        if self.kind == "gaussian":
            return rng.standard_normal((n, self.dims))
        u = rng.random((n, self.dims))
        return np.log(u) - np.log1p(-u)
