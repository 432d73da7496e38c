"""Volume-tracked invertible maps and the estimator that pairs them with a base density.

The transport is a stack of three layer kinds:

* additive coupling: half the coordinates pass through untouched and
  parameterize an MLP shift of the other half, so the Jacobian is unit
  triangular and the log-determinant is exactly zero;
* diagonal scaling: z = exp(log_scale) * x with log-determinant
  sum(log_scale);
* sigmoid squash: an elementwise logistic map onto (0, 1)^D used when the
  base density lives on the unit cube, with log-determinant
  sum(log sigmoid(u) + log sigmoid(-u)).

`forward` maps data space to the base space; `inverse` is exact and runs
in plain numpy.  Layer parameters initialize so the whole stack starts at
(scaled) identity: coupling output layers are zero, log scales are zero.

On a tape a coupling layer is one node, z + scatter(net(z[:, pass])), with
a hand-written backward; its forward is the same `CouplingLayer.net_apply`
that `inverse` runs.  Its values and gradients are bitwise those of the
primitive composition (one-hot gather and scatter matmuls around matmul,
add and activation nodes) that tests/test_flow.py keeps as an oracle.
A layer keeps its pass and shift columns as slices when the mask's columns
are evenly spaced (every `build_flow` mask is) and as index arrays
otherwise, so a gather is a strided view copied once and a scatter an
in-place add through a view.  Gathered columns must be C-ordered, as a
matmul output is, so the node copies them with `np.ascontiguousarray`;
`inverse` keeps them F-ordered, the layout boolean indexing gave it, since
BLAS and sums round differently on the two layouts.  A data batch enters
the tape as a constant, so the first coupling computes no input gradient.
The shift MLP runs in place: each dense layer's matmul makes one fresh
array, and the bias add and the activation overwrite it, which are the
same floating-point operations as `h @ W + b` and `act(h)`.

The sigmoid squash is two tape nodes, a log-det node and a sigmoid node,
that share one exp(-|u|) (see `_squash`); together they are bitwise the
six-node primitive composition (two log_sigmoid, neg, add, sum and
sigmoid, plus the add onto the running log-determinant) that
tests/test_flow.py keeps as an oracle.  The log-determinant starts from
the first layer that changes volume.

The numpy entry points (`FlowModel.forward`, and `DensityEstimator`'s
`log_likelihood`, `latent` and `sample`) run the flow in row blocks of
`EVAL_ROWS` = 4096 on an evaluation tape that keeps no record.  At that
size one coupling intermediate of width 50 is 4096 x 50 x 8 B = 1.6 MB,
which fits in a 2 MiB per-core L2 cache (`lscpu` on a 2-CPU x86 host
reports 4 MiB of L2 over 2 instances), and memory no longer grows with the
number of query points.  Training batches and validation splits of up to
4096 rows are one block, so training numerics do not depend on blocking.
Larger inputs agree with an unblocked evaluation to about 1e-14 absolute
(7.1e-15 measured on log-likelihoods, 8.9e-16 on samples): BLAS rounds
the narrow output matmul of a coupling net differently for different row
counts.  A smooth tree base divides that latent difference by the gap
between leaf centers (2^-L on a dyadic depth-L tree) and multiplies it by
the step between neighbouring leaf log densities: 5.4e-13 measured at
L = 10.  The base density always runs once on the full input, so a
sampled-mode base draws its tree once per call.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad

_UNIT_EPS = 1e-6
EVAL_ROWS = 4096      # rows per block of numpy-side flow evaluation
ACTIVATIONS = ("tanh", "relu")


def _columns(mask):
    """The True positions of a 1-D bool mask: a slice when evenly spaced, else an index array."""
    cols = np.flatnonzero(mask)
    steps = np.diff(cols)
    if steps.size and (steps != steps[0]).any():
        return cols
    step = int(steps[0]) if steps.size else 1
    return slice(int(cols[0]), int(cols[-1]) + 1, step)


def _row_blocks(n):
    """Slices of at most EVAL_ROWS rows covering range(n); one empty slice if n is 0."""
    return [slice(i, i + EVAL_ROWS) for i in range(0, max(n, 1), EVAL_ROWS)]


@dataclass
class CouplingLayer:
    """Additive coupling: coordinates where mask is True drive a shift of the rest.

    `pass_cols` and `shift_cols` select the True and False columns of the
    mask (see `_columns`); they are derived once, so the mask is not
    reassigned after construction.
    """

    mask: np.ndarray                  # bool (D,)
    weights: list                     # [W0, b0, W1, b1, ...] dense MLP stack
    activation: str = "tanh"

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if not self.mask.any() or self.mask.all():
            raise ValueError("coupling mask must pass some and shift some coordinates")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unsupported activation: {self.activation}")
        self.pass_cols, self.shift_cols = _columns(self.mask), _columns(~self.mask)

    def net_apply(self, h, weights=None, hidden=None):
        """The shift MLP on pass-through coordinates `h` (one row per point).

        `weights` defaults to the layer's own.  Given a list `hidden`, each
        hidden pre-activation is checked finite (NumericError otherwise)
        and each hidden activation is appended to it, for the coupling
        node's backward.
        """
        weights = self.weights if weights is None else weights
        tanh = self.activation == "tanh"
        n_dense = len(weights) // 2
        for i in range(n_dense):
            h = h @ weights[2 * i]          # a fresh array: the rest runs in place on it
            h += weights[2 * i + 1]
            if i < n_dense - 1:
                if hidden is not None:
                    ad.check_finite(h)
                if tanh:
                    np.tanh(h, out=h)
                else:
                    np.maximum(h, 0.0, out=h)
                if hidden is not None:
                    hidden.append(h)
        return h


@dataclass
class ScalingLayer:
    """Diagonal rescale z = exp(log_scale) * x."""

    log_scale: np.ndarray

    def __post_init__(self):
        self.log_scale = np.asarray(self.log_scale, dtype=np.float64)


@dataclass
class SigmoidLayer:
    """Parameter-free logistic squash onto (0, 1)^D."""


@dataclass
class FlowModel:
    """Ordered stack of invertible layers over D-dimensional points."""

    dims: int
    layers: list = field(default_factory=list)

    def parameter_arrays(self):
        """Trainable arrays keyed 'c{i}_W{j}' / 'c{i}_b{j}' / 's{i}_log_scale', in layer order."""
        params = {}
        for i, layer in enumerate(self.layers):
            if isinstance(layer, CouplingLayer):
                for j, w in enumerate(layer.weights):
                    tag = "W" if j % 2 == 0 else "b"
                    params[f"c{i}_{tag}{j // 2}"] = w
            elif isinstance(layer, ScalingLayer):
                params[f"s{i}_log_scale"] = layer.log_scale
        return params

    def forward_vars(self, tape, pvars, x):
        """Map a data batch to base space on the tape: returns (z Var, log_det Var).

        `x` may be an (N, D) array or an existing Var.  log_det is (N,).
        """
        z = x if isinstance(x, ad.Var) else tape.constant(x)
        log_det = None                # no node until a layer changes volume
        layer_vars = iter([pvars[k] for k in self.parameter_arrays()])
        for i, layer in enumerate(self.layers):
            try:
                if isinstance(layer, CouplingLayer):
                    z = _couple(tape, layer, z, [next(layer_vars) for _ in layer.weights])
                elif isinstance(layer, ScalingLayer):
                    ls = next(layer_vars)
                    z = z * ad.exp(ls)
                    term = ls.sum()
                    log_det = term if log_det is None else log_det + term
                elif isinstance(layer, SigmoidLayer):
                    z, log_det = _squash(tape, z, log_det)
                else:
                    raise TypeError(f"unknown layer type: {type(layer).__name__}")
            except FloatingPointError as err:
                raise ad.NumericError(f"non-finite value in flow layer {i}") from err
        n_pts = z.shape[0]
        if log_det is None:
            log_det = tape.leaf(np.zeros(n_pts))
        elif log_det.shape != (n_pts,):
            log_det = log_det + np.zeros(n_pts)
        return z, log_det

    def forward(self, x):
        """Numpy wrapper: (z, log_det) arrays, EVAL_ROWS rows at a time on an EvalTape."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dims:
            raise ValueError(f"points must be (N, {self.dims})")
        tape = ad.EvalTape()
        pvars = {k: tape.leaf(v) for k, v in self.parameter_arrays().items()}
        z, log_det = np.empty(x.shape), np.empty(x.shape[0])
        for rows in _row_blocks(x.shape[0]):
            z_rows, log_det_rows = self.forward_vars(tape, pvars, x[rows])
            z[rows], log_det[rows] = z_rows.value, log_det_rows.value
        return z, log_det

    def inverse(self, z):
        """Exact inverse of forward, in plain numpy, on a copy of `z` updated in place."""
        x = np.array(z, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dims:
            raise ValueError(f"points must be (N, {self.dims})")
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            if isinstance(layer, CouplingLayer):
                x[:, layer.shift_cols] -= layer.net_apply(np.asfortranarray(x[:, layer.pass_cols]))
            elif isinstance(layer, ScalingLayer):
                x /= np.exp(layer.log_scale)
            elif isinstance(layer, SigmoidLayer):
                if np.any(x <= 0.0) or np.any(x >= 1.0):
                    raise ValueError(
                        "sigmoid inverse requires values strictly inside (0, 1)"
                    )
                log1m = np.log1p(-x)
                np.log(x, out=x)
                x -= log1m
            if not np.all(np.isfinite(x)):
                raise FloatingPointError(f"non-finite value inverting flow layer {i}")
        return x

    @property
    def has_sigmoid(self):
        return any(isinstance(layer, SigmoidLayer) for layer in self.layers)


def _couple(tape, layer, z, weights):
    """One tape node for a coupling layer: z + scatter(net(z[:, pass])).

    `z` and `weights` ([W0, b0, W1, b1, ...]) are Vars.  The backward runs,
    on the same array layouts, each floating-point operation the primitive
    nodes' callbacks would (see the module docstring), so gradients stay
    bitwise equal to theirs; for a constant `z` it skips the input gradient.
    """
    pass_cols, shift_cols, zv = layer.pass_cols, layer.shift_cols, z.value
    wv = [w.value for w in weights]
    inputs = [np.ascontiguousarray(zv[:, pass_cols])]   # each dense layer's input
    shift = layer.net_apply(inputs[0], wv, inputs)
    out = zv.copy()
    out[:, shift_cols] += shift
    tanh = layer.activation == "tanh"
    input_grad = z.index is not None

    def vjp(g):
        grads = []
        gh = np.ascontiguousarray(g[:, shift_cols])
        for k in reversed(range(len(inputs))):
            a = inputs[k]
            grads += [gh.sum(axis=0), a.T @ gh]   # b_k, W_k
            if k or input_grad:
                gh = gh @ wv[2 * k].T
            if k:
                gh = gh * (1.0 - a * a) if tanh else gh * (a > 0.0)
        gz = None
        if input_grad:
            gz = g.copy()
            gz[:, pass_cols] += gh
        return (gz, *reversed(grads))

    return tape.record(out, (z.index, *(w.index for w in weights)), vjp)


def _squash(tape, z, log_det):
    """The sigmoid layer as two tape nodes: (sigmoid(z), log_det + sum_d log sigmoid'(z)).

    `log_det` is a Var or None.  The log-det node is recorded first and
    lists `z` twice, then `log_det`, so `backward` adds its contributions
    in the order of the primitive composition it stands for, and values
    and gradients stay bitwise equal to it.  Both nodes share exp(-|u|):
    the exponent of `special.sigmoid`, where(u >= 0, -u, u), equals -|u|
    up to the sign of a zero.  The callbacks capture arrays and shapes
    only: a captured Var would close a tape -> callback -> Var -> tape
    cycle, and every step's tape would wait for the garbage collector.
    """
    u = z.value
    pos = u >= 0.0
    e = np.exp(-np.abs(u))
    soft = np.log1p(e)
    # special.log_sigmoid(u) + special.log_sigmoid(-u), one exp and log1p for both
    value = (-(np.maximum(-u, 0.0) + soft) + -(np.maximum(u, 0.0) + soft)).sum(axis=1)
    denom = 1.0 + e
    upper, lower = 1.0 / denom, e / denom        # sigmoid(|u|), sigmoid(-|u|)
    sig = np.where(pos, upper, lower)
    parents = (z.index, z.index)
    if log_det is not None:
        value = log_det.value + value
        parents += (log_det.index,)
        log_det_shape = log_det.shape

    def log_det_vjp(g):
        g_pts = g[:, None]
        grads = (-(g_pts * sig), g_pts * np.where(pos, lower, upper))
        return grads if len(parents) == 2 else (*grads, ad.unbroadcast(g, log_det_shape))

    log_det = tape.record(value, parents, log_det_vjp)
    z = tape.record(sig, (z.index,), lambda g: (g * sig * (1.0 - sig),))
    return z, log_det


def build_flow(dims, n_coupling=1, hidden=(50, 50), activation="tanh",
               scaling=True, sigmoid=False, rng=None):
    """Assemble a standard stack: couplings, then scaling, then optional sigmoid.

    Coupling masks alternate between even and odd coordinates.  Hidden
    weights are Gaussian with 1/sqrt(fan_in) scale; each output layer is
    zero so the stack starts as the identity (before scaling/sigmoid).
    With dims == 1 there is nothing to couple and `n_coupling` is ignored.
    """
    rng = rng or np.random.default_rng(0)
    layers = []
    if dims >= 2:
        for i in range(n_coupling):
            mask = (np.arange(dims) % 2) == (i % 2)
            n_in = int(mask.sum())
            n_out = dims - n_in
            sizes = [n_in, *hidden, n_out]
            weights = []
            for a, b in zip(sizes[:-1], sizes[1:]):
                weights.append(rng.standard_normal((a, b)) / np.sqrt(a))
                weights.append(np.zeros(b))
            weights[-2] = np.zeros_like(weights[-2])   # zero output layer
            layers.append(CouplingLayer(mask, weights, activation))
    if scaling:
        layers.append(ScalingLayer(np.zeros(dims)))
    if sigmoid:
        layers.append(SigmoidLayer())
    return FlowModel(dims, layers)


@dataclass
class DensityEstimator:
    """A flow transport composed with a base density.

    The base must expose parameter_arrays(), keyed by the names of the
    attributes that hold them (prefixed 'prior/' here; flow parameters are
    prefixed 'flow/'), log_density_vars(tape, pvars, z, ...) and
    sample(n, rng, ...), which returns a fresh array.  Bases supported
    on the unit cube should sit behind a flow whose last layer is the
    sigmoid squash; their inputs are clamped to [1e-6, 1 - 1e-6] before
    evaluation, and their samples before the inverse, in place.

    An estimator takes over its flow and base: their arrays become views of
    its one float64 vector `theta`, in parameter_arrays() order, so the
    first `n_flow` entries are the flow's and a tree's raw alphas are the
    last (conjugate training steps the prefix before them).  In-place
    writes to either show in the other.
    """

    flow: FlowModel
    base: object
    smooth_base: bool = False

    def __post_init__(self):
        arrays = list(self.parameter_arrays().values())
        self.theta = np.concatenate([np.ravel(v) for v in arrays] or [np.empty(0)])
        parts = np.split(self.theta, np.cumsum([np.size(v) for v in arrays[:-1]], dtype=int))
        views = iter([part.reshape(np.shape(v)) for part, v in zip(parts, arrays)])
        self.n_flow = sum(np.size(v) for v in self.flow.parameter_arrays().values())
        for layer in self.flow.layers:
            if isinstance(layer, CouplingLayer):
                layer.weights[:] = [next(views) for _ in layer.weights]
            elif isinstance(layer, ScalingLayer):
                layer.log_scale = next(views)
        for key in self.base.parameter_arrays():
            setattr(self.base, key, next(views))

    def parameter_arrays(self):
        params = {f"flow/{k}": v for k, v in self.flow.parameter_arrays().items()}
        params.update({f"prior/{k}": v for k, v in self.base.parameter_arrays().items()})
        return params

    def log_likelihood_vars(self, tape, pvars, x, **base_kwargs):
        """(N,) Var of log model density at data points x."""
        flow_vars = {k[5:]: v for k, v in pvars.items() if k.startswith("flow/")}
        base_vars = {k[6:]: v for k, v in pvars.items() if k.startswith("prior/")}
        z, log_det = self.flow.forward_vars(tape, flow_vars, x)
        if self.flow.has_sigmoid:
            z = ad.clip(z, _UNIT_EPS, 1.0 - _UNIT_EPS)
        if self.smooth_base:
            base_kwargs = {**base_kwargs, "smooth": True}
        base_ll = self.base.log_density_vars(tape, base_vars, z, **base_kwargs)
        return base_ll + log_det

    def log_likelihood(self, x, **base_kwargs):
        """Numpy wrapper: (N,) array of log densities.

        The same computation as log_likelihood_vars, with the flow run in
        row blocks and the base evaluated once on all latent points.
        """
        z, log_det = self._latent_and_log_det(x)
        if self.smooth_base:
            base_kwargs = {**base_kwargs, "smooth": True}
        return self.base.log_density(z, **base_kwargs) + log_det

    def _latent_and_log_det(self, x):
        z, log_det = self.flow.forward(x)
        if self.flow.has_sigmoid:
            np.clip(z, _UNIT_EPS, 1.0 - _UNIT_EPS, out=z)
        return z, log_det

    def latent(self, x):
        """Base-space coordinates of data points (numpy)."""
        return self._latent_and_log_det(x)[0]

    def sample(self, n, rng, **base_kwargs):
        """Draw from the model: sample the base, then invert the flow in row blocks."""
        z = self.base.sample(n, rng, **base_kwargs)
        if self.flow.has_sigmoid:
            np.clip(z, _UNIT_EPS, 1.0 - _UNIT_EPS, out=z)
        x = np.empty_like(z)
        for rows in _row_blocks(n):
            x[rows] = self.flow.inverse(z[rows])
        return x
