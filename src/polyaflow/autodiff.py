"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

The design is a classic Wengert list: a `Tape` records every primitive as
it executes (its parent indices and one vector-Jacobian callback that
returns one gradient per parent), and `backward` replays the list once in
reverse.  Because nodes are appended in execution order, the record is
already topologically sorted and each node is visited exactly once.

Only what depends on a `leaf` is a node.  A constant -- an operand that
is not a `Var` (a Python float, a mask, a fixed table), a `Tape.constant`
such as a data batch, or the result of an operation whose operands are
all constants -- is checked for finiteness like any recorded value, but it
is not recorded: its index is None, a node's parent slot for it holds
None, the reverse pass skips it and its `.grad` reads zeros.  So a
computation on data alone (a fixed leaf table and its lookup, say) costs
no record and no callback.  A node may stand for a whole composite: a
flow's coupling layer is one node with a hand-written callback (see
`flow`), which skips the gradient of a constant input.

Each `Var` carries its own value; a tape holds only the structure the
reverse pass needs, so an intermediate stays alive exactly as long as a
callback or a caller refers to it.  Arrays needed only by the reverse
pass (the sigmoid in `softplus`, digamma in `lgamma`, ...) are computed
inside the callbacks, when `backward` runs.  On an `EvalTape` every Var is
a constant: it keeps nothing at all -- no parents, no callbacks -- so each
intermediate is freed as soon as the computation moves past it; it still
checks every value for finiteness, and `backward` on it raises.
`evaluate` runs a tape function on one, which is how every numpy wrapper
in the package evaluates.

Numeric failure on either tape -- a non-finite value, or an input outside
a primitive's domain -- raises `NumericError`, which is both a
`FloatingPointError` and a `ValueError`.

Operands broadcast under normal numpy rules; the reverse pass sums
gradients back down to each parent's shape.  An ndarray on the left of an
operator defers to the `Var` on its right, so `array + var` is a node too.
Values are never mutated after recording -- rerunning a computation means
building a fresh tape, which is how the training loop uses this module
(one tape per step).
"""

import math

import numpy as np

from . import special


class NumericError(FloatingPointError, ValueError):
    """A non-finite value, or an input outside a primitive's domain, on a tape."""


def check_finite(value):
    if not np.isfinite(value).all():
        raise NumericError("non-finite value recorded on tape")


class Tape:
    """Append-only record of primitive operations."""

    records = True

    def __init__(self):
        self._parents = []
        self._vjps = []
        self._grads = None

    def __len__(self):
        return len(self._parents)

    def leaf(self, value):
        """Record an input, a node the reverse pass reaches, and return its Var."""
        value = np.asarray(value, dtype=np.float64)
        check_finite(value)
        self._parents.append(())
        self._vjps.append(None)
        return Var(self, len(self._parents) - 1, value)

    def constant(self, value):
        """Check an input the reverse pass need not reach; return it as an unrecorded Var."""
        value = np.asarray(value, dtype=np.float64)
        check_finite(value)
        return Var(self, None, value)

    def record(self, value, parents, vjp):
        """Check `value` and return its Var: a node, or a constant if no parent is a node.

        `parents` is a tuple of node indices (None for a constant operand),
        and `vjp(g)` returns one gradient per entry of `parents`; its entry
        for a constant may be anything, as the reverse pass skips it.
        """
        check_finite(value)
        if parents.count(None) == len(parents):
            return Var(self, None, value)
        self._parents.append(parents)
        self._vjps.append(vjp)
        return Var(self, len(self._parents) - 1, value)

    def _grad_of(self, index):
        if self._grads is None:
            raise RuntimeError("gradients not computed; call backward first")
        return None if index is None else self._grads[index]


class EvalTape(Tape):
    """A tape for evaluation only: checks each value is finite and records nothing."""

    records = False

    def __init__(self):
        self._grads = None

    def __len__(self):
        return 0

    def leaf(self, value):
        return self.constant(value)

    def record(self, value, parents, vjp):
        check_finite(value)
        return Var(self, None, value)


class Var:
    """Handle to one tape node: a value plus (after backward) a gradient."""

    __slots__ = ("tape", "index", "value")
    __array_ufunc__ = None          # numpy operators defer to Var's reflected ones

    def __init__(self, tape, index, value):
        self.tape = tape
        self.index = index
        self.value = value

    @property
    def grad(self):
        g = self.tape._grad_of(self.index)
        return np.zeros_like(self.value) if g is None else g

    @property
    def shape(self):
        return self.value.shape

    def sum(self, axis=None):
        return vsum(self, axis=axis)

    def mean(self, axis=None):
        return vmean(self, axis=axis)

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Var(shape={self.value.shape}, index={self.index})"


def evaluate(fn, params, *args, **kwargs):
    """Value of `fn(tape, pvars, *args, **kwargs)` computed on a fresh EvalTape.

    `params` maps names to arrays; each becomes a leaf of `pvars`, so any
    tape function of the package doubles as its own numpy wrapper.
    """
    tape = EvalTape()
    pvars = {k: tape.leaf(v) for k, v in params.items()}
    return fn(tape, pvars, *args, **kwargs).value


def _lift(tape, x):
    """(value, node index) of an operand; a non-Var is a checked constant, index None."""
    if isinstance(x, Var):
        if x.tape is not tape:
            raise ValueError("operands recorded on different tapes")
        return x.value, x.index
    value = np.asarray(x, dtype=np.float64)
    check_finite(value)
    return value, None


def _operands(a, b):
    """(tape, a value, b value, parent indices) of a binary op's operands."""
    tape = _tape_of(a, b)
    av, ai = _lift(tape, a)
    bv, bi = _lift(tape, b)
    return tape, av, bv, (ai, bi)


def _tape_of(*operands):
    for x in operands:
        if isinstance(x, Var):
            return x.tape
    raise TypeError("at least one operand must be a Var")


def unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    tape, av, bv, parents = _operands(a, b)
    return tape.record(av + bv, parents,
                        lambda g: (unbroadcast(g, av.shape), unbroadcast(g, bv.shape)))


def sub(a, b):
    tape, av, bv, parents = _operands(a, b)
    return tape.record(av - bv, parents,
                        lambda g: (unbroadcast(g, av.shape), unbroadcast(-g, bv.shape)))


def mul(a, b):
    tape, av, bv, parents = _operands(a, b)
    return tape.record(av * bv, parents, lambda g: (unbroadcast(g * bv, av.shape),
                                                     unbroadcast(g * av, bv.shape)))


def div(a, b):
    tape, av, bv, parents = _operands(a, b)
    return tape.record(av / bv, parents, lambda g: (unbroadcast(g / bv, av.shape),
                                                     unbroadcast(-g * av / (bv * bv), bv.shape)))


def neg(a):
    return a.tape.record(-a.value, (a.index,), lambda g: (-g,))


def matmul(a, b):
    """Matrix product following np.matmul for 1-D and 2-D operands."""
    tape, av, bv, parents = _operands(a, b)
    if av.ndim > 2 or bv.ndim > 2:
        raise ValueError("matmul supports 1-D and 2-D operands only")

    def vjp(g):
        if av.ndim == 1 and bv.ndim == 1:
            return g * bv, g * av
        if av.ndim == 1:          # (k,) @ (k,n) -> (n,)
            return bv @ g, np.outer(av, g)
        if bv.ndim == 1:          # (m,k) @ (k,) -> (m,)
            return np.outer(g, bv), av.T @ g
        return g @ bv.T, av.T @ g

    return tape.record(av @ bv, parents, vjp)


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _reduction(a, axis, mean):
    """Sum (or mean) of `a` over `axis`; the reverse pass spreads g back over those axes."""
    av = a.value
    axes = _axis_tuple(axis, av.ndim)
    kept = tuple(1 if i in axes else n for i, n in enumerate(av.shape))
    count = math.prod(av.shape[i] for i in axes)

    def vjp(g):
        out = np.empty(av.shape)
        out[...] = g.reshape(kept) / count if mean else g.reshape(kept)
        return (out,)

    if not av.ndim:
        value = av.copy()
    else:
        value = av.mean(axis=axes) if mean else av.sum(axis=axes)
    return a.tape.record(value, (a.index,), vjp)


def vsum(a, axis=None):
    """Sum over the given axes (all axes when None)."""
    return _reduction(a, axis, mean=False)


def vmean(a, axis=None):
    return _reduction(a, axis, mean=True)


def exp(a):
    value = np.exp(a.value)
    return a.tape.record(value, (a.index,), lambda g: (g * value,))


def log(a):
    av = a.value
    if np.any(av <= 0.0):
        raise NumericError("log requires strictly positive input")
    return a.tape.record(np.log(av), (a.index,), lambda g: (g / av,))


def tanh(a):
    value = np.tanh(a.value)
    return a.tape.record(value, (a.index,), lambda g: (g * (1.0 - value * value),))


def relu(a):
    av = a.value
    return a.tape.record(np.maximum(av, 0.0), (a.index,), lambda g: (g * (av > 0.0),))


def sigmoid(a):
    value = np.asarray(special.sigmoid(a.value))
    return a.tape.record(value, (a.index,), lambda g: (g * value * (1.0 - value),))


def softplus(a):
    av = a.value
    value = np.maximum(av, 0.0) + np.log1p(np.exp(-np.abs(av)))
    return a.tape.record(value, (a.index,), lambda g: (g * special.sigmoid(av),))


def log_sigmoid(a):
    av = a.value
    value = np.asarray(special.log_sigmoid(av))
    # d/dx log sigmoid(x) = sigmoid(-x)
    return a.tape.record(value, (a.index,), lambda g: (g * special.sigmoid(-av),))


def take(a, indices):
    """Gather elements from the flattened parent: result[i] = a.ravel()[indices[i]].

    `indices` is an integer array of any shape; the result has the same
    shape.  The reverse pass scatter-adds, so repeated indices accumulate.
    """
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError("take requires integer indices")
    av = a.value
    flat = av.reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= flat.size):
        raise IndexError("take index out of range")

    def vjp(g):
        out = np.zeros_like(flat)
        np.add.at(out, idx.reshape(-1), g.reshape(-1))
        return (out.reshape(av.shape),)

    return a.tape.record(flat[idx], (a.index,), vjp)


def concat(a, b):
    """Join two operands along their last axis; leading shapes must match."""
    tape, av, bv, parents = _operands(a, b)
    cut = av.shape[-1]
    return tape.record(np.concatenate([av, bv], axis=-1), parents,
                        lambda g: (g[..., :cut], g[..., cut:]))


def clip(a, lo, hi):
    """Clamp values to [lo, hi]; gradient is identity strictly inside, 0 outside."""
    av = a.value
    return a.tape.record(np.clip(av, lo, hi), (a.index,),
                          lambda g: (g * ((av > lo) & (av < hi)),))


def lgamma(a):
    av = a.value
    if np.any(av <= 0.0):
        raise NumericError("lgamma requires strictly positive input")
    value = np.asarray(special.log_gamma(av))
    return a.tape.record(value, (a.index,), lambda g: (g * special.digamma(av),))


def digamma(a):
    av = a.value
    if np.any(av <= 0.0):
        raise NumericError("digamma requires strictly positive input")
    value = np.asarray(special.digamma(av))
    return a.tape.record(value, (a.index,), lambda g: (g * special.trigamma(av),))


def backward(loss):
    """Reverse sweep from a scalar Var; fills gradient slots on its tape.

    Every Var reachable from `loss` ends up with d(loss)/d(value); nodes
    the loss does not depend on, constants and every Var of a constant
    loss read back as zeros.  An EvalTape keeps no record to sweep, so
    `loss` must come from a recording Tape.
    """
    tape = loss.tape
    if not tape.records:
        raise RuntimeError("backward needs a recording Tape; an EvalTape keeps no record")
    if loss.value.size != 1:
        raise ValueError("backward requires a scalar loss")
    grads = tape._grads = [None] * len(tape)
    if loss.index is None:
        return
    grads[loss.index] = np.ones_like(loss.value)
    for i in range(loss.index, -1, -1):
        g = grads[i]
        parents = tape._parents[i]
        if g is None or not parents:
            continue
        for parent, contrib in zip(parents, tape._vjps[i](g)):
            if parent is None:
                continue
            if grads[parent] is None:
                grads[parent] = np.asarray(contrib, dtype=np.float64)
            else:
                grads[parent] = grads[parent] + contrib
