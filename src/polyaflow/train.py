"""Training loop, Adam optimizer, and evaluation metrics.

One optimization step records the whole loss on a fresh tape, runs the
reverse sweep, and applies Adam in place to the estimator's parameter
vector `theta`: its first `n_flow` entries, the flow's, take `lr_flow`, and
the base's ("prior") take `lr_prior`.  With `conjugate=True` (tree bases
only) the raw alphas are tape constants, set by a blended closed-form
Beta-Binomial refresh that counts the cells the loss read and blends the
alphas it used (one flow pass and one routing per step, as in stochastic
variational inference); Adam steps flow and splits.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .baselines import FixedPrior, LearnableHistogram
from .distributions import beta_kl_vars
from .flow import DensityEstimator, build_flow
from .polya_tree import PolyaTreeModel

PRIORS = ("vpt", "gaussian", "logistic", "histogram")


@dataclass
class TrainConfig:
    """Everything that determines a training run except the data and the rng."""

    prior: str = "vpt"
    levels: int = 3
    partition_mode: str = "dyadic"
    bins: int = 0                 # histogram cells; 0 means 2**levels
    flow_layers: int = 1
    hidden: tuple = (50, 50)
    activation: str = "tanh"
    epochs: int = 1000
    batch_size: int = 256
    lr_flow: float = 1e-2
    lr_prior: float = 0.1
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    patience: int = 100
    seed: int = 0
    conjugate: bool = False
    conjugate_blend: float = 0.9
    kl_weight: float = 0.0
    smooth_base: bool = False
    polyak: bool = False
    polyak_decay: float = 0.999
    lr_decay: bool = False
    lr_decay_factor: float = 0.5
    lr_decay_patience: int = 20

    def __post_init__(self):
        if self.prior not in PRIORS:
            raise ValueError(f"prior must be one of {PRIORS}")
        self.hidden = tuple(int(h) for h in self.hidden)


@dataclass
class TrainReport:
    """Per-epoch history plus final held-out metrics."""

    train_nll: list = field(default_factory=list)
    val_nll: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)
    best_epoch: int = -1
    final: dict = field(default_factory=dict)

    def substantive_fields(self):
        """Everything that must reproduce bit-for-bit under a fixed seed."""
        return {
            "train_nll": self.train_nll,
            "val_nll": self.val_nll,
            "best_epoch": self.best_epoch,
            "final": self.final,
        }


class Adam:
    """Adam with bias correction on one flat parameter vector, whose size the first step fixes."""

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = None
        self.v = None
        self.t = 0

    def step(self, theta, grad, lr):
        """Update `theta` in place from `grad`; `lr` is a scalar or one rate per entry."""
        self.t += 1
        if self.m is None:
            self.m = np.zeros(theta.size)
            self.v = np.zeros_like(self.m)
        if theta.size != self.m.size or grad.size != self.m.size:
            raise ValueError(f"Adam state is sized {self.m.size}, got {theta.size} and {grad.size}")
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * (grad * grad)
        theta -= lr * ((m / correct1) / (np.sqrt(v / correct2) + self.eps))


def build_estimator(config, dims, rng):
    """Assemble the flow + base pair a config describes."""
    if config.prior == "vpt":
        base = PolyaTreeModel.uniform(config.levels, dims, config.partition_mode)
    elif config.prior == "histogram":
        base = LearnableHistogram.uniform(config.bins or 2**config.levels, dims)
    else:
        base = FixedPrior(config.prior, dims)
    unit_cube = config.prior in ("vpt", "histogram")
    flow = build_flow(
        dims,
        n_coupling=config.flow_layers,
        hidden=config.hidden,
        activation=config.activation,
        scaling=True,
        sigmoid=unit_cube,
        rng=rng,
    )
    smooth = config.smooth_base and config.prior == "vpt"
    return DensityEstimator(flow, base, smooth_base=smooth)


def train(config, dataset, rng=None, estimator=None):
    """Fit an estimator on dataset.train, early-stopping on dataset.val.

    Returns (estimator, TrainReport).  The run is a pure function of
    (config, dataset, seed): reports and parameters reproduce bitwise.
    A non-finite loss, or any numeric failure on the tape during a step,
    aborts with a RuntimeError naming epoch and batch; a numeric failure
    evaluating the validation or test split names the epoch whose
    parameters it evaluated and the split.
    """
    rng = np.random.default_rng(config.seed) if rng is None else rng
    init_rng = np.random.default_rng(int(rng.integers(0, 2**63)))
    shuffle_rng = np.random.default_rng(int(rng.integers(0, 2**63)))

    x_train = dataset.train
    x_val = dataset.val
    if x_train.shape[0] == 0:
        raise ValueError("training split is empty")
    if estimator is None:
        estimator = build_estimator(config, dataset.dims, init_rng)

    if config.conjugate and not isinstance(estimator.base, PolyaTreeModel):
        raise ValueError(f"conjugate mode needs a tree base, got {type(estimator.base).__name__}")
    if config.conjugate and config.kl_weight > 0.0:
        raise ValueError("conjugate mode sets the alphas in closed form, so a KL weight has "
                         f"nothing to act on: kl_weight must be 0, got {config.kl_weight}")
    optimizer = Adam(config.adam_beta1, config.adam_beta2, config.adam_eps)
    theta, n_flow = estimator.theta, estimator.n_flow
    if not all(np.may_share_memory(v, theta) for v in estimator.parameter_arrays().values()):
        raise ValueError("the estimator's parameter arrays are not all views of its theta: "
                         "an array was rebound, or another estimator took over its flow or base")
    rates = np.repeat([config.lr_flow, config.lr_prior], [n_flow, theta.size - n_flow])
    lr_scale = 1.0
    lr = rates * lr_scale

    report = TrainReport()
    n_train = x_train.shape[0]
    best_val = np.inf
    best_saved = theta.copy()
    since_best = 0
    since_decay = 0
    ema = theta.copy() if config.polyak else None

    for epoch in range(config.epochs):
        tic = time.perf_counter()
        perm = shuffle_rng.permutation(n_train)
        weighted_nll = 0.0
        for b, start in enumerate(range(0, n_train, config.batch_size)):
            xb = x_train[perm[start:start + config.batch_size]]
            try:
                loss, data_nll = _step(estimator, optimizer, lr, xb, config, n_train)
            except FloatingPointError as err:
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {b}: {err}"
                ) from err
            if not np.isfinite(loss):
                raise RuntimeError(f"non-finite loss at epoch {epoch}, batch {b}")
            weighted_nll += data_nll * xb.shape[0]
            if ema is not None:
                ema *= config.polyak_decay
                ema += (1.0 - config.polyak_decay) * theta
        report.train_nll.append(weighted_nll / n_train)

        current = None
        if ema is not None:                       # validate the average, keep training theta
            current = theta.copy()
            theta[...] = ema
        try:
            val_nll = (_split_nll(estimator, x_val, "validation", epoch)
                       if x_val.shape[0] else report.train_nll[-1])
        finally:
            if current is not None:
                theta[...] = current
        report.val_nll.append(val_nll)
        report.epoch_seconds.append(time.perf_counter() - tic)

        if val_nll < best_val:
            best_val = val_nll
            report.best_epoch = epoch
            best_saved = (theta if ema is None else ema).copy()
            since_best = 0
            since_decay = 0
        else:
            since_best += 1
            since_decay += 1
            if config.lr_decay and since_decay >= config.lr_decay_patience:
                lr_scale *= config.lr_decay_factor
                lr = rates * lr_scale
                since_decay = 0
            if since_best >= config.patience:
                break

    theta[...] = best_saved
    report.final = {"val_nll": best_val}
    if dataset.test.shape[0]:
        test_nll = _split_nll(estimator, dataset.test, "test", report.best_epoch)
        report.final["test_nll"] = test_nll
        report.final["test_bpd"] = nats_to_bits_per_dim(test_nll, dataset.dims)
    return estimator, report


def _split_nll(estimator, x, split, epoch):
    """Mean NLL of a held-out split; a numeric failure raises RuntimeError naming both."""
    try:
        return -avg_log_likelihood(estimator, x)
    except FloatingPointError as err:
        raise RuntimeError(f"numeric failure at epoch {epoch}, {split} split: {err}") from err


def _step(estimator, optimizer, lr, xb, config, n_train):
    """One gradient (and optionally conjugate) update; returns (loss, data NLL).

    In conjugate mode the raw alphas are tape constants.  The tree hands back
    the flat cells the loss read and the alphas its table used, and the refresh
    counts those cells and blends those alphas, writing the raw alphas in place
    (before Adam steps the flow and splits, which the loss routed through)."""
    tape = ad.Tape()
    alphas = ("prior/raw_left", "prior/raw_right") if config.conjugate else ()
    pvars = {k: v if k in alphas else tape.leaf(v)
             for k, v in estimator.parameter_arrays().items()}
    seen = []                     # the loss's cells and alphas, in conjugate mode
    ll = estimator.log_likelihood_vars(tape, pvars, xb,
                                       **({"seen": seen} if config.conjugate else {}))
    loss = -ll.mean()
    data_nll = float(loss.value)
    if config.kl_weight > 0.0 and isinstance(pvars.get("prior/raw_left"), ad.Var):
        al = ad.softplus(pvars["prior/raw_left"])
        ar = ad.softplus(pvars["prior/raw_right"])
        loss = loss + config.kl_weight * beta_kl_vars(al, ar, 1.0, 1.0).sum()
    ad.backward(loss)
    if config.conjugate:
        # blend * alpha + (1 - blend) * (1 + scale * counts), in alpha space
        cells, *loss_alphas = seen
        blend = config.conjugate_blend
        estimator.base.refresh_alphas(
            cells, [blend * alpha + (1.0 - blend) for alpha in loss_alphas],
            (1.0 - blend) * n_train / xb.shape[0])
    on_tape = [isinstance(v, ad.Var) for v in pvars.values()]   # Adam steps a prefix
    assert on_tape == sorted(on_tape, reverse=True), "tape constants must end theta"
    grad = np.concatenate([v.grad.reshape(-1) for v in pvars.values()
                           if isinstance(v, ad.Var)] or [np.empty(0)])
    optimizer.step(estimator.theta[:grad.size], grad, lr[:grad.size])
    return float(loss.value), data_nll


# -- metrics ----------------------------------------------------------------


def avg_log_likelihood(estimator, x):
    """Mean log model density over a split, in nats per point."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("need a nonempty (N, D) array")
    return float(estimator.log_likelihood(x).mean())


def bits_per_dim(estimator, x):
    """-avg_log_likelihood converted to base-2 bits per coordinate."""
    x = np.asarray(x, dtype=np.float64)
    return nats_to_bits_per_dim(-avg_log_likelihood(estimator, x), x.shape[1])


def nats_to_bits_per_dim(nll, dims):
    """An NLL in nats per point as base-2 bits per coordinate."""
    return nll / (dims * np.log(2.0))


def sse_calibration(estimator, x, rng, n_samples=10000):
    """Mean squared standardized residual of x under the model's own moments.

    Moments come from `n_samples` fresh model draws; a model whose samples
    have zero spread in any dimension cannot be standardized against.
    Well-calibrated models land near 1.
    """
    samples = estimator.sample(n_samples, rng)
    mu = samples.mean(axis=0)
    sd = samples.std(axis=0)
    if not np.all(np.isfinite(sd)) or np.any(sd <= 0.0):
        raise RuntimeError("degenerate model samples: zero spread in some dimension")
    z = (np.asarray(x, dtype=np.float64) - mu) / sd
    return float(np.mean(z * z))


def density_grid(estimator, bounds, resolution):
    """Model density on a 2-D lattice: (resolution^2, 3) columns x, y, density.

    `bounds` is (lo, hi) applied to both axes or ((xlo, xhi), (ylo, yhi)).
    Rows iterate x in the outer loop and y in the inner loop.
    """
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.shape == (2,):
        bounds = np.stack([bounds, bounds])
    if bounds.shape != (2, 2) or np.any(bounds[:, 1] <= bounds[:, 0]):
        raise ValueError("bounds must be (lo, hi) or ((xlo, xhi), (ylo, yhi))")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    xs = np.linspace(bounds[0, 0], bounds[0, 1], resolution)
    ys = np.linspace(bounds[1, 0], bounds[1, 1], resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.reshape(-1), gy.reshape(-1)])
    dens = np.exp(estimator.log_likelihood(pts))
    return np.column_stack([pts, dens])
