"""Datasets: three synthetic 2-D generators and a delimited-text loader.

A `Dataset` keeps one (N, D) float64 matrix plus index arrays for the
train/validation/test split and the per-column standardization that was
applied (identity for the synthetic generators).  Splits are materialized
as indices so the same matrix backs all three views.
"""

from dataclasses import dataclass, replace

import numpy as np

SYNTHETIC_NAMES = ("eight_gaussians", "two_spirals", "checkerboard")

DEFAULT_SPLITS = (0.7, 0.15, 0.15)


@dataclass
class Dataset:
    """Points plus split indices and the standardization that produced them."""

    points: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    mean: np.ndarray = None
    std: np.ndarray = None
    name: str = ""
    columns: np.ndarray = None      # 1-based source column of each column

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError("points must be a 2-D array")
        if self.mean is None:
            self.mean = np.zeros(self.points.shape[1])
        if self.std is None:
            self.std = np.ones(self.points.shape[1])
        if self.columns is None:
            self.columns = np.arange(1, self.points.shape[1] + 1)
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)

    @property
    def dims(self):
        return self.points.shape[1]

    @property
    def train(self):
        return self.points[self.train_idx]

    @property
    def val(self):
        return self.points[self.val_idx]

    @property
    def test(self):
        return self.points[self.test_idx]

    def destandardize(self, x):
        """Map standardized coordinates back to the original data scale."""
        return np.asarray(x) * self.std + self.mean

    def standardize_new(self, x):
        """Apply this dataset's standardization record to fresh raw points."""
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

    def standardized(self, mean, std):
        """This raw dataset with the record (mean, std) applied and kept.

        The one place a standardization is applied: the loader uses it with
        the training split's record, and `eval` with a checkpoint's.  A
        record of the wrong width, or a column whose standardized values,
        mean or std overflow float64 (cells near +-1e308, say), raises
        ValueError naming the source column.
        """
        mean = np.asarray(mean, dtype=np.float64)
        std = np.asarray(std, dtype=np.float64)
        if mean.shape != (self.dims,) or std.shape != (self.dims,):
            raise ValueError(f"{self.name}: standardization record has {mean.size} "
                             f"columns, data has {self.dims}")
        with np.errstate(over="ignore", invalid="ignore"):
            pts = (self.points - mean) / std
        bad = ~(np.isfinite(pts).all(axis=0) & np.isfinite(mean) & np.isfinite(std))
        if bad.any():
            j = np.argmax(bad)
            raise ValueError(
                f"{self.name}: column {self.columns[j]} overflows float64 when "
                f"standardized (mean {mean[j]!r}, std {std[j]!r})"
            )
        return replace(self, points=pts, mean=mean, std=std)


def _split_indices(n, splits, rng):
    """Shuffled train/val/test index arrays with sizes within one row of exact."""
    if len(splits) != 3 or any(s < 0 for s in splits) or abs(sum(splits) - 1.0) > 1e-9:
        raise ValueError("splits must be three nonnegative fractions summing to 1")
    order = rng.permutation(n)
    n_train = int(round(splits[0] * n))
    n_val = int(round(splits[1] * n))
    n_train = min(n_train, n)
    n_val = min(n_val, n - n_train)
    return order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:]


def _eight_gaussians(n, rng):
    """Equal-weight mixture of 8 isotropic Gaussians (sigma 0.2) on a radius-2 circle."""
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    centers = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    comp = rng.integers(0, 8, size=n)
    return centers[comp] + 0.2 * rng.standard_normal((n, 2))


def _two_spirals(n, rng):
    """Two interleaved arms, radius growing 0 -> 2 over 1.5 turns, radial noise 0.1.

    Exactly floor(n/2) points land on the second (pi-rotated) arm; the
    returned labels record arm membership.
    """
    n_second = n // 2
    n_first = n - n_second
    labels = np.concatenate([np.zeros(n_first, dtype=np.int64),
                             np.ones(n_second, dtype=np.int64)])
    theta = 3.0 * np.pi * rng.random(n)            # 1.5 turns
    radius = 2.0 * theta / (3.0 * np.pi) + 0.1 * rng.standard_normal(n)
    theta = theta + np.pi * labels                  # rotate the second arm
    pts = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    return pts, labels


def _checkerboard(n, rng):
    """Uniform draws from the black cells of a 4x4 board over [-2, 2]^2.

    Black means (i + j) even, counting cells from the corner at (-2, -2),
    so that corner cell is black.
    """
    cells = np.array([(i, j) for i in range(4) for j in range(4) if (i + j) % 2 == 0])
    pick = cells[rng.integers(0, len(cells), size=n)]
    return -2.0 + pick + rng.random((n, 2))


def synth(name, n, rng, splits=DEFAULT_SPLITS):
    """Generate one of the named 2-D synthetic datasets with split indices."""
    if name not in SYNTHETIC_NAMES:
        raise ValueError(f"unknown synthetic dataset {name!r}; choose from {SYNTHETIC_NAMES}")
    if n < 3:
        raise ValueError("need at least 3 points to split")
    if name == "eight_gaussians":
        pts = _eight_gaussians(n, rng)
    elif name == "two_spirals":
        pts, _ = _two_spirals(n, rng)
    else:
        pts = _checkerboard(n, rng)
    tr, va, te = _split_indices(n, splits, rng)
    return Dataset(pts, tr, va, te, name=name)


def _parse(lines, delimiter, dtype=np.float64):
    """One (rows, columns) array from delimited lines, parsed by numpy in C."""
    return np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None,
                      quotechar='"', ndmin=2)


def _locate_parse_error(path, lines, file_rows, delimiter):
    """The ValueError naming the first ragged, unparsable or unclosed row, or None.

    Runs only after `_parse` has rejected `lines` or merged some of them
    (a quoted cell left open runs on into the next line).  numpy's own
    messages count data rows, not file rows, so each line is parsed again
    on its own; nothing parsed here is returned as data.
    """
    width = None
    for r, line in zip(file_rows, lines):
        try:
            k = _parse([line], delimiter).shape[1]
        except ValueError:
            for c, cell in enumerate(_parse([line], delimiter, str)[0], start=1):
                try:        # quoted, an empty cell is not skipped as a blank line
                    _parse(['"' + cell.replace('"', '""') + '"'], delimiter)
                except ValueError:
                    return ValueError(
                        f"{path}: could not parse {str(cell)!r} as a number "
                        f"at row {r}, column {c}"
                    )
            return None
        if width is None:
            width = k
        elif k != width:
            return ValueError(f"{path}: row {r} has {k} columns, expected {width}")
        if line.count('"') % 2:
            return ValueError(f"{path}: quoted cell left open at row {r}")
    return None


def load_delimited(path, delimiter=",", has_header=False, splits=DEFAULT_SPLITS,
                   seed=0, standardize=True):
    """Load numeric columns from delimited text into a standardized Dataset.

    Cells are parsed by numpy's float parser: decimal and exponent notation
    with optional surrounding whitespace, and nan/inf spellings (which are
    then rejected).  A cell may be quoted with `"`.  Python-only literals
    such as `1_000` are parse errors.  Blank and whitespace-only lines are
    skipped, as is the first line when `has_header` is set.
    Parse failures, ragged rows and non-finite cells (nan, inf) raise
    ValueError naming the 1-based file row (and column).
    Columns whose training split has (near-)zero variance are dropped.
    With standardize=True the training split's mean/std are applied to all
    points and recorded on the Dataset; the record is the identity
    otherwise.  A column whose mean, std or standardized values overflow
    float64 (cells near +-1e308, say) raises ValueError naming it
    (`Dataset.standardized`).
    """
    with open(path) as fh:
        numbered = [(r, line) for r, line in enumerate(fh.read().split("\n"), start=1)
                    if line.strip() and not (has_header and r == 1)]
    if not numbered:
        raise ValueError(f"{path}: no data rows")
    file_rows, lines = zip(*numbered)
    try:
        pts = _parse(lines, delimiter)
        if pts.shape[0] != len(lines):
            raise ValueError("a quoted cell runs on across lines")
    except ValueError as err:
        located = _locate_parse_error(path, lines, file_rows, delimiter)
        raise located or ValueError(f"{path}: {err}") from None
    finite = np.isfinite(pts)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(
            f"{path}: non-finite value {float(pts[i, j])!r} at row {file_rows[i]}, column {j + 1}"
        )
    rng = np.random.default_rng(seed)
    tr, va, te = _split_indices(pts.shape[0], splits, rng)

    with np.errstate(over="ignore", invalid="ignore"):
        train_std = pts[tr].std(axis=0)
    # a std that overflowed to nan is not a constant column: keep it to fail below
    keep = (train_std > 1e-12) | (standardize & np.isnan(train_std))
    if not np.any(keep):
        raise ValueError(f"{path}: every column is constant on the training split")
    ds = Dataset(pts[:, keep], tr, va, te, name=str(path), columns=np.flatnonzero(keep) + 1)
    if not standardize:
        return ds
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = ds.train.mean(axis=0), ds.train.std(axis=0)
    return ds.standardized(mean, std)
