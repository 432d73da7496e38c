"""Command-line front end: train, eval, sample, grid, variance.

Datasets are named either `synthetic:NAME` (eight_gaussians, two_spirals,
checkerboard) or a path to delimited text.  Checkpoints carry the
standardization record of their training data, and every downstream
command applies that record, so evaluation and sampling happen in a
consistent coordinate system.

Exit codes: 0 on success, 1 on runtime failures (bad data, diverged
training, wrong model kind), 2 on usage errors.
"""

import argparse
import json
import sys

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import SYNTHETIC_NAMES, load_delimited, synth
from .polya_tree import PolyaTreeModel
from .train import (
    TrainConfig,
    avg_log_likelihood,
    density_grid,
    nats_to_bits_per_dim,
    train,
)


def _add_data_args(sub):
    sub.add_argument("--data", required=True,
                     help="synthetic:NAME or path to delimited text")
    sub.add_argument("--n", type=int, default=20000,
                     help="sample size for synthetic datasets")
    sub.add_argument("--delimiter", default=",", help="field delimiter for text data")
    sub.add_argument("--header", action="store_true",
                     help="skip the first row of text data")
    sub.add_argument("--val-frac", type=float, default=0.15)
    sub.add_argument("--test-frac", type=float, default=0.15)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="polyaflow",
        description="Density estimation with tree/histogram bases under coupling flows.",
    )
    sub = parser.add_subparsers(dest="command")

    p_train = sub.add_parser("train", help="fit a model and write a checkpoint")
    _add_data_args(p_train)
    p_train.add_argument("--prior", choices=["vpt", "gaussian", "logistic", "histogram"],
                         default="vpt")
    p_train.add_argument("--levels", type=int, default=3,
                         help="tree depth (also sets default histogram cells)")
    p_train.add_argument("--mode", choices=["dyadic", "per-level", "per-node"],
                         default="dyadic", help="tree partition mode")
    p_train.add_argument("--bins", type=int, default=0,
                         help="histogram cells per dimension (0: 2^levels)")
    p_train.add_argument("--flow-layers", type=int, default=1)
    p_train.add_argument("--hidden", default="50,50",
                         help="comma-separated MLP widths for coupling shifts")
    p_train.add_argument("--epochs", type=int, default=1000)
    p_train.add_argument("--batch", type=int, default=256)
    p_train.add_argument("--lr-flow", type=float, default=1e-2)
    p_train.add_argument("--lr-prior", type=float, default=0.1)
    p_train.add_argument("--patience", type=int, default=100)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--conjugate", action="store_true",
                         help="closed-form tree updates instead of gradients")
    p_train.add_argument("--kl-weight", type=float, default=0.0,
                         help="weight of the KL(posterior || flat) regularizer")
    p_train.add_argument("--smooth-base", action="store_true",
                         help="interpolate tree leaf densities for coordinate gradients")
    p_train.add_argument("--polyak", action="store_true", help="Polyak-average parameters")
    p_train.add_argument("--lr-decay", action="store_true",
                         help="halve learning rates on validation plateaus")
    p_train.add_argument("--out", required=True, help="checkpoint path to write")
    p_train.add_argument("--report", default="",
                         help="optional JSONL path for per-epoch history")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="print metrics of a checkpoint on data")
    _add_data_args(p_eval)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--metric", choices=["nll", "bpd", "both"], default="both")
    p_eval.add_argument("--split", choices=["train", "val", "test", "all"], default="all")
    p_eval.add_argument("--seed", type=int, default=None,
                        help="data and split seed (default: the checkpoint's "
                             "training seed, else 0)")
    p_eval.set_defaults(func=cmd_eval)

    p_sample = sub.add_parser("sample", help="draw points from a checkpoint")
    p_sample.add_argument("--model", required=True)
    p_sample.add_argument("--n", type=int, default=1000)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", default="", help="CSV path (stdout when omitted)")
    p_sample.set_defaults(func=cmd_sample)

    p_grid = sub.add_parser("grid", help="rasterize the model density over a 2-D box")
    p_grid.add_argument("--model", required=True)
    p_grid.add_argument("--bounds", default="0,1",
                        help="'lo,hi' for both axes or 'xlo,xhi,ylo,yhi' "
                             "(write --bounds=-3,3 for negative limits)")
    p_grid.add_argument("--resolution", type=int, default=200)
    p_grid.add_argument("--out", required=True, help="CSV path, header x,y,density")
    p_grid.set_defaults(func=cmd_grid)

    p_var = sub.add_parser("variance",
                           help="per-dimension posterior variance of a tree model")
    p_var.add_argument("--model", required=True)
    p_var.add_argument("--out", default="", help="CSV path (stdout when omitted)")
    p_var.set_defaults(func=cmd_variance)

    return parser


def _resolve_dataset(args, record=None):
    """Build the Dataset an eval/train command names, honoring a checkpoint record."""
    splits = (1.0 - args.val_frac - args.test_frac, args.val_frac, args.test_frac)
    if args.data.startswith("synthetic:"):
        name = args.data.split(":", 1)[1]
        ds = synth(name, args.n, np.random.default_rng(args.seed), splits)
    else:
        ds = load_delimited(args.data, args.delimiter, args.header, splits,
                            seed=args.seed, standardize=record is None)
    return ds if record is None else ds.standardized(*record)


def cmd_train(args):
    config = TrainConfig(
        prior=args.prior,
        levels=args.levels,
        partition_mode=args.mode,
        bins=args.bins,
        flow_layers=args.flow_layers,
        hidden=tuple(int(h) for h in args.hidden.split(",") if h),
        epochs=args.epochs,
        batch_size=args.batch,
        lr_flow=args.lr_flow,
        lr_prior=args.lr_prior,
        patience=args.patience,
        seed=args.seed,
        conjugate=args.conjugate,
        kl_weight=args.kl_weight,
        smooth_base=args.smooth_base,
        polyak=args.polyak,
        lr_decay=args.lr_decay,
    )
    dataset = _resolve_dataset(args)
    estimator, report = train(config, dataset)
    save_checkpoint(
        args.out,
        estimator,
        config=config,
        seed=args.seed,
        standardization=(dataset.mean, dataset.std),
        summary={**report.final, "best_epoch": report.best_epoch,
                 "epochs_run": len(report.train_nll)},
    )
    if args.report:
        with open(args.report, "w") as fh:
            for e, (tr, va, sec) in enumerate(zip(report.train_nll, report.val_nll,
                                                  report.epoch_seconds)):
                fh.write(json.dumps({"epoch": e, "train_nll": tr, "val_nll": va,
                                     "seconds": sec}) + "\n")
            fh.write(json.dumps({"best_epoch": report.best_epoch,
                                 "final": report.final}) + "\n")
    print(f"checkpoint written to {args.out}")
    print(f"prior parameters: {estimator.theta.size - estimator.n_flow}")
    print(f"flow parameters: {estimator.n_flow}")
    print(f"best epoch: {report.best_epoch}")
    for key, value in sorted(report.final.items()):
        print(f"{key}: {value:.6f}")
    return 0


def _split_points(ds, split):
    if split == "all":
        return ds.points
    return {"train": ds.train, "val": ds.val, "test": ds.test}[split]


def cmd_eval(args):
    ck = load_checkpoint(args.model)
    if args.seed is None:
        args.seed = 0 if ck.seed is None else ck.seed
    ds = _resolve_dataset(args, record=ck.standardization)
    x = _split_points(ds, args.split)
    if x.shape[0] == 0:
        raise ValueError(f"split {args.split!r} is empty")
    nll = -avg_log_likelihood(ck.estimator, x)
    if args.metric in ("nll", "both"):
        print(json.dumps({"metric": "nll", "value": nll}))
    if args.metric in ("bpd", "both"):
        print(json.dumps({"metric": "bpd", "value": nats_to_bits_per_dim(nll, x.shape[1])}))
    return 0


def cmd_sample(args):
    ck = load_checkpoint(args.model)
    draws = ck.estimator.sample(args.n, np.random.default_rng(args.seed))
    if ck.standardization is not None:
        mean, std = ck.standardization
        draws = draws * std + mean
    lines = [",".join(repr(float(v)) for v in row) for row in draws]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"{args.n} samples written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_grid(args):
    ck = load_checkpoint(args.model)
    parts = [float(v) for v in args.bounds.split(",")]
    if len(parts) == 2:
        bounds = (parts[0], parts[1])
    elif len(parts) == 4:
        bounds = ((parts[0], parts[1]), (parts[2], parts[3]))
    else:
        raise ValueError("--bounds takes 2 or 4 comma-separated numbers")
    table = density_grid(ck.estimator, bounds, args.resolution)
    with open(args.out, "w") as fh:
        fh.write("x,y,density\n")
        for row in table:
            fh.write(f"{float(row[0])!r},{float(row[1])!r},{float(row[2])!r}\n")
    print(f"{table.shape[0]} grid rows written to {args.out}")
    return 0


def cmd_variance(args):
    ck = load_checkpoint(args.model)
    if not isinstance(ck.estimator.base, PolyaTreeModel):
        raise ValueError("variance requires a checkpoint with a tree prior")
    values = ck.estimator.base.variance_map()
    lines = ["dim,variance"] + [f"{d},{float(v)!r}" for d, v in enumerate(values)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"variance map written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, FloatingPointError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
