"""Span tracing of polyaflow from outside the package.

`Tracer.install()` replaces a fixed list of public functions and methods
with thin wrappers that record one span per call: name, start, end and the
index of the enclosing span.  Module-level functions are replaced under
every name that binds them in any loaded `polyaflow` module (so
`cli.load_checkpoint`, imported with `from .checkpoint import ...`, is
wrapped too); methods are replaced on their class.  `Tracer.restore()`
puts every original back.  Because `train()` looks up `ad.backward`,
`avg_log_likelihood` and methods at call time, nothing in `src/` changes.

Spans stay in memory until `dump()` writes them out.
"""

import importlib
import json
import os
import sys
from time import perf_counter

MARK = "_bench_span"


def _nodes_at_backward(args, kwargs):
    loss = args[0] if args else kwargs["loss"]
    return len(loss.tape)


def _checkpoint_bytes(args, kwargs):
    return os.path.getsize(args[0] if args else kwargs["path"])


# (module, attribute or Class.method, probe).  A probe computes one number
# from the call's arguments, stored on the span.
TARGETS = (
    ("autodiff", "backward", _nodes_at_backward),
    ("flow", "FlowModel.forward_vars", None),
    ("flow", "FlowModel.inverse", None),
    ("flow", "DensityEstimator.log_likelihood_vars", None),
    ("flow", "DensityEstimator.log_likelihood", None),
    ("flow", "DensityEstimator.latent", None),
    ("flow", "DensityEstimator.sample", None),
    ("polya_tree", "PolyaTreeModel.log_density_vars", None),
    ("polya_tree", "PolyaTreeModel.route", None),
    ("polya_tree", "PolyaTreeModel.conjugate_update", None),
    ("polya_tree", "PolyaTreeModel.sample", None),
    ("polya_tree", "PolyaTreeModel.sample_branch_probabilities", None),
    ("baselines", "LearnableHistogram.log_density_vars", None),
    ("distributions", "BetaDist.sample", None),
    ("train", "train", None),
    ("train", "Adam.step", None),
    ("train", "avg_log_likelihood", None),
    ("train", "bits_per_dim", None),
    ("data", "synth", None),
    ("data", "load_delimited", None),
    ("checkpoint", "load_checkpoint", _checkpoint_bytes),
    ("cli", "main", None),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "polyaflow" or name.startswith("polyaflow."))]


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, probe value]
        self._stack = []
        self._saved = []         # (owner, attribute, original) in install order
        self.missing = []        # targets the package no longer has

    # -- recording ----------------------------------------------------------

    def begin(self, name):
        """Open a span by hand; returns its index for `end`."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, None])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, probe):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, None, stack[-1] if stack else -1,
                    probe(args, kwargs) if probe else None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, MARK, name)
        return wrapper

    # -- installing ---------------------------------------------------------

    def install(self):
        """Wrap every target the package still has; missing ones are listed."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        try:
            for module_name, attr, probe in TARGETS:
                self._install_one(module_name, attr, probe)
        except BaseException:
            self.restore()
            raise

    def _install_one(self, module_name, attr, probe):
        module = importlib.import_module(f"polyaflow.{module_name}")
        span_name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            raw = vars(getattr(module, cls_name, object)).get(meth)
            if raw is None:
                self.missing.append(span_name)
                return
            cls = getattr(module, cls_name)
            self._saved.append((cls, meth, raw))
            setattr(cls, meth, self._wrap(span_name, raw, probe))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(span_name)
            return
        new = self._wrap(span_name, original, probe)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, new)

    def restore(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, value."""
        with open(path, "w") as fh:
            for name, start, end, parent, value in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "value": value}) + "\n")


def installed_wrappers():
    """Names of span wrappers still bound anywhere in the polyaflow package."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type) and value.__module__.startswith("polyaflow"):
                for meth, raw in vars(value).items():
                    if hasattr(raw, MARK):
                        found.append(f"{mod.__name__}.{key}.{meth}")
    return sorted(set(found))


# -- span arithmetic -----------------------------------------------------------


class SpanTree:
    """Read-only view over recorded spans with child lists and self times."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span[3] >= 0:
                self.children[span[3]].append(i)

    def duration(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i):
        return self.duration(i) - sum(self.duration(c) for c in self.children[i])

    def under(self, root):
        """Indices of every span strictly inside span `root`."""
        out, todo = [], list(self.children[root])
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(self.children[i])
        return sorted(out)

    def named(self, indices, name):
        return [i for i in indices if self.spans[i][0] == name]

    def child_time(self, i, names):
        return sum(self.duration(c) for c in self.children[i] if self.spans[c][0] in names)
