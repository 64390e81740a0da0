"""Outside-in span tracer for the sectes benchmark.

The tracer times calls into the public functions of each ``sectes``
module from the benchmark's side; the library itself is not changed.
``ensemble``, ``validation`` and ``cli`` bind names such as
``train_ctes`` and ``fit_forest`` with ``from ... import``, so wrapping
the defining module alone would miss those calls: :func:`installed`
replaces every module attribute in the ``sectes`` package that refers to
a traced function, and puts the originals back on exit.

Spans (name, start, end, parent) are kept in memory and written out by
:meth:`Tracer.write`. All spans of a traced run live in one thread of one
process, so the children of a span never overlap and a span's self time
is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

import numpy as np

ROOT_NAMES = ("bench.setup", "bench.op")

# ndnet spans are named by the stack's layer kind; stacks are homogeneous
NDNET_KINDS = ("dense", "conv2d", "deconv2d")
CONV_KINDS = ("conv2d", "deconv2d")
BASELINE_SPANS = ("baselines.pls_fit", "baselines.pls_predict",
                  "baselines.grnn_fit", "baselines.grnn_predict")


class Tracer:
    """In-memory span log plus counters recorded at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def write(self, path) -> None:
        """One tab-separated line per span, times relative to the first."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parent[i]}\t{name}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


# --- operation counts computed from layer specs and input shapes ---

def _net_flop(spec, shape) -> float:
    """2 x multiply-adds of the weight contractions of one forward pass."""
    batch = shape[0]
    flop = 0.0
    h, w = (shape[2], shape[3]) if len(shape) == 4 else (0, 0)
    for lay in spec:
        if lay.kind == "dense":
            flop += 2.0 * batch * lay.in_size * lay.out_size
            continue
        k, s, p = lay.kernel, lay.stride, lay.padding
        taps = lay.in_channels * lay.out_channels * k * k
        if lay.kind == "conv2d":
            h, w = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
            flop += 2.0 * batch * h * w * taps
        else:  # every input pixel scatters k*k taps
            flop += 2.0 * batch * h * w * taps
            h, w = (h - 1) * s - 2 * p + k, (w - 1) * s - 2 * p + k
    return flop


def _batched_shape(params, x) -> tuple:
    want = 2 if params.spec[0].kind == "dense" else 4
    shape = np.shape(x)
    return (1,) + tuple(shape) if len(shape) == want - 1 else tuple(shape)


def _flop_key(kind: str) -> str:
    return "ndnet.conv.flop" if kind in CONV_KINDS else "ndnet.dense.flop"


# --- traced targets: (module, function, span namer, result hook) ---

def _forward_name(tr, args, kwargs):
    params, x = args[0], args[1]
    kind = params.spec[0].kind
    tr.count(_flop_key(kind), _net_flop(params.spec, _batched_shape(params, x)))
    return f"ndnet.{kind}.forward"


def _backprop_name(tr, args, kwargs):
    params, trace = args[0], args[1]
    kind = params.spec[0].kind
    # weight and input gradients each cost one forward contraction
    tr.count(_flop_key(kind), 2.0 * _net_flop(params.spec, trace.x.shape))
    return f"ndnet.{kind}.backprop"


def _fit_forest_name(tr, args, kwargs):
    labels = args[1] if len(args) > 1 else kwargs["labels"]
    return ("forest.fit_forest.binary" if len(np.unique(labels)) == 2
            else "forest.fit_forest.multiclass")


def _after_fit_forest(tr, args, kwargs, forest):
    X = args[0]
    # trees keep one entry per node in their flat ``feature`` array
    tr.count("forest.nodes", sum(len(t.feature) for t in forest.trees))
    tr.count("forest.tree_rows", np.shape(X)[0] * len(forest.trees))


def _after_train_ctes(tr, args, kwargs, model):
    tr.count("ctes.iterations_run", model.iterations_run)


def _after_train_se_ctes(tr, args, kwargs, ens):
    tr.count("ensemble.members_finished",
             sum(m is not None for m in ens.models))
    tr.count("ensemble.members", len(ens.models))


def _after_experiment(tr, args, kwargs, report):
    tr.count("validation.a1", report.a1)
    tr.count("validation.a2", report.a2)
    tr.count("validation.reports", 1)


TARGETS = (
    ("sectes.ndnet", "forward", _forward_name, None),
    ("sectes.ndnet", "backprop", _backprop_name, None),
    ("sectes.ndnet", "optimizer_step", "ndnet.optimizer_step", None),
    ("sectes.ctes", "train_ctes", "ctes.train_ctes", _after_train_ctes),
    ("sectes.ctes", "sample_mismatch", "ctes.sample_mismatch", None),
    ("sectes.ctes", "synthesize_each", "ctes.synthesize_each", None),
    ("sectes.ensemble", "train_se_ctes", "ensemble.train_se_ctes",
     _after_train_se_ctes),
    ("sectes.ensemble", "inverse_validation_scores",
     "ensemble.inverse_validation_scores", None),
    ("sectes.ensemble", "ensemble_synthesize", "ensemble.ensemble_synthesize",
     None),
    ("sectes.forest", "fit_forest", _fit_forest_name, _after_fit_forest),
    ("sectes.forest", "predict_proba", "forest.predict_proba", None),
    ("sectes.validation", "identify_group_experiment",
     "validation.identify_group_experiment", _after_experiment),
    ("sectes.validation", "fit_conv_classifier",
     "validation.fit_conv_classifier", None),
    ("sectes.datagen", "gen_multivariate_dataset",
     "datagen.gen_multivariate_dataset", None),
    ("sectes.datagen", "gen_scalar_to_matrix_dataset",
     "datagen.gen_scalar_to_matrix_dataset", None),
    ("sectes.baselines", "pls_fit", "baselines.pls_fit", None),
    ("sectes.baselines", "pls_predict", "baselines.pls_predict", None),
    ("sectes.baselines", "grnn_fit", "baselines.grnn_fit", None),
    ("sectes.baselines", "grnn_predict", "baselines.grnn_predict", None),
    ("sectes.cli", "run_suite", "cli.run_suite", None),
)


def _wrap(tr: Tracer, fn, namer, after):
    def traced(*args, **kwargs):
        name = namer if isinstance(namer, str) else namer(tr, args, kwargs)
        i = tr.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(i)
        if after is not None:
            after(tr, args, kwargs, result)
        return result
    traced.__wrapped__ = fn
    return traced


@contextmanager
def installed(tr: Tracer):
    """Route every sectes binding of each traced function through ``tr``."""
    patched = []
    try:
        for modname, fname, namer, after in TARGETS:
            orig = getattr(importlib.import_module(modname), fname)
            wrapper = _wrap(tr, orig, namer, after)
            for mod in [m for name, m in sys.modules.items()
                        if name == "sectes" or name.startswith("sectes.")]:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, orig))
        yield tr
    finally:
        for mod, attr, orig in reversed(patched):
            setattr(mod, attr, orig)


# --- per-layer figures from a slice of the span log ---

def span_totals(tr: Tracer, lo: int, hi: int) -> dict:
    """Inclusive and self seconds per span name, and call counts per
    iteration inside ``train_ctes``, for spans ``lo`` to ``hi``."""
    incl: dict[str, float] = {}
    child: dict[int, float] = {}
    in_train = {}
    calls = {"forward": 0, "backprop": 0}
    for i in range(lo, hi):
        name, par = tr.names[i], tr.parent[i]
        dur = tr.end[i] - tr.start[i]
        incl[name] = incl.get(name, 0.0) + dur
        if par >= 0:
            child[par] = child.get(par, 0.0) + dur
        inside = par >= lo and (tr.names[par] == "ctes.train_ctes"
                                or in_train.get(par, False))
        in_train[i] = inside
        if inside and name.startswith("ndnet."):
            kind = name.rsplit(".", 1)[1]
            if kind in calls:
                calls[kind] += 1
    selfs: dict[str, float] = {}
    for i in range(lo, hi):
        name = tr.names[i]
        dur = tr.end[i] - tr.start[i]
        selfs[name] = selfs.get(name, 0.0) + dur - child.get(i, 0.0)
    return {"incl": incl, "self": selfs, "calls": calls}


def exact_counts(totals: dict, counts: dict) -> dict:
    """The counts that must repeat exactly for the same job."""
    iters = counts.get("ctes.iterations_run", 0.0)
    return {
        "ctes.iterations_run": iters,
        "ctes.forward_calls": totals["calls"]["forward"],
        "ctes.backprop_calls": totals["calls"]["backprop"],
        "forest.nodes": counts.get("forest.nodes", 0.0),
        "ndnet.dense.flop": counts.get("ndnet.dense.flop", 0.0),
        "ndnet.conv.flop": counts.get("ndnet.conv.flop", 0.0),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, counts: dict, n_ops: int) -> dict:
    """Per-layer metrics per traced operation (see BENCHMARK.json)."""
    incl, selfs = totals["incl"], totals["self"]
    per = lambda v: v / n_ops
    out = {}
    for kind in NDNET_KINDS:
        out[f"ndnet.{kind}.fwd_s"] = per(incl.get(f"ndnet.{kind}.forward", 0.0))
        out[f"ndnet.{kind}.bwd_s"] = per(incl.get(f"ndnet.{kind}.backprop", 0.0))
    for group, kinds in (("dense", ("dense",)), ("conv", CONV_KINDS)):
        flop = counts.get(f"ndnet.{group}.flop", 0.0)
        busy = sum(incl.get(f"ndnet.{k}.{d}", 0.0)
                   for k in kinds for d in ("forward", "backprop"))
        out[f"ndnet.{group}.gflop"] = per(flop) / 1e9
        out[f"ndnet.{group}.gflop_per_s"] = _ratio(flop, busy) / 1e9
    out["ndnet.optimizer_step.s"] = per(incl.get("ndnet.optimizer_step", 0.0))

    iters = counts.get("ctes.iterations_run", 0.0)
    out["ctes.train_ctes.self_s"] = per(selfs.get("ctes.train_ctes", 0.0))
    out["ctes.train_ctes.iter_ms"] = 1e3 * _ratio(
        incl.get("ctes.train_ctes", 0.0), iters)
    out["ctes.iterations_run"] = per(iters)
    out["ctes.forward_calls_per_iter"] = _ratio(totals["calls"]["forward"], iters)
    out["ctes.backprop_calls_per_iter"] = _ratio(totals["calls"]["backprop"],
                                                 iters)
    out["ctes.sample_mismatch.s"] = per(incl.get("ctes.sample_mismatch", 0.0))
    out["ctes.synthesize_each.s"] = per(incl.get("ctes.synthesize_each", 0.0))

    out["ensemble.train_se_ctes.s"] = per(incl.get("ensemble.train_se_ctes", 0.0))
    out["ensemble.inverse_validation_scores.self_s"] = per(
        selfs.get("ensemble.inverse_validation_scores", 0.0))
    out["ensemble.members_finished_ratio"] = _ratio(
        counts.get("ensemble.members_finished", 0.0),
        counts.get("ensemble.members", 0.0))
    out["ensemble.ensemble_synthesize.s"] = per(
        incl.get("ensemble.ensemble_synthesize", 0.0))

    fit = {c: incl.get(f"forest.fit_forest.{c}", 0.0)
           for c in ("binary", "multiclass")}
    out["forest.fit_forest.binary_s"] = per(fit["binary"])
    out["forest.fit_forest.multiclass_s"] = per(fit["multiclass"])
    out["forest.tree_rows_per_s"] = _ratio(counts.get("forest.tree_rows", 0.0),
                                           sum(fit.values()))
    out["forest.nodes"] = per(counts.get("forest.nodes", 0.0))
    out["forest.predict_proba.s"] = per(incl.get("forest.predict_proba", 0.0))

    out["validation.identify_group_experiment.self_s"] = per(
        selfs.get("validation.identify_group_experiment", 0.0))
    out["validation.fit_conv_classifier.s"] = per(
        incl.get("validation.fit_conv_classifier", 0.0))
    reports = counts.get("validation.reports", 0.0)
    out["validation.a1"] = _ratio(counts.get("validation.a1", 0.0), reports)
    out["validation.a2"] = _ratio(counts.get("validation.a2", 0.0), reports)

    out["datagen.gen_multivariate_dataset.s"] = per(
        incl.get("datagen.gen_multivariate_dataset", 0.0))
    out["datagen.gen_scalar_to_matrix_dataset.s"] = per(
        incl.get("datagen.gen_scalar_to_matrix_dataset", 0.0))
    out["baselines.s"] = per(sum(incl.get(n, 0.0) for n in BASELINE_SPANS))
    out["cli.run_suite.self_s"] = per(selfs.get("cli.run_suite", 0.0))

    roots = sum(incl.get(n, 0.0) for n in ROOT_NAMES)
    root_self = sum(selfs.get(n, 0.0) for n in ROOT_NAMES)
    out["trace.accounted_share"] = 1.0 - _ratio(root_self, roots)
    return out
