"""Experiment harness: configuration files, model serialization, and the
command-line surface (simulate / train / synth / validate / bench / report).

Every floating value written to disk carries 17 significant digits, and
every job derives its seed from a stable hash of the master seed and the
job coordinates, so a (config, master seed) pair fully determines the
report bytes regardless of worker count or scheduling.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import reprlib
import sys
import time
import types
import typing
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, \
    replace

import numpy as np

from .baselines import GrnnModel, PlsModel
from .ctes import CtesModel, TrainConfig, _conv_stack_depth, conv_encoder_spec
from .datagen import GpSimConfig, SimConfig, _write_csv, read_dataset_csv, \
    gen_multivariate_dataset, gen_scalar_to_matrix_dataset, write_dataset_csv
from .ensemble import EnsembleModel, EnsembleSize
from .errors import ConfigError, ModelFormatError
from .forest import ForestConfig
from .parallel import task_pool
from .validation import KNOWN_METHODS, MethodSettings, aggregate_trials, \
    fit_method, identify_group_experiment, risk_difference_eval, sample_model

log = logging.getLogger("sectes")

MODEL_FORMAT_VERSION = 10


# --- canonical JSON with exact float round-trips ---

def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits;
    a dataclass is written as an object of its fields."""
    if obj is None or isinstance(obj, (bool, str)):  # bool before int
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v) or math.isinf(v):
            raise ValueError("cannot serialize non-finite float")
        return f"{v:.17g}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)
               if f.metadata.get("saved", True)}
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_canonical(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(json.dumps(str(k)) + ":" + dumps_canonical(v)
                              for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def stable_seed(*parts) -> int:
    """Scheduling-independent 63-bit seed from the given key parts."""
    key = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


# --- typed decoding of JSON documents ---

def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _decode(tp, value, path: str):
    """Rebuild a value of the annotated type ``tp`` from parsed JSON.

    Dataclasses are rebuilt field by field from their type hints; missing
    fields take their defaults, and fields marked ``saved: False`` are not
    read. An unknown key, a wrong type, a non-finite number or a failed
    ``__post_init__`` raises :class:`ConfigError` naming the field path.
    """
    where = f"{path}: " if path else ""

    def fail(expected):
        raise ConfigError(f"{where}expected {expected}, "
                          f"got {reprlib.repr(value)}")

    if is_dataclass(tp):
        if not isinstance(value, dict):
            fail("object")
        known = {f.name: f for f in fields(tp) if f.metadata.get("saved", True)}
        for key in value:
            if key not in known:
                raise ConfigError(f"{_join(path, key)}: unknown field")
        hints = typing.get_type_hints(tp)
        kwargs = {}
        for name, f in known.items():
            if name in value:
                kwargs[name] = _decode(hints[name], value[name],
                                       _join(path, name))
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{_join(path, name)}: missing field")
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"{where}{exc}") from None
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # written as ``X | None``
        return None if value is None else _decode(args[0], value, path)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            fail("list")
        items = [_decode(args[0], v, f"{path}[{i}]")
                 for i, v in enumerate(value)]
        return items if origin is list else tuple(items)
    if origin is dict:
        if not isinstance(value, dict):
            fail("object")
        return {k: _decode(args[1], v, _join(path, k)) for k, v in value.items()}
    if tp is np.ndarray:
        try:
            arr = np.asarray(value)
        except ValueError:  # ragged nesting
            fail("array of numbers")
        if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
            fail("array of finite numbers")
        return arr.astype(np.float64)
    if tp is float and type(value) in (int, float) \
            and abs(value) <= sys.float_info.max:  # finite, fits a float
        return float(value)
    if tp in (bool, int, str) and type(value) is tp:  # True is no int here
        return value
    fail("finite float" if tp is float else tp.__name__)


# --- model files ---

_MODEL_KINDS = {"pls": PlsModel, "grnn": GrnnModel, "ctes": CtesModel,
                "se-ctes": EnsembleModel}


def save_model(model, path) -> None:
    """Versioned JSON model file holding the model's dataclass fields;
    floats at 17 significant digits."""
    kinds = [k for k, cls in _MODEL_KINDS.items() if type(model) is cls]
    if not kinds:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    text = dumps_canonical({"format_version": MODEL_FORMAT_VERSION,
                            "kind": kinds[0], "payload": model})
    with open(path, "w") as fh:
        fh.write(text)


def load_model(path):
    """Load a model file; an unknown version or kind, or a corrupt or
    incomplete payload, raises :class:`ModelFormatError`."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"corrupt model file {path}: {exc.msg} "
                                   f"at offset {exc.pos}") from exc
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format version {version!r}; this build reads "
            f"version {MODEL_FORMAT_VERSION}")
    kind = doc.get("kind")
    if kind not in _MODEL_KINDS:
        raise ModelFormatError(f"unknown model kind {kind!r}")
    try:
        return _decode(_MODEL_KINDS[kind], doc.get("payload"), "payload")
    except ConfigError as exc:
        raise ModelFormatError(f"corrupt model file {path}: {exc}") from None


# --- experiment configuration ---

@dataclass
class GpSize:
    """The config's ``gp`` block: scalar-to-matrix dataset size."""

    grid: int = GpSimConfig.grid
    images_per_category: int = 32

    def __post_init__(self):
        GpSimConfig(grid=self.grid, images_per_category=self.images_per_category)


@dataclass
class ExperimentConfig:
    """Validated settings of one benchmark run; the JSON config mirrors
    these fields and every one has a default."""

    study: str = "multivariate"
    sigmas: list[float] = field(
        default_factory=lambda: [0.01, 0.03, 0.05, 0.07, 0.09])
    trials: int = 5
    methods: list[str] = field(default_factory=lambda: list(KNOWN_METHODS))
    groups: list[int] = field(default_factory=lambda: [2, 3, 4])
    samples_per_group: int = 200
    train: TrainConfig = field(default_factory=TrainConfig)
    ensemble: EnsembleSize = field(default_factory=EnsembleSize)
    forest: ForestConfig = field(default_factory=ForestConfig)
    beta_grid: list[float] = field(default_factory=list)
    gp: GpSize = field(default_factory=GpSize)
    data_csv: str | None = None
    out_dir: str = "out"
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ConfigError(f"study: must be one of {STUDIES}")
        for name in ("trials", "samples_per_group", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed: must be >= 0")
        for s in self.sigmas:
            if not 0.0 < s < 1.0:
                raise ConfigError(f"sigmas: value {s} outside (0, 1)")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ConfigError(f"methods: unknown method {m!r}; expected "
                                  f"one of {KNOWN_METHODS}")
        for b in self.beta_grid:
            if not 0.0 <= b <= 1.0:
                raise ConfigError(f"beta_grid: value {b} outside [0, 1]")
        for name in ("methods", "sigmas", "groups", "beta_grid"):
            values = getattr(self, name)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{name}: value {repeated[0]!r} appears "
                                  f"more than once")
        if self.study == "scalar-to-matrix":  # the conv stacks' depth
            if self.beta_grid or set(self.methods) - {"pls", "grnn"}:
                try:  # adversarial generators; pls and grnn read any grid
                    _conv_stack_depth((self.gp.grid, self.gp.grid))
                except ConfigError as exc:
                    raise ConfigError(f"gp.grid: {exc}") from None
            try:
                conv_encoder_spec(int(np.log2(self.gp.grid)),
                                  self.train.conv_channels)
            except ConfigError as exc:
                raise ConfigError(f"train.{exc}") from None
        top = STUDY_TABLE[self.study].groups
        for g in self.groups:
            if g < 1:
                raise ConfigError(f"groups: group {g} is below 1")
            if top is not None and g > top:
                raise ConfigError(f"groups: group {g} exceeds the {top} "
                                  f"groups the {self.study} study simulates")


def build_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON document into an :class:`ExperimentConfig`;
    violations name the offending field."""
    return _decode(ExperimentConfig, raw, "")


def parse_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config, filling defaults."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at offset {exc.pos}: "
                              f"{exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return build_config(raw)


# --- the benchmark grid ---

def _method_settings(cfg: ExperimentConfig) -> MethodSettings:
    return MethodSettings(train=cfg.train, forest=cfg.forest,
                          ensemble=cfg.ensemble)


def _multivariate_data(cfg: ExperimentConfig, sigma, trial: int):
    return gen_multivariate_dataset(SimConfig(
        sigma=sigma, samples_per_group=cfg.samples_per_group,
        seed=stable_seed(cfg.master_seed, "data", sigma, trial)))


def _gp_data(cfg: ExperimentConfig, sigma, trial: int):
    return gen_scalar_to_matrix_dataset(GpSimConfig(
        grid=cfg.gp.grid, images_per_category=cfg.gp.images_per_category,
        seed=stable_seed(cfg.master_seed, "data", "gp", trial)))


def _csv_data(cfg: ExperimentConfig, sigma, trial: int):
    if not cfg.data_csv:
        raise ConfigError(f"data_csv: required for the {cfg.study} study")
    return read_dataset_csv(cfg.data_csv)


# The rows call the protocols through this module's names, so that a
# tracer or test patching them here sees every job.
def _identify_row(dataset, group, method, settings, seed) -> dict:
    rep = identify_group_experiment(dataset, group, method, settings,
                                    seed=seed)
    c = rep.confusion
    return {"A1": rep.a1, "A2": rep.a2, "TP": c.tp, "FP": c.fp, "FN": c.fn,
            "TN": c.tn}


def _risk_row(dataset, group, method, settings, seed) -> dict:
    rep = risk_difference_eval(dataset, group, method, settings, seed=seed)
    return {"mean_abs_diff": rep.mean_abs_diff, "std": rep.std, "n": rep.n}


@dataclass(frozen=True)
class Study:
    """How a study makes its data, runs one job and lays out its reports."""

    dataset: typing.Callable  # (cfg, sigma, trial) -> PairedDataset
    row: typing.Callable  # (dataset, group, method, settings, seed) -> columns
    sim_file: str | None  # ``simulate``'s file name; None: reads data_csv
    sweeps_sigma: bool    # one dataset per configured sigma
    groups: int | None    # the simulated group count; None: data_csv's
    keys: tuple           # trial CSV key columns, ``trial`` last
    values: tuple         # trial CSV value columns, as ``row`` names them
    stds: dict            # averaged value column -> its summary std column
    summary: tuple        # summary CSV columns


_IDENTIFY = dict(row=_identify_row, keys=("method", "sigma", "group", "trial"),
                 values=("A1", "A2", "TP", "FP", "FN", "TN"),
                 stds={"A1": "A1_std", "A2": "A2_std"},
                 summary=("method", "sigma", "group", "A1", "A1_std", "A2",
                          "A2_std"))
STUDY_TABLE = {
    "multivariate": Study(_multivariate_data,
                          sim_file="multivariate_sigma{sigma:g}.csv",
                          sweeps_sigma=True, groups=SimConfig.groups,
                          **_IDENTIFY),
    "scalar-to-matrix": Study(_gp_data, sim_file="scalar_to_matrix.csv",
                              sweeps_sigma=False,
                              groups=GpSimConfig.categories, **_IDENTIFY),
    "tabular-risk": Study(
        _csv_data, _risk_row, sim_file=None, sweeps_sigma=False, groups=None,
        keys=("method", "group", "trial"), values=("mean_abs_diff", "std", "n"),
        stds={"mean_abs_diff": "std"},
        summary=("method", "group", "mean_abs_diff", "std", "n_trials")),
}
STUDIES = tuple(STUDY_TABLE)


def _run_job(cfg: ExperimentConfig, job: dict) -> dict:
    """One grid cell; returns a result row (or an error marker)."""
    started = time.monotonic()
    study = STUDY_TABLE[cfg.study]
    try:
        dataset = study.dataset(cfg, job["sigma"], job["trial"])
        row = study.row(dataset, job["group"], job["method"],
                        _method_settings(cfg), job["seed"])
        status, error = "ok", None
    except Exception as exc:  # recorded in the manifest, suite continues
        row, status, error = {}, "failed", f"{type(exc).__name__}: {exc}"
    return {**job, "status": status, "error": error,
            "wall_time": time.monotonic() - started, "row": row}


def _job_key(job: dict):
    return (job["method"], -1.0 if job["sigma"] is None else job["sigma"],
            job["group"], job["trial"])


def _write_summary(path, study: Study, rows: list[dict]) -> None:
    """Mean and sample std over trials of each averaged column, per
    trial CSV key without ``trial``."""
    summary = aggregate_trials(rows, study.keys[:-1], study.stds) \
        if rows else []
    _write_csv(path, study.summary,
               [[s[c] for c in study.summary] for s in summary])


def _sigma_axis(cfg: ExperimentConfig) -> list:
    """The config's sigmas, or [None] for a study without a sigma axis;
    an empty axis raises :class:`ConfigError` naming it."""
    if not STUDY_TABLE[cfg.study].sweeps_sigma:
        return [None]
    if not cfg.sigmas:
        raise ConfigError("sigmas: empty, so the grid has no jobs")
    return cfg.sigmas


def enumerate_jobs(cfg: ExperimentConfig) -> list[dict]:
    """The (method x sigma x group x trial) grid with derived seeds;
    the tuning sweep adds one extra method label per grid beta, written
    so that it parses back to exactly that beta. An empty axis raises
    :class:`ConfigError` naming it."""
    methods = list(cfg.methods)
    methods += [f"ctes[beta={b!r}]" for b in cfg.beta_grid]
    sigmas = _sigma_axis(cfg)
    for name, axis in (("methods", methods), ("groups", cfg.groups)):
        if not axis:
            raise ConfigError(f"{name}: empty, so the grid has no jobs")
    return [{"method": m, "sigma": s, "group": g, "trial": t,
             "seed": stable_seed(cfg.master_seed, m, s, g, t)}
            for m in methods for s in sigmas for g in cfg.groups
            for t in range(cfg.trials)]


def run_suite(cfg: ExperimentConfig) -> dict:
    """Execute the (method x sigma x group x trial) grid and write the
    per-trial CSV, the aggregated summary CSV, and a run manifest.

    Returns the manifest dict; ``n_failed`` is nonzero if any job failed.
    """
    study = STUDY_TABLE[cfg.study]
    jobs = enumerate_jobs(cfg)
    if study.sim_file is None:  # a bad data_csv fails here, not per job
        study.dataset(cfg, None, 0)
    os.makedirs(cfg.out_dir, exist_ok=True)

    log.info("running %d jobs with %d workers", len(jobs), cfg.workers)
    with task_pool(len(jobs), cfg.workers) as pool:
        started = time.monotonic()
        futures = [pool.submit(_run_job, cfg, job) for job in jobs]
        results = []
        for job, future in zip(jobs, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool:  # a worker died; finished jobs stay
                results.append({**job, "status": "failed",
                                "error": "worker died",
                                "wall_time": time.monotonic() - started})
    results.sort(key=_job_key)

    ok = [{**r, **r["row"]} for r in results if r["status"] == "ok"]
    _write_csv(os.path.join(cfg.out_dir, f"{cfg.study}_trials.csv"),
               study.keys + study.values,
               [[r[c] for c in study.keys + study.values] for r in ok])
    _write_summary(os.path.join(cfg.out_dir, f"{cfg.study}_summary.csv"),
                   study, ok)

    # how and where a run executes does not change what it computes
    experiment = {f.name: getattr(cfg, f.name) for f in fields(cfg)
                  if f.name not in ("workers", "out_dir")}
    config_hash = hashlib.sha256(
        dumps_canonical(experiment).encode()).hexdigest()
    manifest = {
        "config_hash": config_hash,
        "master_seed": cfg.master_seed,
        "n_jobs": len(results),
        "n_failed": sum(r["status"] == "failed" for r in results),
        "jobs": [{k: v for k, v in r.items() if k != "row"}
                 for r in results],
    }
    with open(os.path.join(cfg.out_dir, "manifest.json"), "w") as fh:
        fh.write(dumps_canonical(manifest))
    return manifest


# --- subcommands ---

def _config(args) -> ExperimentConfig:
    """The ``--config`` file, or the defaults, with the flags that set its
    fields: ``--seed`` sets ``master_seed``, and ``bench``'s ``--workers``
    and ``--out`` set ``workers`` and ``out_dir``."""
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    flags = {name: getattr(args, name, None) for name in ("workers", "out_dir")}
    flags["master_seed"] = args.seed
    return replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def cmd_simulate(args) -> int:
    cfg = _config(args)
    study = STUDY_TABLE[cfg.study]
    if study.sim_file is None:
        raise ConfigError(f"simulate: the {cfg.study} study reads data_csv")
    sigmas = _sigma_axis(cfg)
    os.makedirs(args.out, exist_ok=True)
    for sigma in sigmas:
        path = os.path.join(args.out, study.sim_file.format(sigma=sigma))
        write_dataset_csv(study.dataset(cfg, sigma, 0), path)
        print(path)
    return 0


def _config_data(cfg: ExperimentConfig, sigma):
    """Trial 0 of the config's study and the sigma it was drawn at: the
    given one, else the config's first (None for a study without one)."""
    study = STUDY_TABLE[cfg.study]
    sigma = sigma if study.sweeps_sigma else None
    if study.sweeps_sigma and sigma is None:
        if not cfg.sigmas:
            raise ConfigError("sigmas: empty, so pass --sigma")
        sigma = cfg.sigmas[0]
    return study.dataset(cfg, sigma, 0), sigma


def cmd_train(args) -> int:
    cfg = _config(args)
    dataset = read_dataset_csv(args.data) if args.data \
        else _config_data(cfg, args.sigma)[0]
    save_model(fit_method(args.method, _method_settings(cfg), dataset,
                          cfg.master_seed), args.out)
    print(args.out)
    return 0


def cmd_synth(args) -> int:
    if args.count < 1:
        raise ConfigError("--count: must be >= 1")
    model = load_model(args.model)
    seed = args.seed or 0
    if args.x is not None:
        try:
            rows = [np.array([float(v) for v in args.x.split(",")])]
        except ValueError:
            raise ConfigError(f"--x: expected comma-separated numbers, "
                              f"got {args.x!r}") from None
        source, seeds = "--x", [seed]
    else:
        source, rows = args.data, read_dataset_csv(args.data).x
        seeds = [stable_seed(seed, i) for i in range(len(rows))]
    try:
        batch = np.vstack([
            sample_model(model, np.repeat(row[None, :], args.count, axis=0),
                         np.random.default_rng(s))
            for row, s in zip(rows, seeds)])
    except ValueError as exc:  # non-finite or wrong-width characteristics
        raise ConfigError(f"{source}: {exc}") from None
    header = [f"y{j + 1}" for j in range(batch.shape[1])]
    _write_csv(args.out, header, batch.tolist())
    print(args.out)
    return 0


def cmd_validate(args) -> int:
    cfg = _config(args)
    study = STUDY_TABLE[cfg.study]
    dataset, sigma = _config_data(cfg, args.sigma)
    row = study.row(dataset, args.group, args.method, _method_settings(cfg),
                    cfg.master_seed)
    shown = {"method": args.method, "sigma": sigma, "group": args.group}
    cells = [f"{k}={shown[k]}" for k in study.keys[:-1]]
    cells += [f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
              for k, v in row.items()]
    print(" ".join(cells))
    return 0


def cmd_bench(args) -> int:
    cfg = _config(args)
    manifest = run_suite(cfg)
    print(f"jobs: {manifest['n_jobs']}  failed: {manifest['n_failed']}  "
          f"out: {cfg.out_dir}")
    return 1 if manifest["n_failed"] else 0


def cmd_report(args) -> int:
    study, rows = None, []
    for path in args.inputs:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            header = tuple(reader.fieldnames or ())
            layout = next((s for s in STUDY_TABLE.values()
                           if header[:len(s.keys)] == s.keys), None)
            if layout is None:
                raise ConfigError(f"{path}: unknown trials CSV header "
                                  f"{','.join(header)!r}")
            if study is not None and layout.keys != study.keys:
                raise ConfigError(f"{path}: trials CSV layout differs from "
                                  f"that of {args.inputs[0]}")
            study = layout
            try:
                for row in reader:
                    cells = {c: float(row[c]) for c in study.stds}
                    cells.update(method=row["method"], group=int(row["group"]))
                    if "sigma" in study.keys:  # empty in a study without one
                        sigma = row["sigma"]
                        cells["sigma"] = float(sigma) if sigma else None
                    if not np.isfinite([v for v in cells.values()
                                        if type(v) is float]).all():
                        raise ValueError("non-finite number")
                    rows.append(cells)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{path}, line {reader.line_num}: missing "
                                  f"or malformed cell ({exc})") from None
    _write_summary(args.out, study, rows)
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectes",
        description="Selective-ensemble characteristic-to-expression "
                    "synthesis experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="emit study datasets as CSV")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="fit one method and save a model file")
    p.add_argument("--config", default=None)
    p.add_argument("--method", required=True)
    p.add_argument("--data", default=None, help="dataset CSV (default: simulate)")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="model file path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("synth", help="generate expressions from a model file")
    p.add_argument("--model", required=True)
    rows = p.add_mutually_exclusive_group(required=True)
    rows.add_argument("--x", help="comma-separated characteristic")
    rows.add_argument("--data", help="CSV of characteristics")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate", help="run a single identify-group experiment")
    p.add_argument("--config", default=None)
    p.add_argument("--method", required=True)
    p.add_argument("--group", type=int, required=True)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="run the full benchmark grid")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", dest="out_dir", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="aggregate per-trial CSVs")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("CTES_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError("--seed: must be >= 0")
        return args.func(args)
    except (ValueError, OSError) as exc:  # incl. ConfigError, ModelFormatError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
