"""The benchmark's workloads, each a closed loop of one client.

Every dataset and job seed derives from the workload seed; the program
receives only the generated inputs. One operation (op) is what the client
issues and waits for: one identify-group job, or one ``run_suite`` pass
over a grid of such jobs.

Why these three:

* ``se-ctes-job`` is the paper's headline job at the published defaults.
  About 65% of it is dense-net adversarial training (``sample_mismatch``
  included) and about 30% binary-class forest fitting; it never touches
  the conv kernels.
* ``matrix-ctes-job`` is the only path through the ndnet conv2d/deconv2d
  kernels: generator/discriminator training at batch 50 and the conv
  validation classifier at batch 64. Forests and mismatch sampling are
  negligible there.
* ``suite-grid`` drives the ``cli`` layer (process pool, per-job data
  regeneration, CSV and manifest writing) over jobs of uneven length, and
  its validation forests are multiclass, the other branch of the forest
  split search.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import shutil
import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from sectes import cli, ctes, datagen, ensemble, forest, validation


def derive_seed(seed: int, *parts) -> int:
    """A 32-bit seed fixed by the workload seed and a label path."""
    words = [seed] + [zlib.crc32(str(p).encode()) for p in parts]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


@dataclass
class OpResult:
    """Outcome of one operation, with its output checks applied."""

    wall: float
    jobs: int                 # identify-group jobs attempted
    failed: int               # jobs that raised, were marked failed or
                              # failed an output check
    a1: list = field(default_factory=list)
    a2: list = field(default_factory=list)
    job_walls: list = field(default_factory=list)
    digest: str = ""
    errors: list = field(default_factory=list)


def _valid_fraction(v) -> bool:
    return isinstance(v, float) and math.isfinite(v) and 0.0 <= v <= 1.0


class IdentifyGroupWorkload:
    """Repeated ``identify_group_experiment`` calls on one generated
    dataset; every repetition of the job must give the same report."""

    workers = 1

    def __init__(self, name, method, group, make_dataset, settings):
        self.name = name
        self.method = method
        self.group = group
        self._make_dataset = make_dataset
        self._settings = settings

    def prepare(self, seed: int, tiny: bool, out_root: str) -> dict:
        return {"dataset": self._make_dataset(derive_seed(seed, self.name,
                                                          "data"), tiny),
                "settings": self._settings(tiny),
                "job_seed": derive_seed(seed, self.name, "job")}

    def warm_up(self, state: dict) -> None:
        """A tiny job on the real dataset, so lazy set-up is paid here."""
        validation.identify_group_experiment(
            state["dataset"], self.group, self.method, self._settings("warm"),
            seed=state["job_seed"])

    def op(self, state: dict, workers: int = 1) -> OpResult:
        started = time.perf_counter()
        try:
            rep = validation.identify_group_experiment(
                state["dataset"], self.group, self.method, state["settings"],
                seed=state["job_seed"])
        except Exception as exc:  # a failed job is counted, the loop goes on
            wall = time.perf_counter() - started
            return OpResult(wall=wall, jobs=1, failed=1, job_walls=[wall],
                            errors=[f"{type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - started
        c = rep.confusion
        ok = (_valid_fraction(rep.a1) and _valid_fraction(rep.a2)
              and min(c.tp, c.fp, c.fn, c.tn) >= 0)
        digest = hashlib.sha256(
            f"{rep.a1!r},{rep.a2!r},{c.tp},{c.fp},{c.fn},{c.tn}".encode()
        ).hexdigest()
        return OpResult(wall=wall, jobs=1, failed=0 if ok else 1,
                        a1=[rep.a1], a2=[rep.a2], job_walls=[wall],
                        digest=digest,
                        errors=[] if ok else [f"bad report {rep!r}"])


def _se_ctes_dataset(seed: int, tiny: bool):
    return datagen.gen_multivariate_dataset(datagen.SimConfig(
        sigma=0.05, samples_per_group=30 if tiny else 200, seed=seed))


def _se_ctes_settings(size):
    """Published defaults: beta 0.9, batch 50, 1000 iterations, k=5, h=2,
    100 trees."""
    iters, k, h, trees = {False: (1000, 5, 2, 100), True: (20, 3, 1, 5),
                          "warm": (3, 3, 1, 2)}[size]
    clf = forest.ForestConfig(n_trees=trees)
    return validation.MethodSettings(
        train=ctes.TrainConfig(beta=0.9, batch_size=50, iterations=iters),
        forest=clf, ensemble=ensemble.EnsembleConfig(k=k, h=h, clf=clf))


MATRIX_ITERATIONS = 30


def _matrix_dataset(seed: int, tiny: bool):
    return datagen.gen_scalar_to_matrix_dataset(datagen.GpSimConfig(
        grid=8 if tiny else 16, images_per_category=4 if tiny else 32,
        seed=seed))


def _matrix_settings(size):
    iters, epochs = {False: (MATRIX_ITERATIONS, 30), True: (3, 2),
                     "warm": (1, 1)}[size]
    return validation.MethodSettings(
        train=ctes.TrainConfig(iterations=iters), classifier_epochs=epochs)


class SuiteGridWorkload:
    """One ``run_suite`` pass per operation over a small multivariate grid
    that mixes cheap (pls, grnn) and adversarial (ctes, cgan) methods."""

    name = "suite-grid"
    workers = 2

    def _config(self, seed: int, size, out_dir: str):
        iters, trees, rows = {False: (500, 100, 200), True: (5, 3, 20),
                              "warm": (2, 2, 20)}[size]
        return cli.build_config({
            "study": "multivariate", "sigmas": [0.03, 0.07], "trials": 1,
            "methods": ["pls", "grnn", "ctes", "cgan"], "groups": [2, 4],
            "samples_per_group": rows, "train": {"iterations": iters},
            "forest": {"n_trees": trees},
            "master_seed": derive_seed(seed, self.name, "master"),
            "workers": self.workers, "out_dir": out_dir})

    def prepare(self, seed: int, tiny: bool, out_root: str) -> dict:
        return {"seed": seed, "out_root": out_root, "passes": 0,
                "config": self._config(seed, tiny, out_root)}

    def warm_up(self, state: dict) -> None:
        out_dir = os.path.join(state["out_root"], "warm")
        cfg = self._config(state["seed"], "warm", out_dir)
        cli.run_suite(replace(cfg, workers=1))
        shutil.rmtree(out_dir)

    def op(self, state: dict, workers: int = 2) -> OpResult:
        state["passes"] += 1
        out_dir = os.path.join(state["out_root"], f"pass{state['passes']}")
        cfg = replace(state["config"], workers=workers, out_dir=out_dir)
        n_jobs = len(cli.enumerate_jobs(cfg))
        started = time.perf_counter()
        try:
            manifest = cli.run_suite(cfg)
        except Exception as exc:
            wall = time.perf_counter() - started
            return OpResult(wall=wall, jobs=n_jobs, failed=n_jobs,
                            errors=[f"{type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - started
        try:
            with open(os.path.join(out_dir, "multivariate_trials.csv"),
                      "rb") as fh:
                trials = fh.read()
            with open(os.path.join(out_dir, "multivariate_summary.csv"),
                      "rb") as fh:
                summary = fh.read()
        finally:
            shutil.rmtree(out_dir)
        rows = list(csv.DictReader(io.StringIO(trials.decode())))
        a1 = [float(r["A1"]) for r in rows]
        a2 = [float(r["A2"]) for r in rows]
        bad = sum(not (_valid_fraction(x) and _valid_fraction(y))
                  for x, y in zip(a1, a2))
        missing = manifest["n_jobs"] - len(rows)
        errors = [f"{j['method']} sigma={j['sigma']} group={j['group']}: "
                  f"{j['error']}" for j in manifest["jobs"]
                  if j["status"] != "ok"]
        if bad:
            errors.append(f"{bad} trial rows with A1/A2 outside [0, 1]")
        return OpResult(
            wall=wall, jobs=manifest["n_jobs"],
            failed=min(manifest["n_jobs"], max(manifest["n_failed"], missing)
                       + bad),
            a1=a1, a2=a2, job_walls=[j["wall_time"] for j in manifest["jobs"]],
            digest=hashlib.sha256(trials + b"\0" + summary).hexdigest(),
            errors=errors)


WORKLOADS = {
    "se-ctes-job": IdentifyGroupWorkload(
        "se-ctes-job", "se-ctes", 4, _se_ctes_dataset, _se_ctes_settings),
    "matrix-ctes-job": IdentifyGroupWorkload(
        "matrix-ctes-job", "ctes", 4, _matrix_dataset, _matrix_settings),
    "suite-grid": SuiteGridWorkload(),
}
