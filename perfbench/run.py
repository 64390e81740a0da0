"""sectes benchmark: one named workload, end-to-end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload se-ctes-job --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones in BENCHMARK.json, with ``--trace 1``
the per-layer ones. Timed end-to-end metrics are scaled to a host on
which the fixed kernel in ``reference.py`` takes one second. Earlier
lines are a readable report that also names the failure ratio, the
job-time tail and the unscaled times. ``--out FILE`` keeps the result,
its raw samples and the recorded environment for ``perfbench/compare.py``.
"""

import time

_T0 = time.perf_counter()  # set-up probes time imports from here

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS thread per process, so suite-grid's 2 workers use 2 cores; set
# before numpy loads, and inherited by every child process.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _key in BLAS_ENV:
    os.environ[_key] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

TRACED_OPS = 2     # two traced repetitions, so exact counts compare
SETUP_PROBES = 5   # fresh-process set-ups per run; setup_s is their median


def _import_program():
    if not (SRC / "sectes" / "__init__.py").is_file():
        raise SystemExit(f"error: no sectes sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sectes  # noqa: F401  (fails loudly before any result is printed)


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _probe_setup(name: str, seed: int, tiny: bool) -> float:
    """Cold set-up in a fresh interpreter: imports, data, warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _prepared(name: str, seed: int, tiny: bool, out_root: Path):
    import workloads
    wl = workloads.WORKLOADS[name]
    state = wl.prepare(seed, tiny, str(out_root))
    wl.warm_up(state)
    return wl, state


def _check_digests(ops) -> None:
    """Every repetition of a job must give the first one's result digest."""
    first = None
    for op in ops:
        if not op.digest:
            continue
        first = first or op.digest
        if op.digest != first:
            op.errors.append("result digest differs from the first "
                             "repetition of the same job")
            op.failed = op.jobs


def tail_line(samples: list) -> str:
    """The highest percentile with ten samples beyond it, if any."""
    n = len(samples)
    if n <= 10:
        return f"n={n} samples, too few for a tail percentile"
    pct = math.floor(100.0 * (n - 10) / n)
    return f"p{pct} {sorted(samples)[n - 11]:.4f} s over n={n} samples"


def _result(ops, metrics: dict, units: dict) -> dict:
    attempted = sum(o.jobs for o in ops)
    failed = sum(o.failed for o in ops)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in _spec()[kind]}


def run_untraced(name, seed, seconds, tiny, out_root):
    import reference
    setup = [_probe_setup(name, seed, tiny) for _ in range(SETUP_PROBES)]
    wl, state = _prepared(name, seed, tiny, out_root)
    ops = []
    with reference.Reference(wl.workers) as ref:
        started = time.perf_counter()
        ref.sample()
        while True:
            ops.append(wl.op(state))
            # reference samples worth about a tenth of the operation's time
            for _ in range(max(1, round(ops[-1].wall / 10))):
                ref.sample()
            elapsed = time.perf_counter() - started
            est = statistics.median(o.wall for o in ops)
            if elapsed + est / 2 >= seconds:
                break
    _check_digests(ops)

    attempted, failed = sum(o.jobs for o in ops), sum(o.failed for o in ops)
    good = [o for o in ops if not o.failed]
    a1 = [v for o in good for v in o.a1]
    a2 = [v for o in good for v in o.a2]
    job_walls = [w for o in ops for w in o.job_walls]
    # a suite op's job time is its mean per-job wall time in the pool
    job_s = statistics.median(
        [statistics.fmean(o.job_walls) for o in ops if o.job_walls] or [0.0])
    jobs_per_s = statistics.median((o.jobs - o.failed) / o.wall for o in ops)
    slow = ref.slowdown()
    metrics = {
        "job_s": job_s / slow,
        "jobs_per_s": jobs_per_s * slow,
        "a_mean": statistics.fmean((x + y) / 2 for x, y in zip(a1, a2))
        if a1 else 0.0,
        "a2": statistics.fmean(a2) if a2 else 0.0,
        "setup_s": statistics.median(setup) / slow,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [f"ops={len(ops)} loop_s={elapsed:.3f} "
             f"op_walls={[round(o.wall, 4) for o in ops]}",
             f"reference_s={[round(r, 4) for r in ref.samples]}; unscaled "
             f"job_s {job_s:.6g} s, jobs_per_s {jobs_per_s:.6g} 1/s, "
             f"setup_s {statistics.median(setup):.6g} s",
             f"fail_ratio {failed / attempted:.6g} ratio "
             f"({failed} of {attempted} jobs failed)",
             f"a1 {statistics.fmean(a1) if a1 else float('nan'):.6f} fraction",
             f"job_s tail: {tail_line(job_walls)}",
             f"setup_s samples {[round(s, 4) for s in setup]}"]
    samples = {"op_walls": [o.wall for o in ops], "job_walls": job_walls,
               "setup_s": setup, "reference_s": ref.samples,
               "unscaled": {"job_s": job_s, "jobs_per_s": jobs_per_s,
                            "setup_s": statistics.median(setup)}}
    return ops, metrics, notes, samples


def run_traced(name, seed, tiny, out_root):
    import tracer
    wl, state = _prepared(name, seed, tiny, out_root)
    suite = wl.name == "suite-grid"
    first = wl.op(state)  # untraced; for suite-grid the 2-worker pass
    base = wl.op(state, workers=1) if suite else first
    untraced = [first, base] if suite else [first]

    tr = tracer.Tracer()
    traced, exact = [], []
    with tracer.installed(tr):
        for k in range(TRACED_OPS):
            lo, counts0 = len(tr.names), dict(tr.counts)
            with tr.span("bench.setup"):
                st = wl.prepare(seed, tiny, str(out_root / f"traced{k}"))
            with tr.span("bench.op"):
                traced.append(wl.op(st, workers=1))
            diff = {key: v - counts0.get(key, 0.0)
                    for key, v in tr.counts.items()}
            exact.append(tracer.exact_counts(
                tracer.span_totals(tr, lo, len(tr.names)), diff))
    _check_digests(untraced + traced)
    for op, counts in zip(traced[1:], exact[1:]):
        if counts != exact[0]:
            op.errors.append(f"exact counts differ: {counts} != {exact[0]}")
            op.failed = op.jobs
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{name}-seed{seed}.tsv")

    metrics = tracer.layer_metrics(tracer.span_totals(tr, 0, len(tr.names)),
                                   tr.counts, TRACED_OPS)
    if suite:
        busy = sum(first.job_walls)
        metrics["cli.pool_idle_share"] = 1.0 - busy / (wl.workers * first.wall)
        metrics["cli.job_wall_max_s"] = max(first.job_walls)
    else:  # the cli layer does not run in a single-job workload
        metrics["cli.pool_idle_share"] = 0.0
        metrics["cli.job_wall_max_s"] = 0.0
    metrics["trace.overhead_ratio"] = (
        statistics.median(o.wall for o in traced) / base.wall)
    notes = [f"untraced_walls={[round(o.wall, 4) for o in untraced]} "
             f"traced_walls={[round(o.wall, 4) for o in traced]}",
             f"exact counts per traced op: {exact[0]}",
             f"spans: {len(tr.names)} written to "
             f"{OUT.name}/spans-{name}-seed{seed}.tsv"]
    samples = {"untraced_walls": [o.wall for o in untraced],
               "traced_walls": [o.wall for o in traced]}
    return untraced + traced, metrics, notes, samples


def run_workload(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result line, notes, samples)."""
    out_root = OUT / f"run-{os.getpid()}-{name}-{trace}"
    out_root.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            ops, metrics, notes, samples = run_traced(name, seed, tiny,
                                                      out_root)
        else:
            ops, metrics, notes, samples = run_untraced(name, seed, seconds,
                                                        tiny, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    units = _units("per_layer" if trace else "end_to_end")
    result = _result(ops, metrics, units)
    notes += [f"error: {e}" for o in ops for e in o.errors]
    return result, notes, samples


def setup_probe(args) -> int:
    _import_program()
    out_root = OUT / f"probe-{os.getpid()}"
    out_root.mkdir(parents=True, exist_ok=True)
    try:
        _prepared(args.workload, args.seed, args.tiny, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))
    return 0


def smoke() -> int:
    """Tiny sizes through every workload, traced and untraced: every named
    metric must be printed and every output check must pass. Timing is
    not judged."""
    _import_program()
    spec = _spec()
    problems = []
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            started = time.perf_counter()
            result, notes, _ = run_workload(w["name"], 0, 0, trace, tiny=True)
            want = {m["name"] for m in spec[kind]}
            got = result["metrics"]
            issues = [n for n in notes if n.startswith("error:")]
            if set(got) != want:
                issues.append(f"missing {sorted(want - set(got))}, "
                              f"unexpected {sorted(set(got) - want)}")
            bad = [k for k, m in got.items()
                   if not (isinstance(m["value"], float)
                           and math.isfinite(m["value"]))]
            if bad:
                issues.append(f"non-finite {bad}")
            if not result["correct"]:
                issues.append(f"{result['failed']} of {result['attempted']} "
                              "jobs failed")
            status = "ok" if not issues else "FAIL " + "; ".join(issues)
            print(f"smoke {w['name']} trace={trace} "
                  f"{time.perf_counter() - started:.1f}s {status}", flush=True)
            problems += issues
    print(json.dumps({"smoke_ok": not problems, "problems": len(problems)}))
    return 0 if not problems else 1


def stop_children() -> None:
    """Stop multiprocessing's helper processes (the resource tracker that a
    spawned pool starts, and a fork server) and wait for every child, so
    that no process this run started outlives it."""
    from multiprocessing import forkserver, resource_tracker
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the result, samples and "
                                 "environment to this JSON file")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes through every workload; no timing")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    _import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; expected one of "
                f"{sorted(workloads.WORKLOADS)}")
    env = environment(args)
    result, notes, samples = run_workload(args.workload, args.seed,
                                          args.seconds, args.trace, args.tiny)
    print("# env " + json.dumps(env, sort_keys=True))
    for line in notes:
        print("# " + line)
    for key, m in result["metrics"].items():
        print(f"# {key} {m['value']:.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"env": env, "result": result, "samples": samples,
                       "notes": notes}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
