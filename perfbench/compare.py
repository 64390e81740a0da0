"""Compare benchmark result files from two commits.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the ``--out`` files of ``perfbench/run.py`` for one
commit. Runs are paired by (workload, trace, seed); make at least ten
pairs per workload with the same ``--seconds``, alternating which commit
runs first. For each (metric, workload) this prints both sides' median
and quartiles, the head/base ratio of the medians, the pairs the head
wins and loses, and a verdict:

* ``improved``: the head wins at least nine tenths of at least ten pairs
  (ties count for neither) and the medians differ by more than the
  base's quartile spread;
* ``unresolved``: the run-to-run spread of either side is wider than the
  metric's bound, unless every head run reads better than every base run;
* ``worse``: the head median is worse than the base median by more than
  the bound (metrics without a bound: the improved rule, reversed);
* ``within bound`` otherwise (``no claim`` for metrics without a bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list, head: list, better: str, bound) -> dict:
    """Judge one (metric, workload) from seed-paired base/head values."""
    sign = 1.0 if better == "lower" else -1.0   # > 0 means the head is worse
    wins = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    n = len(base)
    (b1, bm, b3), (h1, hm, h3) = quartiles(base), quartiles(head)
    apart = abs(hm - bm) > (b3 - b1)
    worse_by = sign * (hm - bm) / abs(bm) if bm else 0.0
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (h3 - h1) / abs(hm) if hm else 0.0)
    all_better = (max(head) < min(base) if better == "lower"
                  else min(head) > max(base))
    if n >= MIN_PAIRS and wins >= WIN_SHARE * n and apart:
        label = "improved"
    elif bound is None:
        label = ("worse" if n >= MIN_PAIRS and losses >= WIN_SHARE * n
                 and apart else "no claim")
    elif spread > bound and not all_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    else:
        label = "within bound"
    return {"base": (b1, bm, b3), "head": (h1, hm, h3), "wins": wins,
            "losses": losses, "pairs": n, "ratio": hm / bm if bm else None,
            "verdict": label}


def load(directory: Path) -> dict:
    """{(workload, trace): {seed: metrics}} from one commit's result files."""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        env = doc["env"]
        key = (env["workload"], env["trace"])
        runs.setdefault(key, {})[env["seed"]] = {
            k: m["value"] for k, m in doc["result"]["metrics"].items()}
    return runs


def compare(base_dir: Path, head_dir: Path, spec: dict) -> list:
    kinds = {m["name"]: m for kind in ("end_to_end", "per_layer")
             for m in spec[kind]}
    base, head = load(base_dir), load(head_dir)
    rows = []
    for key in sorted(set(base) & set(head)):
        seeds = sorted(set(base[key]) & set(head[key]))
        if not seeds:
            continue
        names = [n for n in kinds if n in base[key][seeds[0]]]
        for name in names:
            m = kinds[name]
            row = verdict([base[key][s][name] for s in seeds],
                          [head[key][s][name] for s in seeds],
                          m["better"], m.get("bound"))
            rows.append({"workload": key[0], "trace": key[1],
                         "metric": name, "unit": m["unit"], **row})
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base", type=Path, help="result files of the parent")
    p.add_argument("head", type=Path, help="result files of the change")
    args = p.parse_args(argv)
    rows = compare(args.base, args.head, json.loads(SPEC.read_text()))
    if not rows:
        print("error: no (workload, trace, seed) appears on both sides",
              file=sys.stderr)
        return 2
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    table = [["workload", "trace", "metric", "unit", "base q1/med/q3",
              "head q1/med/q3", "head/base", "wins-losses/pairs", "verdict"]]
    for r in rows:
        table.append([r["workload"], str(r["trace"]), r["metric"], r["unit"],
                      fmt(r["base"]), fmt(r["head"]),
                      "-" if r["ratio"] is None else f"{r['ratio']:.4f}",
                      f"{r['wins']}-{r['losses']}/{r['pairs']}", r["verdict"]])
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
