"""Compare two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py --base RESULTS_A --new RESULTS_B

Each side is a list of result files or directories of them, as written by
``run.py`` (untraced runs only; traced runs are skipped). For every workload
and end-to-end metric it prints each side's median and quartiles, the share
of paired runs the new side wins (runs are paired by seed where both sides
have it, otherwise every run is paired with every run; ties count for
neither) and a label against the bound in BENCHMARK.json:

- regressed:  the new median is worse than the base median by more than the bound;
- improved:   the new side wins at least 9/10 of the pairs and the medians differ
              by more than the base quartile distance;
- unresolved: the base runs spread (quartile distance / median) wider than the
              bound, unless every new run is better than every base run;
- unchanged:  otherwise.

The error rate (failed / attempted) is listed too; any failure on the new
side labels it regressed. Exit code 1 when anything regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(paths: list[Path]) -> dict[str, list[dict]]:
    """Untraced records grouped by workload."""
    files: list[Path] = []
    for p in paths:
        files.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for f in files:
        record = json.loads(f.read_text())
        if record.get("trace") == 0:
            by_workload[record["workload"]].append(record)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    new_by_seed = {r["seed"]: r for r in new}
    matched = [(b, new_by_seed[b["seed"]]) for b in base if b["seed"] in new_by_seed]
    return matched or [(b, n) for b in base for n in new]


def compare_metric(
    base: list[float], new: list[float], paired: list[tuple[float, float]],
    higher_is_better: bool, bound: float,
) -> dict:
    sign = 1.0 if higher_is_better else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    wins = sum(sign * (n - b) > 0 for b, n in paired) / len(paired)
    worse_by = sign * (bmed - nmed) / abs(bmed) if bmed else 0.0
    spread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
    every_new_better = min(sign * n for n in new) > max(sign * b for b in base)
    if worse_by > bound:
        label = "regressed"
    elif wins >= 0.9 and abs(nmed - bmed) > bq3 - bq1:
        label = "improved"
    elif spread > bound and not every_new_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {"base": (bq1, bmed, bq3), "new": (nq1, nmed, nq3), "wins": wins, "label": label}


def compare(base: dict[str, list[dict]], new: dict[str, list[dict]], spec: dict) -> list[dict]:
    rows = []
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        paired = pairs(b_runs, n_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def value(r: dict) -> float:
                return r["metrics"][name]["value"]

            row = compare_metric(
                [value(r) for r in b_runs], [value(r) for r in n_runs],
                [(value(b), value(n)) for b, n in paired],
                metric["better"] == "higher", metric["bound"],
            )
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"], **row})

        def error_rate(r: dict) -> float:
            return r["failed"] / r["attempted"]

        rows.append({
            "workload": workload, "metric": "error_rate", "unit": "ratio",
            "base": quartiles([error_rate(r) for r in b_runs]),
            "new": quartiles([error_rate(r) for r in n_runs]),
            "wins": sum(error_rate(n) < error_rate(b) for b, n in paired) / len(paired),
            "label": "regressed" if any(error_rate(r) > 0 for r in n_runs) else "unchanged",
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of benchmark results")
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load_records(args.base), load_records(args.new)
    rows = compare(base, new, spec)
    if not rows:
        print("no workload has untraced results on both sides", file=sys.stderr)
        return 2
    print(
        f"{'workload':14s} {'metric':16s} {'unit':8s} "
        f"{'base q1/med/q3':>32s} {'new q1/med/q3':>32s} {'wins':>5s}  label"
    )
    for r in rows:
        b = "/".join(f"{v:.4g}" for v in r["base"])
        n = "/".join(f"{v:.4g}" for v in r["new"])
        print(
            f"{r['workload']:14s} {r['metric']:16s} {r['unit']:8s} "
            f"{b:>32s} {n:>32s} {r['wins']:5.2f}  {r['label']}"
        )
    for side, records in (("base", base), ("new", new)):
        for workload, runs in sorted(records.items()):
            print(f"{side}: {workload}: {len(runs)} runs")
    return 1 if any(r["label"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
