"""Compare two suite outputs of ``run.py --out``: parent A, change B.

    python3 bench/compare.py A.json B.json

One row per workload x end-to-end metric: both medians, the change as a
share of A's median (the base of every ratio here), the bound from
BENCHMARK.json, and a verdict:

* ``worse``      B's median is worse than A's by more than the bound, and
                 the runs can resolve it;
* ``unresolved`` the run-to-run spread of either side is wider than the
                 bound, so neither "unchanged" nor "worse" can be said —
                 unless every run of B reads better (or worse) than every
                 run of A;
* ``better``     B wins at least nine tenths of the paired runs (ties
                 count for neither) and the medians differ by more than
                 the distance between A's own quartiles;
* ``same``       none of the above.

Under each metric that is reported at the reference host speed
(``tx_per_s``, ``setup_s``, ``latency_p50_ms``) stands its ``*_raw`` row,
the same runs as measured, judged against the same bound and marked
``not gated``: a verdict the two rows disagree on is the scaling's, not
the program's. The metrics the suite reports as unresolved
(``latency_p99_ms``, ``reads_per_s``, ``read_latency_p99_ms``) get a row
too, judged against the widest bound a metric may have (25%) and marked
``not gated``.

Exits 1 if any gated row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stats

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: The widest bound the benchmark contract allows a metric.
WIDEST_BOUND = 0.25


def is_better(b: float, a: float, better: str) -> bool:
    return b > a if better == "higher" else b < a


def verdict(a_values, b_values, better: str, bound: float) -> dict:
    """Judge one workload x metric from the per-run values of each side."""
    a_mid, b_mid = stats.median(a_values), stats.median(b_values)
    # Positive: B is worse than A, as a share of A's median.
    worse_by = (a_mid - b_mid if better == "higher" else b_mid - a_mid) / a_mid
    spread = max(
        stats.relative_spread(a_values), stats.relative_spread(b_values)
    )
    all_better = all(
        is_better(b, a, better) for a in a_values for b in b_values
    )
    all_worse = all(
        is_better(a, b, better) for a in a_values for b in b_values
    )
    pairs = list(zip(a_values, b_values))
    wins = sum(1 for a, b in pairs if is_better(b, a, better))
    if worse_by > bound and (spread <= bound or all_worse):
        label = "worse"
    elif all_better and abs(b_mid - a_mid) > stats.iqr(a_values):
        label = "better"
    elif spread > bound:
        label = "unresolved"
    elif (wins >= 0.9 * len(pairs)
          and abs(b_mid - a_mid) > stats.iqr(a_values)):
        label = "better"
    else:
        label = "same"
    return {
        "a_median": a_mid,
        "b_median": b_mid,
        "worse_by": worse_by,
        "spread": spread,
        "wins": wins,
        "pairs": len(pairs),
        "verdict": label,
    }


def compare(a_doc: dict, b_doc: dict, benchmark: dict) -> list:
    rows = []

    def row(workload, metric, unit, better, a_values, b_values, bound,
            gated):
        entry = verdict(a_values, b_values, better, bound)
        entry.update(workload=workload, metric=metric, unit=unit,
                     bound=bound, gated=gated)
        rows.append(entry)

    for name, a_entry in a_doc["workloads"].items():
        b_entry = b_doc["workloads"].get(name)
        if b_entry is None:
            continue
        a_raw, b_raw = a_entry.get("raw", {}), b_entry.get("raw", {})
        for metric in benchmark["end_to_end"]:
            key, unit, better = (
                metric["name"], metric["unit"], metric["better"]
            )
            row(name, key, unit, better,
                a_entry["end_to_end"][key]["values"],
                b_entry["end_to_end"][key]["values"],
                metric["bound"], gated=True)
            raw_key = key + "_raw"
            if raw_key in a_raw and raw_key in b_raw:
                row(name, raw_key, unit, better, a_raw[raw_key],
                    b_raw[raw_key], metric["bound"], gated=False)
        for key, a_cell in a_entry.get("unresolved", {}).items():
            b_cell = b_entry.get("unresolved", {}).get(key)
            if b_cell is not None:
                row(name, key, a_cell["unit"], a_cell["better"],
                    a_cell["values"], b_cell["values"], WIDEST_BOUND,
                    gated=False)
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(path).read_text()) for path in argv)
    benchmark = json.loads(BENCHMARK_JSON.read_text())
    rows = compare(a_doc, b_doc, benchmark)
    print(f"{'workload':22s}{'metric':22s}{'A median':>12s}{'B median':>12s}"
          f"{'B worse by':>12s}{'bound':>7s}{'spread':>8s}{'wins':>7s}"
          f"  verdict")
    for row in rows:
        print(
            f"{row['workload']:22s}{row['metric']:22s}"
            f"{row['a_median']:12.4g}{row['b_median']:12.4g}"
            f"{row['worse_by'] * 100:+11.1f}%{row['bound'] * 100:6.0f}%"
            f"{row['spread'] * 100:7.1f}%"
            f"{row['wins']:4d}/{row['pairs']:<2d}  {row['verdict']}"
            f"{'' if row['gated'] else ' (not gated)'} "
            f"({row['unit']}; % of A's median)"
        )
    return 1 if any(
        row["gated"] and row["verdict"] == "worse" for row in rows
    ) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
