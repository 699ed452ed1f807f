"""Derive the regression bounds from the committed same-code evidence.

    python3 bench/bounds.py            # reads bench/evidence/

``evidence/set_*.json`` are suite outputs (``run.py --seed S --out``) of
one unchanged commit; ``evidence/ten_*.jsonl`` hold the driver's own
invocation, ten seeds x four workloads, one result object a line (README
"Bounds" has both commands). Per metric, the widest reading over the
four workloads:

* ``spread``      IQR / median of same-code runs: the ten runs of a
                  ten-seed set, or the pooled runs of the suite sets;
* ``raw``         the same over the suite sets' ``*_raw`` readings, for
                  the metrics reported at the reference host speed;
* ``set range``   (max - min) / median of the suite sets' medians;
* ``shift``       how much worse a ten-seed set's median reads than the
                  one before it.

The bound is the larger of the issue's rule, max(target, 1.5 x set
range), and the benchmark contract's, three times the widest spread,
rounded up to a multiple of 0.05 and capped at the contract's ceiling of
0.25. A metric whose spread is wider than half that ceiling cannot be
gated at any allowed bound with a margin for a worse day: ``unresolved``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import stats

EVIDENCE_DIR = Path(__file__).resolve().parent / "evidence"
CEILING = 0.25
STEP = 0.05
#: (metric, better, the issue's target bound).
TARGETS = (
    ("setup_s", "lower", 0.25),
    ("tx_per_s", "higher", 0.10),
    ("latency_p50_ms", "lower", 0.10),
    ("rss_mb", "lower", 0.10),
    ("latency_p99_ms", "lower", 0.25),
    ("reads_per_s", "higher", 0.10),
    ("read_latency_p99_ms", "lower", 0.25),
)


def load(evidence_dir=EVIDENCE_DIR) -> tuple:
    """(suite documents, ten-seed sets as workload -> metric -> values)."""
    suites = [
        json.loads(path.read_text())
        for path in sorted(Path(evidence_dir).glob("set_*.json"))
    ]
    tens = []
    for path in sorted(Path(evidence_dir).glob("ten_*.jsonl")):
        by_workload: dict = {}
        for line in path.read_text().splitlines():
            run = json.loads(line)
            cells = by_workload.setdefault(run["workload"], {})
            for metric, cell in run["result"]["metrics"].items():
                cells.setdefault(metric, []).append(cell["value"])
        tens.append(by_workload)
    return suites, tens


def suite_values(suites, workload: str, metric: str) -> list:
    """Per suite set, the per-run values of *metric* (empty: not there)."""
    per_set = []
    for document in suites:
        entry = document["workloads"][workload]
        cell = entry["end_to_end"].get(metric) or entry["unresolved"].get(
            metric
        )
        if cell is not None:
            per_set.append(cell["values"])
    return per_set


def derive(suites, tens) -> dict:
    """metric -> its readings and the bound (None: unresolved)."""
    workloads = list(suites[0]["workloads"])
    table = {}
    for metric, better, target in TARGETS:
        spread = raw_spread = set_range = shift = 0.0
        for workload in workloads:
            per_set = suite_values(suites, workload, metric)
            if not per_set:
                continue
            pooled = [value for values in per_set for value in values]
            spread = max(spread, stats.relative_spread(pooled))
            set_range = max(set_range, stats.relative_range(
                [stats.median(values) for values in per_set]
            ))
            raw = [value for document in suites for value in
                   document["workloads"][workload]["raw"].get(
                       metric + "_raw", ())]
            if raw:
                raw_spread = max(raw_spread, stats.relative_spread(raw))
            runs = [ten[workload][metric] for ten in tens
                    if metric in ten.get(workload, {})]
            for values in runs:
                spread = max(spread, stats.relative_spread(values))
            for first, second in zip(runs, runs[1:]):
                a, b = stats.median(first), stats.median(second)
                shift = max(
                    shift, (a - b if better == "higher" else b - a) / a
                )
        wanted = max(target, 1.5 * set_range, 3.0 * spread)
        bound = min(CEILING, math.ceil(wanted / STEP - 1e-9) * STEP)
        table[metric] = {
            "spread": spread,
            "raw_spread": raw_spread,
            "set_range": set_range,
            "shift": shift,
            "target": target,
            "bound": None if spread > CEILING / 2 else round(bound, 2),
        }
    return table


def main() -> int:
    suites, tens = load()
    print(f"{len(suites)} suite sets, {len(tens)} ten-seed sets; widest "
          f"over the workloads")
    print(f"{'metric':22s}{'spread':>8s}{'raw':>8s}{'set range':>11s}"
          f"{'shift':>8s}{'target':>8s}{'bound':>12s}")
    for metric, row in derive(suites, tens).items():
        bound = "unresolved" if row["bound"] is None else f"{row['bound']:.2f}"
        raw = f"{row['raw_spread']:.3f}" if row["raw_spread"] else "-"
        print(f"{metric:22s}{row['spread']:8.3f}{raw:>8s}"
              f"{row['set_range']:11.3f}{row['shift']:+8.3f}"
              f"{row['target']:8.2f}{bound:>12s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
