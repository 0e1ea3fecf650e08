"""Compare two bench_e2e runs against the bounds stored in ``BENCHMARK.json``.

``compare.py A.json B.json`` compares the last run of each ledger file;
``compare.py LEDGER.json`` compares the last two runs of one file (the
two-run agreement check of a single commit), ``--runs I J`` two others
(1-based).  A is the base.

One row per (workload, end-to-end metric): both values, the ratio B/A
*with its base*, and a verdict --

``ok``          B is not worse than A by more than the metric's bound;
``worse``       it is, and both runs were steady enough to say so;
``unresolved``  a value is missing, or B is worse by more than the bound
                while a run's own within-run spread exceeds that bound.

Per-layer rows and the ``DEMOTED`` pairs are printed for the reader and
never gate.  Exit status is
1 if any end-to-end row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"

#: End-to-end metrics the ledger carries beyond the driver's list (they
#: are ``null`` or zero on some workload, which the driver's list forbids).
LEDGER_ONLY = [
    {"name": "event_ms_p95", "unit": "ms", "better": "lower", "bound": 0.25},
    # Any rise in the share of failed operations is a regression.
    {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0},
]

#: (workload, metric) pairs that failed the two-run agreement of one commit
#: and are therefore demoted, by the issue's rule, instead of given a wider
#: bound: the verdict is printed in brackets and not counted.
DEMOTED = {
    # Three event kinds of different cost and only 200-270 samples: four
    # runs of one commit read 99, 136, 162 and 180 ms.
    ("global_retune", "event_ms_p95"),
}


def load_runs(path: str) -> list[dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc["runs"] if "runs" in doc else [doc]


def last_runs(path: str, count: int) -> list[dict]:
    runs = load_runs(path)
    if len(runs) < count:
        raise SystemExit(f"{path}: holds {len(runs)} run(s), need {count}")
    return runs[-count:]


def verdict(a: float | None, b: float | None, better: str, bound: float,
            spread: float | None) -> str:
    if a is None and b is None:
        return "n/a"
    if a is None or b is None:
        return "unresolved"
    if better == "lower":
        is_worse = b > a * (1.0 + bound) if a > 0 else b > a
    else:
        is_worse = b < a * (1.0 - bound)
    if not is_worse:
        return "ok"
    return "unresolved" if spread is not None and spread > bound else "worse"


def _fmt(value: float | None) -> str:
    return "null" if value is None else f"{value:.6g}"


def _ratio(a: float | None, b: float | None, unit: str) -> str:
    if a is None or b is None:
        return "-"
    if a == 0:
        return f"{'=' if b == 0 else 'n/a'} (base 0 {unit})"
    return f"{b / a:.3f}x of {_fmt(a)} {unit}"


def compare(run_a: dict, run_b: dict, contract: dict) -> tuple[list[str], int]:
    lines: list[str] = []
    bad = 0
    gated = contract["end_to_end"] + LEDGER_ONLY
    for name in run_a["workloads"]:
        wa, wb = run_a["workloads"][name], run_b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name}: missing from B -- unresolved")
            bad += 1
            continue
        lines.append(f"## {name}")
        for metric in gated:
            key = metric["name"]
            a = (wa["end_to_end"].get(key) or {}).get("value")
            b = (wb["end_to_end"].get(key) or {}).get("value")
            spreads = [s for s in ((wa.get("spread") or {}).get(key),
                                   (wb.get("spread") or {}).get(key))
                       if s is not None]
            result = verdict(a, b, metric["better"], metric["bound"],
                             max(spreads) if spreads else None)
            if (name, key) in DEMOTED:
                result = f"[{result}] demoted"
            bad += result in ("worse", "unresolved")
            lines.append(
                f"  {key:<22} A {_fmt(a):>12}  B {_fmt(b):>12}  "
                f"{_ratio(a, b, metric['unit']):<34} "
                f"bound {metric['bound']:.0%}  {result}")
        layer_a, layer_b = wa.get("per_layer") or {}, wb.get("per_layer") or {}
        for key in sorted(layer_a):
            a = layer_a[key].get("value")
            b = (layer_b.get(key) or {}).get("value")
            lines.append(
                f"  . {key:<46} A {_fmt(a):>12}  B {_fmt(b):>12}  "
                f"{_ratio(a, b, layer_a[key].get('unit', ''))}")
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", help="base ledger (or the only one)")
    parser.add_argument("b", nargs="?", help="ledger to compare against the base")
    parser.add_argument("--runs", nargs=2, type=int, metavar=("I", "J"),
                        help="with one ledger: compare its runs I and J (1-based)")
    args = parser.parse_args(argv)
    if args.runs and not args.b:
        runs = load_runs(args.a)
        if not all(1 <= i <= len(runs) for i in args.runs):
            raise SystemExit(f"{args.a}: holds {len(runs)} run(s)")
        run_a, run_b = (runs[i - 1] for i in args.runs)
    elif args.b:
        run_a, run_b = last_runs(args.a, 1)[0], last_runs(args.b, 1)[0]
    else:
        run_a, run_b = last_runs(args.a, 2)
    with open(BENCHMARK_JSON) as fh:
        contract = json.load(fh)
    lines, bad = compare(run_a, run_b, contract)
    print("\n".join(lines))
    print(f"{bad} end-to-end row(s) worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
