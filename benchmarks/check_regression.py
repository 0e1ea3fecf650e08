#!/usr/bin/env python
"""CI regression gate for benchmark headline ratios.

Compares the ``extra_info`` ratio fields of pytest-benchmark JSON results
against the committed baselines in ``benchmarks/baselines/`` and fails
(exit 1) when any ratio drops more than ``--tolerance`` (default 20%)
below its baseline.

Ratios -- speedups of one code path over another measured in the same
process -- are what make a wall-clock gate viable on shared runners: a
noisy neighbour slows both sides of the ratio, so a >20% drop means the
fast path itself regressed, not the machine.  Absolute latencies in the
same JSON files are recorded for the trajectory but never gated.

A baseline value may also be written as ``{"min": X}``: an *absolute
floor* with no tolerance scaling, for metrics whose acceptable bound is
a contract rather than a measured headline (e.g.
``latency_flatness_inverse`` must stay >= 0.5 -- p95 event latency within
2x across a 16x table-size spread -- regardless of what any past run
measured).  ``{"max": X}`` is the mirror image, an absolute
*ceiling* for a ratio where lower is better (``multi_session_patch_ratio``
must stay <= 2: a session's per-event time with 8 peers dragging the
same attribute on the engine, over its time alone).

Usage (what .github/workflows/ci.yml runs)::

    python benchmarks/check_regression.py \
        --baseline benchmarks/baselines/BENCH_baselines.json \
        BENCH_incremental.json BENCH_event_latency.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def load_extra_info(path: pathlib.Path) -> dict[str, dict]:
    """Map benchmark test name -> extra_info from one pytest-benchmark JSON."""
    data = json.loads(path.read_text())
    info: dict[str, dict] = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("name", "").split("[")[0]
        info[name] = bench.get("extra_info", {}) or {}
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON (benchmarks/baselines/)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional drop below baseline (default 0.20)")
    parser.add_argument("results", nargs="+",
                        help="pytest-benchmark JSON result files")
    args = parser.parse_args(argv)

    baselines = json.loads(pathlib.Path(args.baseline).read_text())
    results = {pathlib.Path(r).name: pathlib.Path(r) for r in args.results}
    failures: list[str] = []
    rows: list[tuple[str, str, float, float, float, str]] = []

    for file_name, tests in baselines.items():
        if file_name.startswith("_"):
            continue
        path = results.get(file_name)
        if path is None or not path.exists():
            failures.append(f"{file_name}: result file missing (benchmark crashed?)")
            continue
        info = load_extra_info(path)
        for test_name, metrics in tests.items():
            extra = info.get(test_name)
            if extra is None:
                failures.append(f"{file_name}:{test_name}: not in results")
                continue
            for metric, baseline in metrics.items():
                current = extra.get(metric)
                if current is None:
                    failures.append(
                        f"{file_name}:{test_name}:{metric}: missing from extra_info")
                    continue
                ceiling = isinstance(baseline, dict) and "max" in baseline
                if ceiling:
                    # {"max": X}: an absolute ceiling, no tolerance applied.
                    floor = float(baseline["max"])
                    shown = floor
                    detail = f"absolute ceiling {floor}"
                elif isinstance(baseline, dict):
                    # {"min": X}: an absolute floor, no tolerance applied.
                    floor = float(baseline["min"])
                    shown = floor
                    detail = f"absolute floor {floor}"
                else:
                    shown = float(baseline)
                    floor = shown * (1.0 - args.tolerance)
                    detail = (f"baseline {baseline}, "
                              f"tolerance {args.tolerance:.0%}")
                ok = (float(current) <= floor if ceiling
                      else float(current) >= floor)
                rows.append((test_name, metric, shown, float(current),
                             floor, "ok" if ok else "REGRESSED"))
                if not ok:
                    failures.append(
                        f"{test_name}:{metric} regressed: {current} "
                        f"{'>' if ceiling else '<'} {floor:.2f} ({detail})")

    if rows:
        width = max(len(r[0]) for r in rows) + 2
        metric_width = max(18, max(len(r[1]) for r in rows) + 2)
        print(f"{'benchmark':<{width}}{'metric':<{metric_width}}{'baseline':>9}"
              f"{'current':>9}{'bound':>9}  status")
        for name, metric, baseline, current, floor, status in rows:
            print(f"{name:<{width}}{metric:<{metric_width}}{baseline:>9.2f}"
                  f"{current:>9.2f}{floor:>9.2f}  {status}")
    if failures:
        print("\nregression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nregression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
