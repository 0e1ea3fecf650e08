"""bench_e2e: wire-to-wire, layer-attributed benchmark of the feedback loop.

One command, two shapes:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload.  ``--trace 0`` measures the end-to-end metrics with
    tracing off; ``--trace 1`` runs the layer pass.  The last stdout line
    is one JSON object ``{correct, attempted, failed, metrics}`` holding
    exactly the metrics ``BENCHMARK.json`` lists for that mode.

``run.py --seed N --out FILE [--append] [--repeats R]``
    Every workload, both passes, every metric (including the ones that
    are ``null`` on some workloads) written to ``FILE`` as ``{"runs":
    [...]}`` -- the form the committed ledger and ``compare.py`` use.

See README.md in this directory for the metric glossary.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bstats  # noqa: E402
import procs  # noqa: E402
import workloads as wl  # noqa: E402

#: Full set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Hard stop for one wire run; children are reaped on the way out.
RUN_TIMEOUT = 120.0
#: Hard stop for a whole single-workload command (the supervisor kills it).
COMMAND_TIMEOUT = 170.0
BENCHMARK_JSON = procs.REPO_ROOT / "BENCHMARK.json"


# --------------------------------------------------------------------------- #
# One wire run: children up, set-up, timed window, oracle inputs, children down
# --------------------------------------------------------------------------- #
async def _wire_run(workload: wl.Workload, seed: int, seconds: float, *,
                    traced: bool, setup_repeats: int) -> dict:
    from loadgen import LoadGen

    setup_s: list[float] = []
    first_frames: list[tuple[float, int]] = []  # (ms, bytes) over all set-ups
    ports: list[int] = []
    for attempt in range(setup_repeats):
        with procs.Children() as children:
            t0 = time.perf_counter()
            fleet = (children.start_fleet(wl.WORKERS)
                     if workload.backend == "remote" else None)
            port = children.start_server(
                rows=workload.rows, seed=seed, shards=workload.shards,
                percentage=workload.percentage, backend=workload.backend,
                workers=wl.WORKERS, trace=traced, fleet=fleet)
            gen = LoadGen(workload, seed, port, rss_probe=children.peak_rss_mb)
            await gen.setup()
            setup_s.append(time.perf_counter() - t0)
            ports += children.ports
            if attempt < setup_repeats - 1:
                await gen.reopen()
                await gen.close()
            else:
                await gen.measure(seconds)
                if gen.run.peak_rss_mb is None:  # window ended before the sample point
                    gen.run.peak_rss_mb = children.peak_rss_mb()
                run = await gen.finish(want_traces=traced)
            first_frames += [(ms, len(frame)) for (_, ms), frame in zip(
                gen.run.first_frame_ms, gen.run.first_frames)]
    return {"run": run, "setup_s": setup_s, "ports": ports,
            "first_frames": first_frames}


def wire_run(workload: wl.Workload, seed: int, seconds: float, *,
             traced: bool = False, setup_repeats: int = 1) -> dict:
    return asyncio.run(asyncio.wait_for(
        _wire_run(workload, seed, seconds, traced=traced,
                  setup_repeats=setup_repeats), RUN_TIMEOUT))


# --------------------------------------------------------------------------- #
# End-to-end pass
# --------------------------------------------------------------------------- #
def frame_rate(delivered: dict[int, list[float]]) -> float | None:
    """Sustained closed-loop frame rate over the timed window.

    Per connection, the reciprocal of the *median* interval between
    consecutive frame deliveries (think time included); summed over
    connections.  Frames divided by wall seconds is the same quantity on
    a quiet machine, but one stall moves that mean and not this median.
    """
    rates = []
    for stamps in delivered.values():
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        if gaps:
            rates.append(1.0 / bstats.median(gaps))
    return sum(rates) if rates else None


def end_to_end(workload: wl.Workload, seed: int, seconds: float,
               setup_repeats: int = SETUP_REPEATS) -> dict:
    """The ``--trace 0`` pass: metrics, sample counts, oracle, census."""
    import oracle

    census = procs.Census()
    outcome = wire_run(workload, seed, seconds, setup_repeats=setup_repeats)
    run = outcome["run"]
    verdict = oracle.check(workload, seed, run.sessions)
    leaks = census.leaks(outcome["ports"])

    event_ms = [ms for _, ms in run.event_ms]
    first_ms = [ms for ms, _ in outcome["first_frames"]]
    first_bytes = [size for _, size in outcome["first_frames"]]
    update_bytes = [len(f) for f in run.event_frames]
    attempted = run.attempted + verdict["attempted"]
    failed = run.errors + verdict["mismatches"] + sum(leaks.values())
    metrics = {
        name: (value, unit, "" if value is not None else "too few samples")
        for name, value, unit in (
            ("setup_s", bstats.median(outcome["setup_s"]), "s"),
            ("event_ms_p50", bstats.median(event_ms), "ms"),
            ("event_ms_p95", bstats.percentile(event_ms, 95), "ms"),
            ("frames_per_s", frame_rate(run.delivered), "1/s"),
            ("first_frame_ms_p50", bstats.median(first_ms), "ms"),
            ("update_bytes_p50", bstats.median(update_bytes), "bytes"),
            ("first_frame_bytes", bstats.median(first_bytes), "bytes"),
            ("peak_rss_mb", run.peak_rss_mb, "MB"),
            ("failed_share", failed / attempted, "ratio"),
        )
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "samples": {"event_ms": len(event_ms), "first_frame_ms": len(first_ms),
                    "setup_s": len(outcome["setup_s"]),
                    "timed_wall_s": round(run.wall_s, 3),
                    "frames_per_wall_s": round(len(event_ms) / run.wall_s, 3)},
        "spread": {
            "event_ms_p50": bstats.block_spread(run.event_ms),
            "first_frame_ms_p50": bstats.block_spread(run.first_frame_ms)
            if workload.kind == "cold_open" else None,
        },
        "oracle": verdict,
        "census": leaks,
    }


# --------------------------------------------------------------------------- #
# Layer pass
# --------------------------------------------------------------------------- #
def layer_pass(workload: wl.Workload, seed: int, seconds: float) -> dict:
    """The ``--trace 1`` pass: every per-layer metric, with reasons for nulls."""
    import layers
    import oracle

    census = procs.Census()
    metrics: layers.Metrics = {}
    failures: dict[str, str] = {}

    def guarded(label: str, fn) -> None:
        try:
            metrics.update(fn())
        except Exception as exc:  # noqa: BLE001 - a probe never fails the run
            failures[label] = f"{type(exc).__name__}: {exc}"

    # The layer pass gates nothing, so it spends half of ``seconds`` on its
    # untraced window and a quarter on the traced one: the whole pass then
    # takes about as long as an end-to-end pass with its three set-ups.
    # 1. Untraced wire run: run_ms off the frames, counters off ``metrics``.
    plain = wire_run(workload, seed, max(1.0, seconds / 2))
    run = plain["run"]
    verdict = oracle.check(workload, seed, run.sessions)
    stamped, _ = run.interaction(workload)
    wire_p50 = bstats.median([ms for _, ms in stamped])
    guarded("wire", lambda: layers.wire_metrics(workload, run))
    guarded("counters", lambda: layers.counter_metrics(run))

    # 2. Traced wire replay of a prefix: the program's own span trees.
    traced = wire_run(workload, seed, max(1.0, seconds / 4), traced=True)
    guarded("spans", lambda: layers.span_metrics(workload, traced["run"], wire_p50))

    # 3. In-process ladder and probes (a quarter of the timed count).
    count = max(6, len(stamped) // 4)
    count -= count % 3
    with procs.Children() as fleet_children:
        fleet = (fleet_children.start_fleet(wl.WORKERS)
                 if workload.backend == "remote" else None)
        with layers.remote_env(fleet):
            guarded("ladder", lambda: layers.ladder_metrics(
                workload, seed, count, wire_p50))
            guarded("kernels", lambda: layers.kernel_metrics(workload, seed))
        ports = plain["ports"] + traced["ports"] + fleet_children.ports

    leaks = census.leaks(ports)
    metrics["backend.shm.leaked_blocks"] = (float(leaks["shm_blocks"]), "count", "")
    metrics["backend.leaked_processes"] = (
        float(leaks["processes"] + leaks["ports"]), "count", "")
    errors = run.errors + traced["run"].errors
    attempted = run.attempted + traced["run"].attempted + verdict["attempted"]
    failed = errors + verdict["mismatches"] + sum(leaks.values())
    return {"metrics": metrics, "failures": failures, "attempted": attempted,
            "failed": failed, "oracle": verdict, "census": leaks,
            "samples": {"wire": len(stamped), "ladder_turns": count,
                        "traces": len(traced["run"].traces)}}


# --------------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------------- #
def load_contract() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def driver_line(result: dict, listed: list[dict]) -> str:
    """The one-line JSON result: exactly the metrics ``BENCHMARK.json`` lists."""
    metrics = {}
    for entry in listed:
        value = result["metrics"].get(entry["name"], (None,))[0]
        if value is None:
            # Documented stand-in: the full report keeps ``null`` plus a reason.
            print(f"note: {entry['name']} is null on this workload, reported as 0",
                  file=sys.stderr)
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def print_table(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name in sorted(metrics):
        value, unit, reason = metrics[name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<48} {shown:>14} {unit}" + (f"   ({reason})" if reason else ""))


def jsonable(metrics: dict) -> dict:
    return {
        name: {"value": value, "unit": unit, **({"reason": reason} if reason else {})}
        for name, (value, unit, reason) in sorted(metrics.items())
    }


def machine_facts() -> dict:
    import numpy

    return {"nproc": wl.NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def full_run(seed: int, seconds: float, names: list[str], smoke: bool,
             with_layers: bool, repeats: int = 1) -> dict:
    """Every requested workload, both passes; the ledger form."""
    report: dict = {"seed": seed, "seconds": seconds, "smoke": smoke,
                    "repeats": repeats,
                    "machine": machine_facts(), "workloads": {}}
    for name in names:
        workload = wl.smoke(wl.BY_NAME[name]) if smoke else wl.BY_NAME[name]
        passes = [end_to_end(workload, seed, seconds,
                             setup_repeats=1 if smoke else SETUP_REPEATS)
                  for _ in range(repeats)]
        e2e = passes[-1]
        if repeats > 1:
            # The ledger value is the median pass; the distance between the
            # passes is what lets compare.py tell "moved" from "unresolved".
            for key, (_, unit, _) in list(e2e["metrics"].items()):
                values = [p["metrics"][key][0] for p in passes]
                if None in values:
                    continue
                mid = bstats.median(values)
                e2e["metrics"][key] = (mid, unit, "")
                e2e["spread"][key] = (max(values) - min(values)) / mid if mid else 0.0
        print_table(f"{name}: end to end "
                    f"({e2e['samples']['event_ms']} events, "
                    f"{e2e['samples']['first_frame_ms']} first frames, "
                    f"median of {repeats} pass(es))",
                    e2e["metrics"])
        entry = {"end_to_end": jsonable(e2e["metrics"]),
                 "samples": e2e["samples"], "spread": e2e["spread"],
                 "oracle": e2e["oracle"], "census": e2e["census"],
                 "attempted": sum(p["attempted"] for p in passes),
                 "failed": sum(p["failed"] for p in passes)}
        if with_layers:
            layer = layer_pass(workload, seed, seconds)
            print_table(f"{name}: per layer", layer["metrics"])
            for label, reason in layer["failures"].items():
                print(f"  probe group {label} failed: {reason}")
            entry["per_layer"] = jsonable(layer["metrics"])
            entry["probe_failures"] = layer["failures"]
            entry["layer_samples"] = layer["samples"]
            entry["failed"] += layer["failed"]
            entry["attempted"] += layer["attempted"]
        report["workloads"][name] = entry
    # The three cold-open backends issue the same queries: same pictures.
    digests = [report["workloads"][n]["oracle"]["digests"]
               for n in names if n.startswith("cold_open.")]
    disagreements = sum(
        1 for a in digests[1:] for key in a.keys() & digests[0].keys()
        if a[key] != digests[0][key])
    report["cold_open_digest_disagreements"] = disagreements
    report["failed"] = disagreements + sum(
        w["failed"] for w in report["workloads"].values())
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(wl.BY_NAME))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", help="write the full report here (ledger form)")
    parser.add_argument("--append", action="store_true",
                        help="add the run to the ledger at --out instead of replacing it")
    parser.add_argument("--repeats", type=int, default=1,
                        help="end-to-end passes per workload in the ledger form; "
                             "the median is recorded (default 1)")
    parser.add_argument("--smoke", action="store_true",
                        help="20k-row tables, one set-up, short windows")
    args = parser.parse_args(argv)

    if not (procs.SRC / "repro" / "__init__.py").is_file():
        print(f"bench_e2e: no program to measure: {procs.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if procs.SUPERVISED not in os.environ:
        # One level down, so that no process outlives this command.
        return procs.supervise(
            [sys.executable, os.path.abspath(__file__),
             *(sys.argv[1:] if argv is None else argv)],
            deadline=COMMAND_TIMEOUT if args.workload and not args.out else None)
    sys.path.insert(0, str(procs.SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else (
        0.5 if args.smoke else float(contract["run_seconds"]))

    if args.workload and not args.out:
        workload = wl.BY_NAME[args.workload]
        if args.smoke:
            workload = wl.smoke(workload)
        if args.trace:
            result = layer_pass(workload, args.seed, seconds)
            print_table(f"{workload.name}: per layer", result["metrics"])
            for label, reason in result["failures"].items():
                print(f"  probe group {label} failed: {reason}")
            listed = contract["per_layer"]
        else:
            result = end_to_end(workload, args.seed, seconds,
                                setup_repeats=1 if args.smoke else SETUP_REPEATS)
            print_table(f"{workload.name}: end to end", result["metrics"])
            print(f"  samples {result['samples']}")
            listed = contract["end_to_end"]
        print(f"  oracle {result['oracle']['attempted']} checks, "
              f"{result['oracle']['mismatches']} mismatches; census {result['census']}")
        print(driver_line(result, listed))
        return 0 if result["failed"] == 0 else 1

    names = [args.workload] if args.workload else [w.name for w in wl.WORKLOADS]
    report = full_run(args.seed, seconds, names, args.smoke,
                      with_layers=args.trace != 0, repeats=args.repeats)
    if args.out:
        runs = []
        if args.append and os.path.exists(args.out):
            with open(args.out) as fh:
                runs = json.load(fh)["runs"]
        with open(args.out, "w") as fh:
            json.dump({"runs": runs + [report]}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out} ({len(runs) + 1} run(s))")
    print(f"failed: {report['failed']}")
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
