"""Self-test of the benchmark's own machinery (run explicitly, not tier-1).

``python -m pytest -q benchmarks/e2e/test_selftest.py``
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import bstats  # noqa: E402
import workloads as wl  # noqa: E402


def _span(span_id, parent, name, start, duration):
    return {"id": span_id, "parent": parent, "name": name,
            "start_ms": start, "duration_ms": duration}


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, -1, "event", 0.0, 10.0),
        _span(1, 0, "plan.evaluate", 1.0, 8.0),
        # Two shard workers overlapping on [3, 5]; one overruns its parent.
        _span(2, 1, "node.evaluate", 2.0, 3.0),
        _span(3, 1, "node.evaluate", 3.0, 7.0),
        # Attached after the root closed: stretches the event to 14 ms.
        _span(4, 0, "frame.encode", 11.0, 3.0),
    ]
    own = bstats.self_times(spans)
    assert bstats.span_extent(spans) == 14.0
    # plan.evaluate covers [1, 9]; children cover [2, 9] after clipping.
    assert own[1] == 1.0
    # root covers [0, 14]; children cover [1, 9] and [11, 14].
    assert own[0] == 3.0
    assert bstats.unattributed_share(spans) == 3.0 / 14.0
    assert bstats.span_total(spans, "plan.evaluate", self_time=True) == 1.0
    assert bstats.span_total(spans, "node.evaluate") == 10.0
    assert bstats.span_total(spans, "wire.send") is None


def test_nested_same_name_spans_count_outermost_only():
    spans = [
        _span(0, -1, "event", 0.0, 10.0),
        _span(1, 0, "node.evaluate", 1.0, 8.0),
        _span(2, 1, "node.evaluate", 2.0, 3.0),
        _span(3, 1, "worker.leaf", 5.0, 2.0),
    ]
    assert bstats.span_total(spans, "node.evaluate") == 8.0
    assert bstats.span_total(spans, "worker.", prefix=True) == 2.0


def test_percentile_needs_ten_samples_beyond_it():
    assert bstats.percentile(list(range(199)), 95) is None
    assert bstats.percentile(list(range(200)), 95) is not None
    assert bstats.percentile(list(range(19)), 50) is None
    assert bstats.percentile(list(range(20)), 50) == 9.5
    assert bstats.percentile([], 50) is None


def test_scripts_are_pure_functions_of_the_seed():
    for workload in wl.WORKLOADS:
        a = [wl.event_at(workload, 7, k, 1) for k in range(50)]
        b = [wl.event_at(workload, 7, k, 1) for k in reversed(range(50))]
        assert a == b[::-1], workload.name
    drag = wl.BY_NAME["drag_local"]
    assert ([wl.event_at(drag, 7, k) for k in range(500)]
            != [wl.event_at(drag, 8, k) for k in range(500)])
    highs = [wl.event_at(drag, 7, k)["high"] for k in range(2000)]
    assert min(highs) == drag.low and max(highs) == drag.high
    steps = {round(abs(x - y), 9) for x, y in zip(highs, highs[1:])}
    assert steps == {drag.step}
    assert wl.cold_open_constants(7, 3) == wl.cold_open_constants(7, 3)
    assert len({wl.cold_open_constants(7, k)[i]
                for k in range(100) for i in range(4)}) == 400
    import numpy as np
    assert all(np.array_equal(x, y) for x, y in zip(
        wl.locality_table_columns(1000, 7).values(),
        wl.locality_table_columns(1000, 7).values()))


def test_missing_layer_reports_null_with_reason(monkeypatch):
    import layers
    import repro.core.combine as combine
    import run

    monkeypatch.delattr(combine, "combine_columns")
    metrics = layers.kernel_metrics(wl.smoke(wl.BY_NAME["drag_local"]), 7)
    value, unit, reason = metrics["core.combine.combine_ms_per_mrow"]
    assert value is None and unit == "ms" and "ImportError" in reason
    assert metrics["core.reduction.select_ms_per_mrow"][0] > 0
    # The one-line result stands a null in as 0 rather than failing.
    line = json.loads(run.driver_line(
        {"metrics": metrics, "attempted": 1, "failed": 0},
        [{"name": "core.combine.combine_ms_per_mrow", "unit": "ms"}]))
    assert line["correct"] and line["metrics"] == {
        "core.combine.combine_ms_per_mrow": {"value": 0.0, "unit": "ms"}}


def test_supervisor_outlives_orphans_and_enforces_the_deadline(tmp_path):
    """A run's orphans are gone when the command returns, however it ends."""
    pid_file = tmp_path / "orphan.pid"
    # A child that leaves a sleeping grandchild behind and exits at once.
    orphaner = (
        "import subprocess, sys\n"
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(600)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(p.pid))\n"
        "sys.exit(int(sys.argv[1]))\n")
    harness = (
        "import sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import procs\n"
        "procs.ORPHAN_TIMEOUT = 0.2\n"
        "deadline = float(sys.argv[2]) or None\n"
        "sys.exit(procs.supervise([sys.executable, '-c', sys.argv[1], sys.argv[3]], deadline))\n")
    for code, deadline, body in ((3, 0, orphaner),
                                 (137, 0.5, "import time; time.sleep(600)")):
        proc = subprocess.run(
            [sys.executable, "-c", harness, body, str(deadline), str(code)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
    orphan = int(pid_file.read_text())
    assert not Path(f"/proc/{orphan}").exists()


def test_smoke_run_exercises_oracle_and_census(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "0",
         "--seed", "7", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    report = json.loads(out.read_text())["runs"][-1]
    assert set(report["workloads"]) == {w.name for w in wl.WORKLOADS}
    assert report["failed"] == 0
    assert report["cold_open_digest_disagreements"] == 0
    for name, entry in report["workloads"].items():
        assert entry["oracle"]["attempted"] >= 2, name
        assert entry["oracle"]["mismatches"] == 0, name
        assert entry["census"] == {"shm_blocks": 0, "processes": 0, "ports": 0}, name
        assert entry["end_to_end"]["failed_share"]["value"] == 0, name
    assert elapsed < 20, f"smoke run took {elapsed:.1f}s"
