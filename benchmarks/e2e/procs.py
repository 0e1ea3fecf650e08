"""Child processes of a benchmark run: start, reap, and the resource census.

The server child, its pool workers and the loopback worker fleet are all
started here and reaped on every exit path (stdin close, then terminate,
then kill).  The census compares ``/dev/shm``, the live descendants of
the benchmark process and the listening ports before and after a
workload; anything left over fails the run.

Some processes cannot be waited for by the one that started them: a
``multiprocessing`` resource tracker (this process's own once the layer
pass publishes a table, the server child's on the process backend) ends
only after its owner has gone.  :func:`supervise` therefore runs the
whole benchmark one level down, adopts whatever it orphans and returns
only when nothing is left.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
SRC = REPO_ROOT / "src"

START_TIMEOUT = 120.0
STOP_TIMEOUT = 20.0
#: How long orphans of a finished run get to end by themselves.
ORPHAN_TIMEOUT = 10.0
#: Set in the environment of the supervised benchmark process.
SUPERVISED = "BENCH_E2E_SUPERVISED"
PR_SET_CHILD_SUBREAPER = 36


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """Environment of every child: ``repro`` importable, BLAS single-threaded."""
    env = dict(os.environ)
    paths = [str(SRC), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Environment defaults must not silently reconfigure the server.
    for var in ("REPRO_SHARDS", "REPRO_BACKEND", "REPRO_REMOTE_WORKERS"):
        env.pop(var, None)
    env.update(extra or {})
    return env


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One stdout line of ``proc``, or an error if it takes too long or dies."""
    import selectors

    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(timeout):
            raise TimeoutError(f"child {proc.args[:3]} did not report in {timeout}s")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(
            f"child {proc.args[:3]} exited with {proc.wait()} before reporting")
    return line.strip()


class Children:
    """The processes one workload run owns; a context manager that reaps them."""

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []
        self.ports: list[int] = []

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc_info) -> None:
        self.reap()

    def _spawn(self, argv: list[str], env: dict[str, str]) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, text=True, cwd=str(HERE))
        self.procs.append(proc)
        return proc

    def start_fleet(self, count: int) -> str:
        """Start ``count`` loopback remote workers; returns the endpoint list."""
        endpoints = []
        for _ in range(count):
            proc = self._spawn(
                [sys.executable, "-m", "repro.backend.remote.server",
                 "--listen", "127.0.0.1:0"], child_env())
            endpoint = _read_line(proc, START_TIMEOUT).rsplit(" ", 1)[-1]
            endpoints.append(endpoint)
            self.ports.append(int(endpoint.rsplit(":", 1)[1]))
        return ",".join(endpoints)

    def start_server(self, *, rows: int, seed: int, shards: int,
                     percentage: float, backend: str, workers: int,
                     trace: bool, fleet: str | None = None) -> int:
        """Start the server child; returns its port once it is listening."""
        extra = {"REPRO_REMOTE_WORKERS": fleet} if fleet else {}
        proc = self._spawn(
            [sys.executable, str(HERE / "server_child.py"),
             "--rows", str(rows), "--seed", str(seed), "--shards", str(shards),
             "--percentage", repr(percentage), "--backend", backend,
             "--workers", str(workers), "--trace", str(int(trace))],
            child_env(extra))
        line = _read_line(proc, START_TIMEOUT)
        if not line.startswith("READY "):
            raise RuntimeError(f"unexpected server greeting {line!r}")
        port = int(line.split()[1])
        self.ports.append(port)
        return port

    def pids(self) -> list[int]:
        """The children and all their descendants (pool workers, trackers)."""
        roots = [p.pid for p in self.procs if p.poll() is None]
        return roots + [pid for root in roots for pid in descendants(root)]

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (VmHWM) of every live owned process."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    def reap(self) -> None:
        """Stop every child: server first (it owns pool and fleet sessions)."""
        for proc in reversed(self.procs):
            if proc.poll() is None and proc.stdin and not proc.stdin.closed:
                try:
                    proc.stdin.close()
                except OSError:
                    pass
        deadline = time.monotonic() + STOP_TIMEOUT
        for proc in reversed(self.procs):
            is_server = "server_child.py" in " ".join(proc.args)
            try:
                if is_server:
                    proc.wait(max(0.1, deadline - time.monotonic()))
                else:
                    # Fleet workers serve forever; they are stopped, not asked.
                    proc.terminate()
                    proc.wait(5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout:
                proc.stdout.close()
        self.procs = []


# --------------------------------------------------------------------------- #
# Supervisor
# --------------------------------------------------------------------------- #
def supervise(argv: list[str], deadline: float | None = None) -> int:
    """Run ``argv`` as a child; return its exit code once its whole tree is gone.

    This process becomes the subreaper of everything below it, so a
    process orphaned anywhere in the tree is re-parented here instead of
    to init.  After the benchmark process ends, orphans get
    ``ORPHAN_TIMEOUT`` to end by themselves (resource trackers do, as soon
    as their owner's pipe closes), are killed otherwise, and are all
    waited for.  A termination signal is passed on to the benchmark
    process and shortens the grace to nothing; so does a benchmark process
    still alive ``deadline`` seconds after its start, which is killed.
    """
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    worker = subprocess.Popen(argv, env={**os.environ, SUPERVISED: "1"})
    grace = ORPHAN_TIMEOUT

    def forward(signum, _frame) -> None:
        nonlocal grace
        grace = 0.0
        if worker.poll() is None:
            worker.send_signal(signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, forward)
    try:
        code = worker.wait(deadline)
    except subprocess.TimeoutExpired:
        print(f"bench_e2e: no result within {deadline:.0f}s, killing the run",
              file=sys.stderr)
        grace = 0.0
        worker.kill()
        code = worker.wait()
    ended = time.monotonic()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # nothing left below us
            break
        if pid:
            continue
        if time.monotonic() - ended > grace:
            for orphan in descendants(os.getpid()):
                try:
                    os.kill(orphan, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)
    return code if code >= 0 else 128 - code


# --------------------------------------------------------------------------- #
# Census
# --------------------------------------------------------------------------- #
def descendants(root: int) -> list[int]:
    """Live descendant pids of ``root`` (one ``/proc`` scan)."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # comm may contain spaces/parens: fields resume after the last ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z":
            parent_of[int(entry)] = int(fields[1])
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parent_of.items():
            if ppid == parent:
                found.append(pid)
                frontier.append(pid)
    return found


def shm_blocks() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def listening_ports() -> set[int]:
    ports: set[int] = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as fh:
                next(fh)
                for line in fh:
                    fields = line.split()
                    if fields[3] == "0A":  # TCP_LISTEN
                        ports.add(int(fields[1].rsplit(":", 1)[1], 16))
        except (OSError, StopIteration):
            continue
    return ports


def _is_own_tracker(pid: int) -> bool:
    """The benchmark process's own multiprocessing resource tracker.

    It starts the first time this process touches shared memory (the
    layer pass publishes a table) and lives as long as we do by design.
    """
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return b"multiprocessing.resource_tracker" in fh.read()
    except OSError:
        return False


class Census:
    """Resources alive before a workload; :meth:`leaks` diffs against now."""

    def __init__(self) -> None:
        self.shm = shm_blocks()
        self.pids = set(descendants(os.getpid()))

    def leaks(self, ports: list[int], settle: float = 2.0) -> dict[str, int]:
        """Leaked shm blocks / processes / ports, after a short settle wait.

        Resource trackers unlink their blocks a moment after their owner
        exits, so a non-empty diff is re-checked until ``settle`` elapses.
        """
        deadline = time.monotonic() + settle
        while True:
            blocks = shm_blocks() - self.shm
            pids = {pid for pid in set(descendants(os.getpid())) - self.pids
                    if not _is_own_tracker(pid)}
            open_ports = listening_ports() & set(ports)
            if not (blocks or pids or open_ports) or time.monotonic() > deadline:
                return {"shm_blocks": len(blocks), "processes": len(pids),
                        "ports": len(open_ports)}
            time.sleep(0.05)
