"""Resource census for the backend suites: what a module leaves behind.

The counting is the end-to-end benchmark's own (``benchmarks/e2e/
procs.py``: shared-memory blocks, descendant processes, listening
ports), imported rather than copied so the two can never disagree; this
module adds the open-fd count.  Its own loaded copy of ``procs.py``
counts only the shared-memory blocks this process created (their names
start with :func:`repro.backend.shm.block_prefix`), so a run beside
another one never counts the other's blocks.  :func:`module_census` is
the fixture body: after the module it stops every backend
(:func:`repro.backend.shutdown_all`) and fails if anything it started is
still there.
"""

import gc
import importlib.util
import os
from multiprocessing import resource_tracker
from pathlib import Path

import repro.backend
from repro.backend.shm import block_prefix

_spec = importlib.util.spec_from_file_location(
    "bench_e2e_procs",
    Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "procs.py")
_procs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_procs)


def shm_blocks() -> set[str]:
    """The shared-memory blocks this process created and has not unlinked."""
    return {name for name in _machine_shm_blocks()
            if name.startswith(block_prefix())}


_machine_shm_blocks, _procs.shm_blocks = _procs.shm_blocks, shm_blocks

Census = _procs.Census
descendants = _procs.descendants
listening_ports = _procs.listening_ports


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def unix_socket_paths() -> set[str]:
    """Bound AF_UNIX socket paths visible to this process (socket files)."""
    with open("/proc/net/unix") as table:
        next(table)
        return {fields[7] for fields in map(str.split, table)
                if len(fields) > 7}


def module_census():
    """Yield once; then shut every backend down and assert nothing leaked."""
    # The resource tracker lives as long as this process by design (its
    # pipe is one fd here): start it up front so it is part of the baseline.
    resource_tracker.ensure_running()
    # Start from what the end is compared with: nothing a previous module
    # published or left for the collector still holding an fd.
    repro.backend.shutdown_all()
    gc.collect()
    before = Census()
    fds = open_fds()
    yield
    repro.backend.shutdown_all()
    gc.collect()
    leaks = before.leaks([])
    assert leaks == {"shm_blocks": 0, "processes": 0, "ports": 0}, leaks
    assert open_fds() == fds, f"{open_fds() - fds} fds left open"
