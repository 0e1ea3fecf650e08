"""Keep the benchmark's self-test out of the repository's tier-1 collection.

``test_selftest.py`` launches servers and worker fleets; it runs when it
is named on the command line (``pytest benchmarks/e2e/test_selftest.py``)
and is skipped by directory-wide collection.
"""

from __future__ import annotations

from pathlib import Path


def pytest_ignore_collect(collection_path, config):
    if collection_path.name != "test_selftest.py":
        return None
    named = {Path(str(arg).split("::")[0]).resolve() for arg in config.args}
    return None if collection_path.resolve() in named else True
