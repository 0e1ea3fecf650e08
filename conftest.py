"""Repo-level pytest configuration.

Makes the ``src`` layout importable even when the package has not been
installed (e.g. a fresh checkout without ``pip install -e .``), and
registers the ``ci`` Hypothesis profile: ``--hypothesis-profile=ci`` draws
the same examples on every run (``derandomize``) with no per-example
deadline, so a property that fails in CI fails the same way locally under
the same flag.  Per-test ``max_examples`` settings still apply.
"""

import sys
from pathlib import Path

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)

_SRC = Path(__file__).parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
