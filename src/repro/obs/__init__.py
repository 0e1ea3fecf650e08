"""Observability: span tracing and the shared counter primitives.

``repro.obs`` is the cross-cutting layer the rest of the pipeline reports
into: :mod:`repro.obs.trace` times one event end to end (protocol receive
through worker kernels to the wire send) and :mod:`repro.obs.metrics`
holds the thread-safe :class:`~repro.obs.metrics.Counter` and
:class:`~repro.obs.metrics.Histogram` that counter owners keep.  There is
no central registry: each counter lives with its owner and
``FeedbackService.metrics_report()`` composes them into the one
documented ``metrics`` reply.  Instrumentation call sites use the ambient
helpers (:func:`span`, :func:`annotate`), which cost one context-variable
read when tracing is off.
"""

from repro.obs.metrics import Counter, Histogram
from repro.obs.trace import (
    Span,
    Trace,
    Tracer,
    annotate,
    build_explain,
    chrome_trace_events,
    current_trace,
    span,
    trace_active,
    use_trace,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "Histogram",
    "Span",
    "Trace",
    "Tracer",
    "annotate",
    "build_explain",
    "chrome_trace_events",
    "current_trace",
    "span",
    "trace_active",
    "use_trace",
    "write_chrome_trace",
]
