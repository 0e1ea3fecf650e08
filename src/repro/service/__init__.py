"""Multi-session serving of interactive visual-feedback loops.

The paper's system is one user at one X terminal; this subsystem is the
seam that turns the reproduction into a server: many concurrent sessions
multiplexed over one shared :class:`~repro.core.engine.QueryEngine` and
its shard worker pool, with the feedback loop's latest-wins semantics
(only the newest position of a dragged slider matters) made explicit as
per-session event coalescing.

Entry points:

* :class:`FeedbackService` -- the asyncio scheduler (sessions, fairness,
  admission control, backpressure);
* :class:`FeedbackProtocolServer` -- a JSON-lines network adapter over it;
* :class:`CoalescingQueue`, :class:`FrameSnapshot`, :class:`WindowCache`,
  :class:`SessionRegistry` -- the pieces, reusable on their own.
"""

from repro.service.coalesce import CoalescingQueue
from repro.service.metrics import ServiceMetrics, SessionMetrics
from repro.service.protocol import (
    FeedbackProtocolServer,
    ProtocolError,
    parse_event,
    serve,
)
from repro.service.service import FeedbackService, ServiceConfig
from repro.service.session import (
    ServiceSession,
    SessionLimitError,
    SessionRegistry,
    UnknownSessionError,
)
from repro.service.snapshot import (
    FrameGapError,
    FrameSnapshot,
    WindowCache,
    apply_frame_update,
    delta_payload,
    frame_payload,
    frame_state,
    window_fingerprint,
)

__all__ = [
    "FeedbackService",
    "ServiceConfig",
    "FeedbackProtocolServer",
    "ProtocolError",
    "serve",
    "parse_event",
    "CoalescingQueue",
    "SessionRegistry",
    "ServiceSession",
    "SessionLimitError",
    "UnknownSessionError",
    "FrameSnapshot",
    "FrameGapError",
    "WindowCache",
    "window_fingerprint",
    "frame_payload",
    "delta_payload",
    "frame_state",
    "apply_frame_update",
    "SessionMetrics",
    "ServiceMetrics",
]
