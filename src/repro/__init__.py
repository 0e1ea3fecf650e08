"""VisDB reproduction: visual feedback queries for data mining of large databases.

Reproduction of Keim, Kriegel & Seidl, "Supporting Data Mining of Large
Databases by Visual Feedback Queries", ICDE 1994.

Quickstart::

    from repro import QueryEngine, QueryBuilder, condition
    from repro.datasets import environmental_database

    db = environmental_database(hours=2000, seed=7)
    query = (
        QueryBuilder("hot-days", db)
        .use_tables("Weather")
        .where(condition("Temperature", ">", 25.0))
        .build()
    )
    prepared = QueryEngine(db, percentage=0.4).prepare(query)
    feedback = prepared.execute()
    print(feedback.statistics.as_dict())

``VisualFeedbackQuery(db, query, percentage=0.4).execute()`` remains as the
one-shot facade over the same engine.
"""

from repro.backend import (
    ExecBackend,
    available_backends,
    register_backend,
    unregister_backend,
)
from repro.core import (
    PipelineConfig,
    PreparedQuery,
    QueryEngine,
    QueryFeedback,
    ReductionMethod,
    RelevanceScale,
    ScreenSpec,
    VisualFeedbackQuery,
)
from repro.query import (
    AndNode,
    NotNode,
    OrNode,
    PredicateLeaf,
    Query,
    QueryBuilder,
    parse_query,
)
from repro.query.builder import between, condition
from repro.service import FeedbackProtocolServer, FeedbackService, ServiceConfig
from repro.storage import Database, Table

__version__ = "1.3.0"

__all__ = [
    "ExecBackend",
    "available_backends",
    "register_backend",
    "unregister_backend",
    "QueryEngine",
    "PreparedQuery",
    "VisualFeedbackQuery",
    "FeedbackService",
    "FeedbackProtocolServer",
    "ServiceConfig",
    "PipelineConfig",
    "ScreenSpec",
    "QueryFeedback",
    "ReductionMethod",
    "RelevanceScale",
    "Query",
    "QueryBuilder",
    "parse_query",
    "condition",
    "between",
    "AndNode",
    "OrNode",
    "NotNode",
    "PredicateLeaf",
    "Database",
    "Table",
    "__version__",
]
