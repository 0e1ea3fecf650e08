"""Quickstart: run a visual feedback query and look at the result.

Builds a small synthetic environmental database, issues the paper's
"hot days" style query, prints the counters of the query modification
window, shows an ASCII preview of the overall result window and writes the
composed multi-window image to ``quickstart_visdb.png`` in the working
directory.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from pathlib import Path

from repro import QueryBuilder, VisualFeedbackQuery, condition
from repro.datasets import environmental_database
from repro.vis import MultiWindowLayout, ascii_colorbar, ascii_render, write_png


def main() -> None:
    # 1. A database: synthetic weather + air-pollution measurement series.
    database = environmental_database(hours=1500, stations=4, seed=42)
    print(f"database tables: {database.table_names}")
    print(f"weather data items: {len(database.table('Weather'))}")

    # 2. A query: warm afternoons.  The visual feedback query returns not only
    #    the exact answers but also the approximate ones, ranked by relevance.
    query = (
        QueryBuilder("warm-afternoons", database)
        .use_tables("Weather")
        .add_result("Temperature")
        .add_result("Solar-Radiation")
        .where(condition("Temperature", ">", 25.0))
        .and_where(condition("Solar-Radiation", ">", 500.0))
        .build()
    )
    print(f"\nquery: {query.describe()}")

    # 3. Execute the pipeline, displaying 40 % of the data.
    feedback = VisualFeedbackQuery(database, query, percentage=0.4).execute()
    print("\ncounters (as in the query modification part of Fig. 4):")
    for key, value in feedback.statistics.as_dict().items():
        print(f"  {key:>12}: {value}")

    # 4. Per-window restrictiveness: darker window = more restrictive predicate.
    print("\nwindow summary:")
    for label, stats in feedback.window_summary().items():
        print(
            f"  {label:<40} restrictiveness={stats['restrictiveness']:.2f} "
            f"results={stats['results']}"
        )

    # 5. A terminal preview of the overall result window (spiral arrangement:
    #    exact answers in the middle, approximate answers further out).
    layout = MultiWindowLayout(window_width=64, window_height=64)
    windows = layout.windows(feedback)
    print("\noverall result window (ASCII preview):")
    print(ascii_colorbar())
    print(ascii_render(windows[()], max_width=64))

    # 6. Save the composed multi-window image (overall + one window per predicate).
    output = Path("quickstart_visdb.png")
    write_png(layout.compose(windows), output)
    print(f"\nwrote {output}")


if __name__ == "__main__":
    main()
