"""The paper's running example: exploring an environmental database (Figs. 3-5).

Reproduces the full scenario of the paper's sections 3-4:

1. the Fig. 3 query -- three OR-connected weather predicates plus the
   ``with-time-diff(120)`` approximate join between Weather and Air-Pollution,
2. the Fig. 4 visualization -- overall result window plus one window per
   top-level query part, with the counters and sliders,
3. the Fig. 5 drill-down into the OR part, including the colour-range
   read-back ("which humidity values are the red region?"),
4. an interactive refinement loop (slider moves, weighting factors), and
5. the time-lagged temperature/ozone correlation that motivates the query.

Run with::

    python examples/environmental_exploration.py

The figures are written to the working directory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import OrNode, QueryBuilder, VisualFeedbackQuery, condition
from repro.analysis import best_lag, restrictiveness_ranking
from repro.datasets import environmental_database
from repro.interact import SetQueryRange, SetThreshold, SetWeight, VisDBSession
from repro.vis import MultiWindowLayout, ascii_render, write_png
from repro.vis.sliders import sliders_for_feedback

OUTPUT_DIR = Path.cwd()


def fig3_query(database):
    """The query of Fig. 3: OR of three weather predicates + time-lagged join."""
    or_part = OrNode([
        condition("Weather.Temperature", ">", 15.0),
        condition("Weather.Solar-Radiation", ">", 600.0),
        condition("Weather.Humidity", "<", 60.0),
    ], label="OR part")
    return (
        QueryBuilder("fig3", database)
        .use_tables("Weather", "Air-Pollution")
        .add_result("Weather.Temperature")
        .add_result("Weather.Solar-Radiation")
        .add_result("Weather.Humidity")
        .add_result("Air-Pollution.Ozone")
        .where(or_part)
        .use_connection("Air-Pollution with-time-diff Weather", parameter=120)
        .build()
    )


def main() -> None:
    database = environmental_database(hours=1000, stations=3, seed=7)
    weather = database.table("Weather")
    pollution = database.table("Air-Pollution")
    print(f"weather items: {len(weather)}, air-pollution items: {len(pollution)}")

    # -- the motivating discovery: a time-lagged temperature/ozone correlation --
    lag, correlation = best_lag(
        weather.column("Temperature")[: 24 * 30],
        pollution.column("Ozone")[: 24 * 30],
        lags=range(0, 7),
    )
    print(f"best temperature->ozone lag: {lag} hours (r = {correlation:.2f})")

    # -- Fig. 3/4: the multi-table query with an approximate join ---------------
    query = fig3_query(database)
    print(f"\nquery: {query.describe()}")
    feedback = VisualFeedbackQuery(database, query, max_join_pairs=60_000,
                                   percentage=0.4).execute()
    print("counters:", feedback.statistics.as_dict())
    print("restrictiveness ranking (darkest window first):")
    for label, value in restrictiveness_ranking(feedback):
        print(f"  {value:.2f}  {label}")

    layout = MultiWindowLayout(window_width=96, window_height=96)
    write_png(layout.compose(layout.windows(feedback)), OUTPUT_DIR / "fig4_layout.png")
    print(f"wrote {OUTPUT_DIR / 'fig4_layout.png'}")

    # -- Fig. 5: drill down into the OR part (single-table session) --------------
    or_query = (
        QueryBuilder("fig5", database)
        .use_tables("Weather")
        .where(OrNode([
            condition("Temperature", ">", 15.0),
            condition("Solar-Radiation", ">", 600.0),
            condition("Humidity", "<", 60.0),
        ]))
        .build()
    )
    session = VisDBSession(database, or_query,
                           layout=MultiWindowLayout(window_width=96, window_height=96))
    subwindows = session.drill_down(())
    write_png(session.layout.compose(subwindows), OUTPUT_DIR / "fig5_or_part.png")
    print(f"wrote {OUTPUT_DIR / 'fig5_or_part.png'}")
    print("\nOR-part overall window (ASCII preview):")
    print(ascii_render(subwindows[()], max_width=60))

    # The Fig. 5 observation: which humidity values make up the "red" (distant)
    # region of the humidity window although the overall answer is good?
    overall, sliders = sliders_for_feedback(session.feedback)
    humidity_slider = next(s for s in sliders if s.attribute == "Humidity")
    red_range = humidity_slider.first_last_of_color(150.0, 255.0)
    if red_range is not None:
        print(f"red region of the Humidity window corresponds to "
              f"{red_range[0]:.1f}% .. {red_range[1]:.1f}% humidity")

    # -- interactive refinement ---------------------------------------------------
    print("\ninteractive refinement:")
    print("  initial results:", session.statistics()["# of results"])
    session.apply(SetThreshold((0,), 25.0))
    print("  after Temperature > 25:", session.statistics()["# of results"])
    session.apply(SetQueryRange((2,), 40.0, 60.0))
    print("  after Humidity in [40, 60]:", session.statistics()["# of results"])
    session.apply(SetWeight((1,), 0.3))
    print("  after down-weighting Solar-Radiation: "
          f"{session.statistics()['# of results']} "
          f"(recalculations: {session.recalculations})")

    # -- hot spots: the planted exceptional measurements surface at the top -------
    planted = database.metadata["weather_hotspots"]
    hot_query = (
        QueryBuilder("hot", database).use_tables("Weather")
        .where(condition("Temperature", ">", 45.0)).build()
    )
    hot_feedback = VisualFeedbackQuery(database, hot_query, percentage=0.01).execute()
    top = hot_feedback.display_order[:20]
    found = np.intersect1d(top, planted)
    print(f"\nplanted exceptional measurements: {len(planted)}, "
          f"found among the 20 most relevant answers: {len(found)}")


if __name__ == "__main__":
    main()
