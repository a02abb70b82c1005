"""Taxi Queries (TQ) — DEBS 2015 Grand Challenge frequent routes.

Map taxi trips to a grid, count route (start-cell -> end-cell) frequencies
over sliding windows and track the most frequent routes. Dataflow::

    trips -> map(grid cells) -> window count per route ->
    UDO(top routes) -> sink
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.apps.base import AppInfo, AppQuery, DataIntensity, make_generator
from repro.sps import builders
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorLogic
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import AggregateFunction, SlidingTimeWindows

__all__ = ["INFO", "build", "TopRoutesLogic"]

INFO = AppInfo(
    abbrev="TQ",
    name="Taxi Queries",
    area="Transportation",
    description="DEBS 2015: frequent taxi routes on a city grid over "
    "sliding windows",
    uses_udo=True,
    data_intensity=DataIntensity.MEDIUM,
    origin="DEBS 2015 Grand Challenge",
)

_GRID = 30  # 30x30 cells, as in the challenge's 300x300 scaled down

_SCHEMA = Schema(
    [
        Field("pickup_x", DataType.DOUBLE),
        Field("pickup_y", DataType.DOUBLE),
        Field("dropoff_x", DataType.DOUBLE),
        Field("dropoff_y", DataType.DOUBLE),
        Field("fare", DataType.DOUBLE),
    ]
)


def _sample_trip(rng: np.random.Generator) -> tuple:
    # Trips cluster around a few hotspots (midtown-style density).
    def coord() -> float:
        if rng.random() < 0.6:
            return min(max(0.5 + 0.08 * rng.standard_normal(), 0.0), 1.0)
        return float(rng.random())

    return (
        coord(),
        coord(),
        coord(),
        coord(),
        3.0 + (60.0 - 3.0) * rng.random(),
    )


def _to_route(values: tuple) -> tuple:
    px, py, dx, dy, fare = values
    start = int(px * (_GRID - 1)) * _GRID + int(py * (_GRID - 1))
    end = int(dx * (_GRID - 1)) * _GRID + int(dy * (_GRID - 1))
    return (start * _GRID * _GRID + end, fare)


class TopRoutesLogic(OperatorLogic):
    """Tracks the 10 most frequent routes from windowed counts."""

    def __init__(self, k: int = 10) -> None:
        self.k = k
        self._counts: dict[int, float] = {}

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        route, count = tup.values
        self._counts[route] = count
        if len(self._counts) > 8 * self.k:
            keep = heapq.nlargest(
                4 * self.k, self._counts.items(), key=lambda kv: kv[1]
            )
            self._counts = dict(keep)
        top = heapq.nlargest(
            self.k, self._counts.items(), key=lambda kv: kv[1]
        )
        if any(r == route for r, _ in top):
            rank = [r for r, _ in top].index(route)
            return [tup.with_values((route, count, float(rank)))]
        return []


def build(
    event_rate: float = 100_000.0, seed: int = 0, space=None
) -> AppQuery:
    """Build the TQ dataflow at parallelism 1."""
    plan = LogicalPlan("TQ")
    plan.add_operator(
        builders.source(
            "trips",
            make_generator(_SCHEMA, _sample_trip),
            _SCHEMA,
            event_rate,
        )
    )
    plan.add_operator(
        builders.map_op(
            "route",
            _to_route,
            output_schema=Schema(
                [
                    Field("route_key", DataType.INT),
                    Field("fare", DataType.DOUBLE),
                ]
            ),
        )
    )
    route_counts = builders.window_agg(
        "route_counts",
        SlidingTimeWindows(1.0, 0.5),
        AggregateFunction.COUNT,
        value_field=1,
        key_field=0,
        selectivity=0.05,
    )
    route_counts.metadata["key_cardinality"] = _GRID**2 * 4
    plan.add_operator(route_counts)
    top_routes = builders.udo(
        "top_routes",
        TopRoutesLogic,
        selectivity=0.2,
        cost_scale=3.0,
        name="frequent-route tracker",
        output_schema=Schema(
            [
                Field("route", DataType.INT),
                Field("count", DataType.DOUBLE),
                Field("rank", DataType.DOUBLE),
            ]
        ),
    )
    plan.add_operator(top_routes)
    plan.add_operator(builders.sink("sink"))
    plan.connect("trips", "route")
    plan.connect("route", "route_counts")
    plan.connect("route_counts", "top_routes")
    plan.connect("top_routes", "sink")
    return AppQuery(plan=plan, info=INFO, event_rate=event_rate)
