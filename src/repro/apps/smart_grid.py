"""Smart Grid (SG) — DEBS 2014 Grand Challenge outlier query.

Table 2: "energy usage patterns from smart plugs". The DEBS 2014 outlier
query compares each plug's median load against its house's median over a
window and scores plugs that run anomalously hot. Dataflow::

    plug readings -> UDO(per-plug sliding median, keyed by plug) ->
    UDO(per-house median + outlier score, keyed by house) -> sink

Both stages maintain exact order statistics over sliding histories — SG is
one of the paper's most data-intensive apps, the one whose latency only
starts improving at parallelism 64-128 (O2, O4). Keying the heavy median
stage by plug (40 houses x 20 plugs = 800 keys) is what lets parallelism
up to 128 help, exactly as the DEBS data's plug-level granularity does.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.apps.base import AppInfo, AppQuery, DataIntensity, make_generator
from repro.sps import builders
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorLogic
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema

__all__ = ["INFO", "build", "PlugMedianLogic", "HouseOutlierLogic"]

INFO = AppInfo(
    abbrev="SG",
    name="Smart Grid",
    area="Smart grid / IoT",
    description="DEBS 2014: per-plug median loads vs their house's "
    "median; scores anomalously hot plugs",
    uses_udo=True,
    data_intensity=DataIntensity.HIGH,
    origin="DEBS 2014 Grand Challenge [20]",
)

_NUM_HOUSES = 40
_PLUGS_PER_HOUSE = 20

_SCHEMA = Schema(
    [
        Field("plug_key", DataType.INT),
        Field("house", DataType.INT),
        Field("load", DataType.DOUBLE),
    ]
)


def _sample_reading(rng: np.random.Generator) -> tuple:
    house = int(rng.integers(_NUM_HOUSES))
    plug = int(rng.integers(_PLUGS_PER_HOUSE))
    # Base load per house varies; some plugs run heavy appliances.
    base = 40.0 + 10.0 * (house % 7)
    if (house * _PLUGS_PER_HOUSE + plug) % 13 == 0:
        base *= 2.5
    load = max(base + base * 0.2 * rng.standard_normal(), 0.0)
    return (house * _PLUGS_PER_HOUSE + plug, house, load)


class _SlidingMedian:
    """Exact sliding-window median over the last ``capacity`` values."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._ordered: list[float] = []
        self._fifo: list[float] = []

    def add(self, value: float) -> None:
        bisect.insort(self._ordered, value)
        self._fifo.append(value)
        if len(self._fifo) > self.capacity:
            oldest = self._fifo.pop(0)
            index = bisect.bisect_left(self._ordered, oldest)
            del self._ordered[index]

    def median(self) -> float:
        n = len(self._ordered)
        if n == 0:
            return 0.0
        if n % 2:
            return self._ordered[n // 2]
        return 0.5 * (self._ordered[n // 2 - 1] + self._ordered[n // 2])

    def __len__(self) -> int:
        return len(self._ordered)


class PlugMedianLogic(OperatorLogic):
    """Keyed per-plug sliding median of loads.

    Emits ``(house, plug_median)`` every ``emit_every`` readings of a
    plug, thinning the downstream stream as the real DEBS query does.
    """

    def __init__(self, window: int = 96, emit_every: int = 2) -> None:
        self._medians: dict[tuple, _SlidingMedian] = {}
        self._counts: dict[tuple, int] = {}
        self.window = window
        self.emit_every = emit_every

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        plug_key, house, load = tup.values
        median = self._medians.setdefault(
            plug_key, _SlidingMedian(self.window)
        )
        median.add(load)
        count = self._counts.get(plug_key, 0) + 1
        self._counts[plug_key] = count
        if count % self.emit_every:
            return []
        return [tup.with_values((house, median.median()))]


class HouseOutlierLogic(OperatorLogic):
    """Per-house sliding median of plug medians; scores each plug update.

    Emits ``(house, plug_median, house_median, outlier_score)`` once the
    house has a handful of samples; a score above 1 means the plug runs
    hotter than its house's median (the DEBS outlier criterion).
    """

    def __init__(self, window: int = 128, warmup: int = 4) -> None:
        self._houses: dict[int, _SlidingMedian] = {}
        self.window = window
        self.warmup = warmup

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        house, plug_median = tup.values
        median = self._houses.setdefault(house, _SlidingMedian(self.window))
        median.add(plug_median)
        if len(median) < self.warmup:
            return []
        house_median = median.median()
        score = plug_median / max(house_median, 1e-9)
        return [
            tup.with_values((house, plug_median, house_median, score))
        ]


def build(
    event_rate: float = 100_000.0, seed: int = 0, space=None
) -> AppQuery:
    """Build the SG dataflow at parallelism 1."""
    plan = LogicalPlan("SG")
    plan.add_operator(
        builders.source(
            "plugs",
            make_generator(_SCHEMA, _sample_reading),
            _SCHEMA,
            event_rate,
        )
    )
    plug_median = builders.udo(
        "plug_median",
        PlugMedianLogic,
        selectivity=1.0 / 2,
        cost_scale=12.0,  # order-statistics maintenance per reading
        name="per-plug sliding median",
        output_schema=Schema(
            [
                Field("house", DataType.INT),
                Field("plug_median", DataType.DOUBLE),
            ]
        ),
    )
    plug_median.metadata["key_field"] = 0
    plug_median.metadata["key_cardinality"] = (
        _NUM_HOUSES * _PLUGS_PER_HOUSE
    )
    plan.add_operator(plug_median)
    outlier = builders.udo(
        "outlier",
        HouseOutlierLogic,
        selectivity=0.9,
        cost_scale=4.0,
        name="per-house outlier scorer",
        output_schema=Schema(
            [
                Field("house", DataType.INT),
                Field("plug_median", DataType.DOUBLE),
                Field("house_median", DataType.DOUBLE),
                Field("score", DataType.DOUBLE),
            ]
        ),
    )
    outlier.metadata["key_field"] = 0
    outlier.metadata["key_cardinality"] = _NUM_HOUSES
    plan.add_operator(outlier)
    plan.add_operator(builders.sink("sink"))
    plan.connect("plugs", "plug_median")
    plan.connect("plug_median", "outlier")
    plan.connect("outlier", "sink")
    return AppQuery(plan=plan, info=INFO, event_rate=event_rate)
