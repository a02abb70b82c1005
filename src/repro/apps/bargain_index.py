"""Bargain Index (BI) — stock quote bargain detection.

The classic IBM System S / DSPBench finance application: compute the
volume-weighted average price (VWAP) per symbol over windows and emit a
bargain index when the ask price dips below the VWAP. Dataflow::

    trades ----> window VWAP per symbol --\\
                                           join(symbol) -> UDO(bargain) -> sink
    quotes -------------------------------/
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppInfo, AppQuery, DataIntensity, make_generator
from repro.sps import builders
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorLogic
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import (
    AggregateFunction,
    SlidingTimeWindows,
    TumblingTimeWindows,
)

__all__ = ["INFO", "build", "BargainLogic"]

INFO = AppInfo(
    abbrev="BI",
    name="Bargain Index",
    area="Finance",
    description="Joins per-symbol VWAP with ask quotes and emits a "
    "bargain index when asks dip below VWAP",
    uses_udo=True,
    data_intensity=DataIntensity.MEDIUM,
    origin="IBM System S / DSPBench [13]",
)

_NUM_SYMBOLS = 200

_TRADE_SCHEMA = Schema(
    [
        Field("symbol", DataType.INT),
        Field("price", DataType.DOUBLE),
        Field("volume", DataType.DOUBLE),
    ]
)
_QUOTE_SCHEMA = Schema(
    [
        Field("symbol", DataType.INT),
        Field("ask", DataType.DOUBLE),
        Field("ask_size", DataType.DOUBLE),
    ]
)


def _base_price(symbol: int) -> float:
    return 20.0 + (symbol % 50) * 3.0


def _sample_trade(rng: np.random.Generator) -> tuple:
    symbol = int(rng.integers(_NUM_SYMBOLS))
    # lo + (hi - lo) * random() is rng.uniform(lo, hi) bit for bit; keep
    # the difference unfolded, since 1.03 - 0.97 is not the double 0.06.
    price = _base_price(symbol) * (0.97 + (1.03 - 0.97) * rng.random())
    return (symbol, price, float(rng.integers(100, 5_000)))


def _sample_quote(rng: np.random.Generator) -> tuple:
    symbol = int(rng.integers(_NUM_SYMBOLS))
    ask = _base_price(symbol) * (0.94 + (1.04 - 0.94) * rng.random())
    return (symbol, ask, float(rng.integers(100, 2_000)))


class BargainLogic(OperatorLogic):
    """Computes the bargain index from joined (vwap, quote) pairs.

    Input values are ``(symbol, vwap, symbol, ask, ask_size)``; emits
    ``(symbol, bargain_index)`` when ask < vwap, where the index weights
    the discount by the available size.
    """

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        symbol, vwap, _symbol2, ask, ask_size = tup.values
        if ask >= vwap:
            return []
        index = (vwap - ask) * ask_size
        return [tup.with_values((symbol, index))]


def build(
    event_rate: float = 100_000.0, seed: int = 0, space=None
) -> AppQuery:
    """Build the BI dataflow at parallelism 1 (rate split 50/50)."""
    trade_rate = event_rate / 2.0
    quote_rate = event_rate / 2.0
    plan = LogicalPlan("BI")
    plan.add_operator(
        builders.source(
            "trades",
            make_generator(_TRADE_SCHEMA, _sample_trade),
            _TRADE_SCHEMA,
            trade_rate,
        )
    )
    plan.add_operator(
        builders.source(
            "quotes",
            make_generator(_QUOTE_SCHEMA, _sample_quote),
            _QUOTE_SCHEMA,
            quote_rate,
        )
    )
    # VWAP approximated as windowed mean of trade prices weighted upstream:
    # price*volume / volume needs two aggregates; we use AVG(price) as the
    # standard single-pass approximation used by DSPBench's implementation.
    vwap = builders.window_agg(
        "vwap",
        TumblingTimeWindows(0.5),
        AggregateFunction.AVG,
        value_field=1,
        key_field=0,
        selectivity=0.02,
    )
    vwap.metadata["key_cardinality"] = _NUM_SYMBOLS
    plan.add_operator(vwap)
    join = builders.window_join(
        "quote_join",
        SlidingTimeWindows(1.0, 0.5),
        left_key_field=0,
        right_key_field=0,
        selectivity=1.5,
    )
    plan.add_operator(join)
    bargain = builders.udo(
        "bargain",
        BargainLogic,
        selectivity=0.3,
        cost_scale=0.5,
        name="bargain index",
        output_schema=Schema(
            [
                Field("symbol", DataType.INT),
                Field("index", DataType.DOUBLE),
            ]
        ),
    )
    plan.add_operator(bargain)
    plan.add_operator(builders.sink("sink"))
    plan.connect("trades", "vwap")
    plan.connect("vwap", "quote_join", port=0)
    plan.connect("quotes", "quote_join", port=1)
    plan.connect("quote_join", "bargain")
    plan.connect("bargain", "sink")
    return AppQuery(
        plan=plan,
        info=INFO,
        event_rate=event_rate,
        params={"trade_rate": trade_rate, "quote_rate": quote_rate},
    )
