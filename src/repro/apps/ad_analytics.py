"""Ad Analytics (AD) — the paper's running example (Figure 2, right).

From the S4 platform paper: join ad impressions with clicks over a sliding
window and compute per-campaign click-through rates with custom aggregation
logic. Dataflow::

    impressions --\\
                   join(ad_id, sliding window) -> UDO(CTR aggregation) ->
    clicks ------/                                window avg per campaign -> sink

AD is the paper's example of an app whose "custom aggregation and joining
logic on a sliding window results in non-linear scaling, where increased
parallelism leads to higher overhead, sometimes degrading performance"
(O3), and which fails to benefit from heterogeneous hardware (O5). That
behaviour comes from the CTR UDO's high coordination coefficient: its
state must be reconciled across instances.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppInfo, AppQuery, DataIntensity, make_generator
from repro.sps import builders
from repro.sps.costs import OperatorCost
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorLogic
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import AggregateFunction, SlidingTimeWindows

__all__ = ["INFO", "build", "CtrLogic"]

INFO = AppInfo(
    abbrev="AD",
    name="Ad Analytics",
    area="Advertising",
    description="Joins impressions with clicks per ad over sliding "
    "windows and aggregates click-through rates per campaign",
    uses_udo=True,
    data_intensity=DataIntensity.MEDIUM,
    origin="S4 [47]",
)

_NUM_ADS = 5_000
_NUM_CAMPAIGNS = 100

_IMPRESSION_SCHEMA = Schema(
    [
        Field("ad_id", DataType.INT),
        Field("campaign", DataType.INT),
        Field("cost", DataType.DOUBLE),
    ]
)
_CLICK_SCHEMA = Schema(
    [Field("ad_id", DataType.INT), Field("value", DataType.DOUBLE)]
)


def _sample_impression(rng: np.random.Generator) -> tuple:
    ad = int(rng.integers(_NUM_ADS))
    return (ad, ad % _NUM_CAMPAIGNS, 0.01 + (2.0 - 0.01) * rng.random())


def _sample_click(rng: np.random.Generator) -> tuple:
    # Clicks concentrate on a popular subset of ads.
    if rng.random() < 0.7:
        ad = int(rng.integers(_NUM_ADS // 10))
    else:
        ad = int(rng.integers(_NUM_ADS))
    return (ad, 0.1 + (5.0 - 0.1) * rng.random())


class CtrLogic(OperatorLogic):
    """Custom CTR accumulator over joined (impression, click) pairs.

    Consumes join outputs ``(ad_id, campaign, cost, ad_id, value)`` and
    maintains per-campaign impression/click counters, emitting
    ``(campaign, ctr)`` updates. The per-instance counters are what force
    cross-instance reconciliation in a real deployment — modelled by this
    operator's high coordination coefficient.
    """

    def __init__(self, emit_every: int = 8) -> None:
        self._impressions: dict[int, int] = {}
        self._clicks: dict[int, int] = {}
        self._since_emit: dict[int, int] = {}
        self.emit_every = emit_every

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        campaign = tup.values[1]
        self._impressions[campaign] = self._impressions.get(campaign, 0) + 1
        self._clicks[campaign] = self._clicks.get(campaign, 0) + 1
        pending = self._since_emit.get(campaign, 0) + 1
        if pending < self.emit_every:
            self._since_emit[campaign] = pending
            return []
        self._since_emit[campaign] = 0
        ctr = self._clicks[campaign] / max(self._impressions[campaign], 1)
        return [tup.with_values((campaign, ctr))]


def build(
    event_rate: float = 100_000.0, seed: int = 0, space=None
) -> AppQuery:
    """Build the AD dataflow at parallelism 1.

    ``event_rate`` is split between the two sources (2/3 impressions,
    1/3 clicks), keeping the total comparable with single-source apps.
    """
    impression_rate = event_rate * 2.0 / 3.0
    click_rate = event_rate / 3.0
    plan = LogicalPlan("AD")
    plan.add_operator(
        builders.source(
            "impressions",
            make_generator(_IMPRESSION_SCHEMA, _sample_impression),
            _IMPRESSION_SCHEMA,
            impression_rate,
        )
    )
    plan.add_operator(
        builders.source(
            "clicks",
            make_generator(_CLICK_SCHEMA, _sample_click),
            _CLICK_SCHEMA,
            click_rate,
        )
    )
    window = SlidingTimeWindows(1.0, 0.5)
    join = builders.window_join(
        "ad_join",
        window,
        left_key_field=0,
        right_key_field=0,
        selectivity=1.2,
    )
    plan.add_operator(join)
    ctr = builders.udo(
        "ctr",
        CtrLogic,
        selectivity=1.0 / 8,
        cost=OperatorCost(
            base_cpu_s=40.0e-6 * 2.5,
            coord_kappa=0.030,  # heavy cross-instance state reconciliation
            stateful=True,
            is_udo=True,
            cost_noise=0.30,
        ),
        name="CTR accumulator",
        output_schema=Schema(
            [
                Field("campaign", DataType.INT),
                Field("ctr", DataType.DOUBLE),
            ]
        ),
    )
    ctr.metadata["key_field"] = 1
    ctr.metadata["key_cardinality"] = _NUM_CAMPAIGNS
    plan.add_operator(ctr)
    campaign_avg = builders.window_agg(
        "campaign_ctr",
        SlidingTimeWindows(1.0, 0.5),
        AggregateFunction.AVG,
        value_field=1,
        key_field=0,
        selectivity=0.05,
    )
    campaign_avg.metadata["key_cardinality"] = _NUM_CAMPAIGNS
    plan.add_operator(campaign_avg)
    plan.add_operator(builders.sink("sink"))
    plan.connect("impressions", "ad_join", port=0)
    plan.connect("clicks", "ad_join", port=1)
    plan.connect("ad_join", "ctr")
    plan.connect("ctr", "campaign_ctr")
    plan.connect("campaign_ctr", "sink")
    return AppQuery(
        plan=plan,
        info=INFO,
        event_rate=event_rate,
        params={"impression_rate": impression_rate, "click_rate": click_rate},
    )
