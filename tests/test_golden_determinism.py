"""Golden determinism tests for the simulation engine.

The hot-path optimizations in :mod:`repro.sps.engine` (precompiled
routing tables, precomputed arrival state, the idle-server fast path)
must not change any simulated result. These tests pin that down three
ways:

1. running the same configuration twice yields *identical* metrics
   dictionaries (no hidden global state, no iteration-order dependence);
2. a set of hardcoded golden values — captured from the straightforward
   pre-optimization implementation (with the sender-overhead accounting
   fix applied) — still comes out, to 1e-9 relative precision;
3. the parallel fan-out returns exactly what the serial loop returns.

If an intentional semantic change (e.g. a new cost term) breaks the
golden values, re-capture them with the recipe in the comments below —
but never to paper over an unintended drift.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import homogeneous_cluster
from repro.core.runner import BenchmarkRunner, RunnerConfig

#: The apps pinned by the goldens: WC exercises keyed aggregation over a
#: hash shuffle, SG a UDO pipeline, AD a windowed join with broadcast.
GOLDEN_APPS = ("WC", "SG", "AD")

#: Recipe: runner config of the golden capture. Any change here
#: invalidates the GOLDEN fixture below.
GOLDEN_CONFIG = dict(
    repeats=2,
    dilation=25.0,
    max_tuples_per_source=1200,
    max_sim_time=3.0,
    seed=11,
)
GOLDEN_PARALLELISM = 2

#: Per-app, per-repeat (events_processed, results, mean latency s),
#: captured from the pre-optimization engine at the config above on a
#: 4-node m510 cluster.
GOLDEN = {
    "WC": [
        (21668, 26, 0.3073962555162742),
        (21678, 26, 0.30299855748393417),
    ],
    "SG": [
        (8076, 286, 5.074298783458579),
        (8124, 294, 5.3499872773414765),
    ],
    "AD": [
        (13284, 39, 0.2657859812496416),
        (13571, 56, 0.2913737970757395),
    ],
}


def _run_all(workers: int = 1) -> dict[str, list[dict]]:
    cluster = homogeneous_cluster("m510", 4)
    runner = BenchmarkRunner(
        cluster, RunnerConfig(**GOLDEN_CONFIG, workers=workers)
    )
    out = {}
    for abbrev in GOLDEN_APPS:
        query = runner.prepare_app(abbrev, GOLDEN_PARALLELISM)
        out[abbrev] = [run.to_dict() for run in runner.run_plan(query.plan)]
    return out


def test_run_twice_is_bit_identical():
    first = _run_all()
    second = _run_all()
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )


def test_golden_values_hold():
    results = _run_all()
    for abbrev, repeats in GOLDEN.items():
        for i, (events, num_results, mean_latency) in enumerate(repeats):
            run = results[abbrev][i]
            assert run["extras"]["events_processed"] == events, (
                abbrev,
                i,
            )
            assert run["results"] == num_results, (abbrev, i)
            assert run["latency"]["mean"] == pytest.approx(
                mean_latency, rel=1e-9
            ), (abbrev, i)


def test_parallel_fanout_matches_serial():
    serial = _run_all(workers=1)
    parallel = _run_all(workers=4)
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        parallel, sort_keys=True
    )


#: The contract of ``extras["ft"]`` for checkpointed runs: exactly
#: these keys, in any order. Downstream consumers (exp5, the CI
#: recovery-smoke assertions, bench_ft_overhead) index into this dict,
#: so renaming or dropping a key is a breaking change this test pins.
FT_EXTRAS_KEYS = {
    "delivery",
    "checkpoint_interval",
    "checkpoints_completed",
    "checkpoints_skipped",
    "checkpoint_duration_mean_s",
    "state_items",
    "state_bytes",
    "recoveries",
    "recovery_time_s",
    "replayed_events",
    "duplicates_dropped",
    "duplicate_results",
    "lost_results",
    "log",
}

FT_LOG_ENTRY_KEYS = {
    "ckpt_id",
    "triggered_at",
    "duration_s",
    "state_items",
    "state_bytes",
}


def test_checkpointed_run_pins_ft_extras_schema():
    """A checkpointed golden-config run carries the pinned ft extras."""
    cluster = homogeneous_cluster("m510", 4)
    runner = BenchmarkRunner(
        cluster,
        RunnerConfig(**{**GOLDEN_CONFIG, "repeats": 1}, checkpoint_ms=250.0),
    )
    query = runner.prepare_app("WC", GOLDEN_PARALLELISM)
    first = runner.run_plan(query.plan)[0].to_dict()
    second = runner.run_plan(query.plan)[0].to_dict()
    ft = first["extras"]["ft"]
    assert set(ft) == FT_EXTRAS_KEYS
    assert ft["delivery"] == "exactly_once"
    assert ft["checkpoints_completed"] >= 1
    assert ft["recoveries"] == 0
    for entry in ft["log"]:
        assert set(entry) == FT_LOG_ENTRY_KEYS
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )


def test_checkpointing_off_keeps_golden_values():
    """``checkpoint_ms=None`` must leave the golden runs bit-identical
    (the FT code paths are attribute-indirected away when off)."""
    cluster = homogeneous_cluster("m510", 4)
    baseline = BenchmarkRunner(cluster, RunnerConfig(**GOLDEN_CONFIG))
    explicit = BenchmarkRunner(
        cluster,
        RunnerConfig(
            **GOLDEN_CONFIG, checkpoint_ms=None, delivery="exactly_once"
        ),
    )
    query_a = baseline.prepare_app("WC", GOLDEN_PARALLELISM)
    query_b = explicit.prepare_app("WC", GOLDEN_PARALLELISM)
    runs_a = [r.to_dict() for r in baseline.run_plan(query_a.plan)]
    runs_b = [r.to_dict() for r in explicit.run_plan(query_b.plan)]
    assert json.dumps(runs_a, sort_keys=True) == json.dumps(
        runs_b, sort_keys=True
    )


# ------------------------------------------------------------------------
# Goldens for the checkpointing and sharded transports. Each entry is
# (events_processed, results, mean latency s), captured at the golden
# config above before the scalar, checkpointing and sharded executors
# shared one route/enqueue/serve path. Run-twice identity and
# K-invariance cannot catch a drift that hits every run alike; these
# values can.

#: WC at the golden config with ``checkpoint_ms=250``, per repeat.
GOLDEN_CHECKPOINTED_WC = [
    (21677, 26, 0.3073962555162742),
    (21687, 26, 0.30299855748393417),
]

#: ``exp5.ft_workload_plan()`` (seed 7, 50 ms checkpoints, node failure
#: at 0.3 s for 0.1 s), per delivery guarantee: the (events, results,
#: mean latency) triple, then extras["ft"] (recoveries, replayed_events,
#: duplicates_dropped, duplicate_results).
GOLDEN_FT_RECOVERY = {
    "exactly_once": ((3011, 34, 0.466723517358171), (1, 300, 13, 0)),
    "at_least_once": ((3024, 47, 0.49344951695997435), (1, 300, 0, 13)),
}

#: Sharded runs (the shard universe: per-subtask RNG streams and
#: producer-local tie-breaks), per app, per repeat. Identical for
#: ``shards=1`` and in-process ``shards=2`` by construction.
GOLDEN_SHARDED = {
    "WC": [
        (21668, 26, 0.33001738849079615),
        (21678, 26, 0.30001257800145636),
    ],
    "AD": [
        (13325, 42, 0.32811454425339914),
        (13582, 58, 0.3469466268355101),
    ],
}


def _triple(metrics) -> tuple:
    return (
        metrics.extras["events_processed"],
        metrics.results,
        metrics.latency.mean,
    )


def _assert_triples(got, want, label) -> None:
    for i, ((events, results, mean), expected) in enumerate(zip(got, want)):
        assert events == expected[0], (label, i)
        assert results == expected[1], (label, i)
        assert mean == pytest.approx(expected[2], rel=1e-9), (label, i)


def test_checkpointed_golden_values_hold():
    cluster = homogeneous_cluster("m510", 4)
    runner = BenchmarkRunner(
        cluster, RunnerConfig(**GOLDEN_CONFIG, checkpoint_ms=250.0)
    )
    query = runner.prepare_app("WC", GOLDEN_PARALLELISM)
    runs = [_triple(run) for run in runner.run_plan(query.plan)]
    _assert_triples(runs, GOLDEN_CHECKPOINTED_WC, "WC/ckpt")


@pytest.mark.parametrize("delivery", sorted(GOLDEN_FT_RECOVERY))
def test_recovery_golden_values_hold(delivery):
    from repro.common.rng import RngFactory
    from repro.core.experiments.exp5 import ft_workload_plan
    from repro.sps.engine import SimulationConfig, StreamEngine

    config = SimulationConfig(
        max_tuples_per_source=300,
        max_sim_time=3.0,
        warmup_fraction=0.0,
        keep_sink_values=True,
        scenario="failure:at=0.3,duration=0.1",
        checkpoint_interval=0.05,
        delivery=delivery,
    )
    engine = StreamEngine(
        ft_workload_plan(),
        homogeneous_cluster(num_nodes=4),
        config=config,
        rng_factory=RngFactory(7),
    )
    metrics = engine.run()
    triple, ft_counts = GOLDEN_FT_RECOVERY[delivery]
    _assert_triples([_triple(metrics)], [triple], delivery)
    ft = metrics.extras["ft"]
    assert (
        ft["recoveries"],
        ft["replayed_events"],
        ft["duplicates_dropped"],
        ft["duplicate_results"],
    ) == ft_counts


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("abbrev", sorted(GOLDEN_SHARDED))
def test_sharded_golden_values_hold(abbrev, shards):
    """Mirrors ``BenchmarkRunner.run_plan`` (same plan, config and
    per-repeat seeds) with the shards driven in-process."""
    from repro.common.rng import RngFactory
    from repro.sps.engine import SimulationConfig, StreamEngine

    cluster = homogeneous_cluster("m510", 4)
    runner = BenchmarkRunner(cluster, RunnerConfig(**GOLDEN_CONFIG))
    query = runner.prepare_app(abbrev, GOLDEN_PARALLELISM)
    config = SimulationConfig(
        max_tuples_per_source=GOLDEN_CONFIG["max_tuples_per_source"],
        max_sim_time=GOLDEN_CONFIG["max_sim_time"],
        shards=shards,
    )
    runs = []
    for repeat in range(GOLDEN_CONFIG["repeats"]):
        engine = StreamEngine(
            query.plan,
            cluster,
            config=config,
            rng_factory=RngFactory(GOLDEN_CONFIG["seed"] * 1000 + repeat),
        )
        engine.shard_force_inline = True
        runs.append(_triple(engine.run()))
    _assert_triples(runs, GOLDEN_SHARDED[abbrev], f"{abbrev}/s{shards}")
