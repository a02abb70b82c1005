"""The benchmark's workloads and their per-cell correctness checks.

A *cell* is one measured configuration: one ``BenchmarkRunner.measure``
call on ``paper-sweep``, one ``StreamEngine`` build plus ``run`` on
``engine-scalar`` and ``engine-modes``. Every workload is a closed
loop: the next cell is submitted only when a slot frees, with
``workers`` slots on ``paper-sweep`` and one slot on the others.

Each workload takes the benchmark seed and derives every runner,
``RngFactory`` and ``WorkloadGenerator`` seed from it, so the same seed
gives the same inputs. A cell that raises, times out, or fails its
check is recorded as failed and the loop goes on. A cell the program
refuses in a way the workload expects (the RES401 pre-flight refusal of
a plan wider than the cluster) is recorded as ``rejected``: not failed,
but counted in ``failed_frac``.

The host-speed probe (:mod:`perfbench.hostspeed`) runs right before
and right after every untraced cell, so each cell's wall time can be
scaled to the reference host's speed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import signal
import time
from contextlib import contextmanager

import numpy as np

from perfbench import hostspeed

#: a cell running longer than this is stopped and counted as failed
CELL_TIMEOUT_S = 60.0

#: relative tolerance of per-key float sums folded in different orders
SUM_RTOL = 1e-9


class CellTimeout(Exception):
    """A cell exceeded :data:`CELL_TIMEOUT_S`."""


@contextmanager
def alarm(seconds: float):
    """Raise :class:`CellTimeout` in the main thread after ``seconds``."""

    def expired(signum, frame):
        raise CellTimeout(f"cell exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def derive(seed: int, *labels) -> int:
    """A 31-bit seed derived from the benchmark seed and ``labels``."""
    text = repr((seed, *labels)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


def available_cores() -> int:
    """CPUs this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def run_cell(index, kind, label, execute, check, tracer, snapshot=False,
             rejects=None):
    """Run one cell untraced and, with a tracer, once more traced.

    ``execute()`` returns ``(wall seconds, outcome)``; the outcome holds
    ``source_events``, ``p50_s`` and a ``signature`` of every simulated
    statistic, which the traced rerun must reproduce exactly.
    ``check(outcome)`` returns a problem description or None.
    ``rejects(exc)`` says whether an exception is a refusal the workload
    expects; such a cell is ``rejected`` rather than ``raised``.

    ``probe_s`` is the mean of the host-speed probes run before and
    after the untraced execution, ``scaled_wall`` the cell's wall time
    at the reference host's speed, and ``probe_total`` the seconds the
    probes took.
    """
    record = {
        "index": index,
        "kind": kind,
        "label": label,
        "status": "ok",
        "error": None,
        "wall": None,
        "scaled_wall": None,
        "probe_s": None,
        "probe_total": 0.0,
        "traced_wall": None,
        "source_events": 0,
        "p50_s": None,
        "fidelity": None,
    }
    try:
        before = hostspeed.probe()
        record["probe_total"] = before
        with alarm(CELL_TIMEOUT_S):
            wall, outcome = execute()
        after = hostspeed.probe()
        record["probe_total"] += after
        record["probe_s"] = (before + after) / 2.0
        record["wall"] = wall
        record["scaled_wall"] = hostspeed.scale(wall, record["probe_s"])
        record["source_events"] = outcome["source_events"]
        record["p50_s"] = outcome["p50_s"]
        problem = check(outcome)
        record["fidelity"] = outcome.get("fidelity")
        if tracer is not None:
            if snapshot:
                tracer.reset(cell=index)
            tracer.cell = index
            tracer.install()
            try:
                with alarm(CELL_TIMEOUT_S), tracer.span("cell") as span:
                    _, traced = execute()
            finally:
                tracer.restore()
            record["traced_wall"] = span.seconds
            if snapshot:
                record["trace"] = tracer.snapshot()
            if problem is None and traced["signature"] != outcome["signature"]:
                problem = "traced run changed the simulated statistics"
        if problem is not None:
            record["status"] = "check"
            record["error"] = problem
    except CellTimeout as exc:
        record["status"] = "timeout"
        record["error"] = str(exc)
    except Exception as exc:  # a failed cell is counted, never fatal
        refused = rejects is not None and rejects(exc)
        record["status"] = "rejected" if refused else "raised"
        record["error"] = f"{type(exc).__name__}: {str(exc)[:200]}"
    return record


def run_signature(metrics) -> tuple:
    """Every simulated statistic of one run, for equality checks."""
    extras = metrics.extras
    return (
        tuple(sorted(metrics.latency.to_dict().items())),
        metrics.throughput,
        metrics.results,
        metrics.source_events,
        metrics.sim_duration,
        extras.get("events_processed"),
    )


# ------------------------------------------------------------ paper-sweep


#: host work of one operator input relative to one generated field,
#: fitted on synthetic join queries (with field counts it explains 95%
#: of their cell wall time)
OPERATOR_INPUT_WORK = 0.8


def work_rate(plan) -> float:
    """Expected host work per simulated second of a synthetic plan.

    Sources count one unit per generated field per tuple, two for a
    string field, which costs more to draw; every operator counts
    :data:`OPERATOR_INPUT_WORK` per input tuple, with input rates
    propagated from the sources through each operator's selectivity.
    """
    inputs = dict.fromkeys(plan.operators, 0.0)
    work = 0.0
    for op_id in plan.topological_order():
        op = plan.operator(op_id)
        if op.kind.name == "SOURCE":
            out = op.metadata["event_rate"]
            fields = op.output_schema.fields
            work += out * sum(
                2 if f.dtype.name == "STRING" else 1 for f in fields
            )
        else:
            work += OPERATOR_INPUT_WORK * inputs[op_id]
            out = inputs[op_id] * op.selectivity
        for edge in plan.edges:
            if edge.src == op_id:
                inputs[edge.dst] += out
    return work


class PaperSweep:
    """The Exp-1 grid on the 10 x m510 cluster at the bench profile.

    Series are Fig 3-top's synthetic structures plus a Fig 3-bottom app
    slice; categories are ``EXTENDED_CATEGORIES`` (XS .. 4XL). Cells
    come in blocks: block ``b`` runs every series once, series ``s`` at
    category ``(s + b) mod categories``, so eight blocks make a *grid*
    that runs every series at every category exactly once. A run is
    made of whole grids: the first always runs, and the next starts
    only if, at the pace of those before it, it ends by the deadline.
    Cells differ several-fold in cost, so a run cut at a block boundary
    would measure a mix that depends on how far the host's speed let it
    get; whole grids measure the same mix on every run. Inside a block
    the series go heaviest first (:data:`BLOCK_ORDER`), which keeps both
    workers busy until the grid's last cells.

    Synthetic queries are a stratified sample, because one random
    query's cost varies several-fold with its sources' tuple width and
    its operators' selectivities. For each structure the generator
    draws ``STRATA * POOL_PER_STRATUM`` queries; they are ranked by
    their expected host work (:func:`work_rate`) and cut into
    :data:`STRATA` strata, and each stratum's middle query by that
    ranking is kept, so a seed moves a stratum's representative as
    little as the stratum's width allows. Block ``b`` gives structure
    ``s`` stratum ``STRATUM_ORDER[(b + s) mod STRATA]``, so every block
    mixes cheap and dear queries and every seed's run covers the same
    strata.
    """

    name = "paper-sweep"
    APPS = ("WC", "SA", "SD", "AD")
    #: series in the order a block submits them, heaviest first
    BLOCK_ORDER = (
        "four_way_join",
        "three_way_join",
        "two_way_join",
        "three_filter_chain",
        "AD",
        "WC",
        "linear",
        "SA",
        "two_filter_chain",
        "SD",
    )
    EVENT_RATE = 100_000.0
    STRATA = 8
    POOL_PER_STRATUM = 3
    #: stratum visiting order: any run of consecutive entries spreads
    #: over the whole cost range
    STRATUM_ORDER = (3, 4, 0, 7, 2, 5, 1, 6)
    #: the bench profile of benchmarks/conftest.py
    PROFILE = {
        "repeats": 2,
        "dilation": 25.0,
        "max_tuples_per_source": 2500,
        "max_sim_time": 3.0,
    }

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.workers = min(available_cores(), 8)

    def knobs(self) -> dict:
        return {
            "workers": self.workers,
            "cluster": "10 x m510",
            "event_rate": self.EVENT_RATE,
            "apps": list(self.APPS),
            "query_strata": self.STRATA,
            "queries_per_stratum": self.POOL_PER_STRATUM,
            **self.PROFILE,
        }

    def setup(self) -> None:
        from repro.cluster.cluster import homogeneous_cluster
        from repro.core.experiments.exp1 import (
            DEFAULT_SYNTHETIC_STRUCTURES,
            EXTENDED_CATEGORIES,
        )
        from repro.core.runner import BenchmarkRunner, RunnerConfig
        from repro.sps.engine import SimulationConfig, StreamEngine
        from repro.workload.enumeration import ParameterBasedEnumeration
        from repro.workload.generator import (
            WorkloadGenerator,
            scale_plan_costs,
        )
        from repro.workload.parameter_space import ParameterSpace

        class CapturingRunner(BenchmarkRunner):
            """Keeps the last ``run_plan`` result for the cell checks."""

            def run_plan(self, plan):
                self.last_runs = super().run_plan(plan)
                return self.last_runs

        self.cluster = homogeneous_cluster("m510", 10)
        self.runner = CapturingRunner(
            self.cluster,
            RunnerConfig(seed=derive(self.seed, "runner"), **self.PROFILE),
        )
        self.categories = dict(EXTENDED_CATEGORIES)
        self.labels = list(self.categories)
        structures = DEFAULT_SYNTHETIC_STRUCTURES
        self.series = [s.value for s in structures] + list(self.APPS)
        # Exp 1 fixes one window setting so the parallelism effect is
        # isolated (exp1's own parameter space).
        space = ParameterSpace(
            window_durations_ms=(500,),
            sliding_ratios=(0.5,),
            window_lengths=(100,),
        )
        dilation = self.PROFILE["dilation"]
        generator = WorkloadGenerator(space, seed=derive(self.seed, "gen"))
        pools = [[] for _ in structures]
        for _ in range(self.STRATA * self.POOL_PER_STRATUM):
            for pool, structure in zip(pools, structures):
                query = generator.generate_one(
                    self.cluster,
                    structure,
                    strategy=ParameterBasedEnumeration(1, space),
                    event_rate=self.EVENT_RATE / dilation,
                )
                scale_plan_costs(query.plan, dilation)
                pool.append(query)
        #: per structure, one plan per stratum, cheapest stratum first
        self.synthetic = []
        for pool in pools:
            ranked = sorted(
                range(len(pool)),
                key=lambda i: (work_rate(pool[i].plan), i),
            )
            size = self.POOL_PER_STRATUM
            self.synthetic.append([
                pool[ranked[k * size + size // 2]].plan
                for k in range(self.STRATA)
            ])
        self.apps = {
            (app, label): self.runner.prepare_app(
                app, parallelism, self.EVENT_RATE
            ).plan
            for app in self.APPS
            for label, parallelism in self.categories.items()
        }
        StreamEngine(
            self.cell_plan(0)[2],
            self.cluster,
            config=SimulationConfig(
                max_tuples_per_source=self.PROFILE["max_tuples_per_source"],
                max_sim_time=self.PROFILE["max_sim_time"],
            ),
        )

    def cell_plan(self, index: int):
        """(series, category label, plan) of cell ``index``."""
        block, position = divmod(index, len(self.BLOCK_ORDER))
        series = self.BLOCK_ORDER[position]
        slot = self.series.index(series)
        label = self.labels[(slot + block) % len(self.labels)]
        if slot < len(self.synthetic):
            order = self.STRATUM_ORDER
            plan = self.synthetic[slot][order[(block + slot) % len(order)]]
            plan.set_uniform_parallelism(self.categories[label])
        else:
            plan = self.apps[(series, label)]
        return series, label, plan

    def prepare(self) -> None:
        """Nothing runs outside the timed phase on this workload."""

    def expected_source_events(self, plan) -> tuple[int, int]:
        """The range of source tuples one repeat of ``plan`` may emit.

        The engine splits ``max_tuples_per_source`` evenly over a
        source's subtasks (at least one each); a subtask stops at its
        budget or at ``max_sim_time``, whichever comes first. Where the
        Poisson arrivals of a subtask reach its budget before the time
        limit even 6 standard deviations below their mean, the count
        is exact; otherwise it may fall short, down to that 6-sigma
        floor.
        """
        budget = self.PROFILE["max_tuples_per_source"]
        horizon = self.PROFILE["max_sim_time"]
        low = high = 0
        for op in plan.operators.values():
            if op.kind.name != "SOURCE":
                continue
            p = op.parallelism
            share = max(int(budget / p), 1)
            arrivals = op.metadata["event_rate"] / p * horizon
            floor = int(arrivals - 6.0 * math.sqrt(arrivals))
            high += p * share
            low += p * min(share, max(floor, 0))
        return low, high

    def expected_rejection(self, plan, exc) -> bool:
        """Whether ``exc`` is the RES401 refusal ``plan`` must get.

        The engine's pre-flight refuses a plan with an operator wider
        than the cluster's task slots (4XL, parallelism 128, on 80
        slots). That refusal, and no other error, is expected for such
        a plan; a plan that fits must run.
        """
        from repro.analysis.diagnostics import PreflightError

        slots = self.cluster.total_slots
        too_wide = any(
            op.parallelism > slots for op in plan.operators.values()
        )
        return (
            too_wide
            and isinstance(exc, PreflightError)
            and {d.code for d in exc.report.errors()} == {"RES401"}
        )

    def run(self, deadline: float, tracer) -> dict:
        from repro.core.parallel import ParallelRunner

        runner = self.runner
        workers = self.workers
        # Cells trace into their own tracer (a forked worker's copy) and
        # ship a snapshot back, merged into ``tracer`` below.
        cell_tracer = type(tracer)() if tracer is not None else None

        def cell(index):
            series, label, plan = self.cell_plan(index)

            def execute():
                start = time.perf_counter()
                aggregate = runner.measure(plan)
                wall = time.perf_counter() - start
                runs = runner.last_runs
                return wall, {
                    "source_events": sum(r.source_events for r in runs),
                    "p50_s": aggregate["mean_median_latency_s"],
                    "signature": (
                        tuple(run_signature(r) for r in runs),
                        tuple(sorted(aggregate.items())),
                    ),
                    "runs": runs,
                }

            low, high = self.expected_source_events(plan)

            def check(outcome):
                for repeat, run in enumerate(outcome["runs"]):
                    stats = run.latency.to_dict().values()
                    if not all(math.isfinite(v) for v in stats):
                        return f"repeat {repeat}: non-finite latency"
                    if run.results < 1:
                        return f"repeat {repeat}: no results"
                    if not low <= run.source_events <= high:
                        implied = low if low == high else f"{low}..{high}"
                        return (
                            f"repeat {repeat}: {run.source_events} source "
                            f"tuples, config implies {implied}"
                        )
                return None

            return run_cell(
                index, series, label, execute, check, cell_tracer,
                snapshot=True,
                rejects=lambda exc: self.expected_rejection(plan, exc),
            )

        pool = ParallelRunner(workers=workers, chunk_size=1)
        per_grid = len(self.BLOCK_ORDER) * len(self.labels)
        cells = []
        start = time.perf_counter()
        while True:
            first = len(cells)
            cells += pool.map(cell, range(first, first + per_grid))
            pace = (time.perf_counter() - start) * per_grid / len(cells)
            if time.monotonic() + pace > deadline:
                break
        loop_wall = time.perf_counter() - start
        if tracer is not None:
            for record in cells:
                snap = record.pop("trace", None)
                if snap is not None:
                    tracer.merge(snap)
        return {"cells": cells, "loop_wall": loop_wall, "workers": workers}


# ------------------------------------------------------ engine workloads


class SumLedger:
    """Per-key sums of the filtered values the generator emitted.

    The benchmark's generator feeds it as it draws, so a cell's check
    needs no second pass over the inputs. ``sinks`` collects the sink
    logic instances the engine builds, whose kept values are the
    program's output.
    """

    def __init__(self, keys: int) -> None:
        self.keys = keys
        self.clear()

    def clear(self) -> None:
        self.sums = [0.0] * self.keys
        self.sinks: list = []

    def track_sink(self, logic):
        self.sinks.append(logic)
        return logic

    def sink_values(self) -> list:
        return [values for sink in self.sinks for values in sink.results]

    def check(self) -> str | None:
        """Compare per-key sink totals with the generated sums."""
        totals = [0.0] * self.keys
        for key, value in self.sink_values():
            totals[key] += value
        for key, (got, want) in enumerate(zip(totals, self.sums)):
            if not math.isclose(got, want, rel_tol=SUM_RTOL, abs_tol=1e-9):
                return f"key {key}: sink sum {got!r} != generated {want!r}"
        return None


class EngineScalar:
    """A hotpath-shaped plan on the in-process scalar engine.

    4 source subtasks -> filter (v > 0.5) -> 64-key tumbling SUM ->
    sink, all at parallelism 4 on 4 x m510. The generator is trivial,
    so kernel dispatch, routing and queueing do most of the work.
    """

    name = "engine-scalar"
    KEYS = 64
    PARALLELISM = 4
    EVENT_RATE = 4000.0
    THRESHOLD = 0.5
    WINDOW_S = 0.05
    TUPLES = 20_000

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def knobs(self) -> dict:
        return {
            "workers": 1,
            "cluster": f"{self.PARALLELISM} x m510",
            "parallelism": self.PARALLELISM,
            "keys": self.KEYS,
            "event_rate": self.EVENT_RATE,
            "tuples_per_cell": self.TUPLES,
        }

    def build_plan(self):
        from repro.sps import builders
        from repro.sps.logical import LogicalPlan
        from repro.sps.predicates import FilterFunction, Predicate
        from repro.sps.tuples import StreamTuple
        from repro.sps.types import DataType, Field, Schema
        from repro.sps.windows import AggregateFunction, TumblingTimeWindows

        keys = self.KEYS
        threshold = self.THRESHOLD
        ledger = self.ledger = SumLedger(keys)

        def generate(rng, now):
            draws = rng.random(2)
            key = int(draws[0] * keys)
            value = float(draws[1])
            if value > threshold:
                ledger.sums[key] += value
            return StreamTuple(
                values=(key, value), event_time=now, size_bytes=24.0
            )

        def generate_columns(rng, nows):
            # Row i holds tuple i's two draws, the same stream as
            # ``generate``, so batch and scalar runs see equal inputs.
            draws = rng.random((len(nows), 2))
            column_keys = (draws[:, 0] * keys).astype(np.int64)
            values = np.ascontiguousarray(draws[:, 1])
            mask = values > threshold
            sums = np.bincount(
                column_keys[mask], weights=values[mask], minlength=keys
            )
            for key in np.flatnonzero(sums):
                ledger.sums[key] += float(sums[key])
            return (column_keys, values), 24.0

        schema = Schema(
            [Field("k", DataType.INT), Field("v", DataType.DOUBLE)]
        )
        p = self.PARALLELISM
        sink = builders.sink("sink")
        make_sink = sink.logic_factory
        plan = LogicalPlan("perfbench-hotpath")
        plan.add_operator(
            builders.source(
                "src", generate, schema, event_rate=self.EVENT_RATE,
                parallelism=p, vector_generator=generate_columns,
            )
        )
        plan.add_operator(
            builders.filter_op(
                "flt",
                Predicate(
                    1, FilterFunction.GT, threshold, selectivity_hint=0.5
                ),
                parallelism=p,
            )
        )
        plan.add_operator(
            builders.window_agg(
                "agg",
                TumblingTimeWindows(self.WINDOW_S),
                AggregateFunction.SUM,
                value_field=1,
                key_field=0,
                parallelism=p,
            )
        )
        plan.add_operator(
            dataclasses.replace(
                sink, logic_factory=lambda: ledger.track_sink(make_sink())
            )
        )
        plan.connect("src", "flt")
        plan.connect("flt", "agg")
        plan.connect("agg", "sink")
        return plan

    def sim_config(self, **knobs):
        from repro.sps.engine import SimulationConfig

        return SimulationConfig(
            max_tuples_per_source=self.TUPLES,
            max_sim_time=2.0 * self.TUPLES / self.EVENT_RATE + 10.0,
            keep_sink_values=True,
            **knobs,
        )

    def setup(self) -> None:
        from repro.cluster.cluster import homogeneous_cluster
        from repro.common.rng import RngFactory
        from repro.sps.engine import StreamEngine

        self.cluster = homogeneous_cluster("m510", self.PARALLELISM)
        self.plan = self.build_plan()
        StreamEngine(
            self.plan,
            self.cluster,
            config=self.sim_config(),
            rng_factory=RngFactory(self.cell_seed(0)),
        )

    def prepare(self) -> None:
        """Nothing runs outside the timed phase on this workload."""

    def cell_seed(self, index: int) -> int:
        return derive(self.seed, "cell", index)

    def engine_cell(self, cluster, seed, **knobs):
        """Build and run one engine; the wall covers both."""
        from repro.common.rng import RngFactory
        from repro.sps.engine import StreamEngine

        self.ledger.clear()
        start = time.perf_counter()
        engine = StreamEngine(
            self.plan,
            cluster,
            config=self.sim_config(**knobs),
            rng_factory=RngFactory(seed),
        )
        metrics = engine.run()
        wall = time.perf_counter() - start
        values = self.ledger.sink_values()
        return wall, {
            "source_events": metrics.source_events,
            "p50_s": metrics.latency.p50,
            "signature": (run_signature(metrics), tuple(values)),
            "problem": self.ledger.check(),
        }

    def check_output(self, outcome) -> str | None:
        """Per-key sums match the generator and the budget was spent."""
        if outcome["problem"] is not None:
            return outcome["problem"]
        if outcome["source_events"] != self.TUPLES:
            return (
                f"{outcome['source_events']} source tuples, "
                f"config implies {self.TUPLES}"
            )
        return None

    def run(self, deadline: float, tracer) -> dict:
        cells = []
        start = time.perf_counter()
        index = 0
        while not cells or time.monotonic() < deadline:
            seed = self.cell_seed(index)
            cells.append(
                run_cell(
                    index,
                    "scalar",
                    f"seed {seed}",
                    lambda seed=seed: self.engine_cell(self.cluster, seed),
                    self.check_output,
                    tracer,
                )
            )
            index += 1
        loop_wall = time.perf_counter() - start
        return {"cells": cells, "loop_wall": loop_wall, "workers": 1}


class EngineModes(EngineScalar):
    """The same plan and seed under the three fast/robust modes.

    Cells cycle through aligned checkpointing (``ckpt``), columnar
    batches (``batch``) and forked shards (``shard2``, on the cluster
    whose 2 ms network latency is the lookahead). Each is compared with
    a scalar reference of the same plan, cluster and seed, run before
    the timed phase; the sharded cell's reference is the in-process
    ``shards=1`` run, which it must equal bit for bit.
    """

    name = "engine-modes"
    TUPLES = 6_000
    CHECKPOINT_S = 0.05
    BATCH_SIZE = 256
    SHARDS = 2
    SHARD_LATENCY_S = 2e-3
    KINDS = ("ckpt", "batch", "shard2")

    def knobs(self) -> dict:
        return {
            **super().knobs(),
            "checkpoint_interval_s": self.CHECKPOINT_S,
            "batch_size": self.BATCH_SIZE,
            "shards": self.SHARDS,
            "shard_network_latency_s": self.SHARD_LATENCY_S,
        }

    def setup(self) -> None:
        from repro.cluster.cluster import homogeneous_cluster
        from repro.cluster.network import NetworkSpec

        super().setup()
        self.shard_cluster = homogeneous_cluster(
            "m510",
            self.PARALLELISM,
            network_spec=NetworkSpec(base_latency_s=self.SHARD_LATENCY_S),
        )

    def cell_seed(self, index: int) -> int:
        return derive(self.seed, "modes")

    def prepare(self) -> None:
        """Run the scalar and ``shards=1`` references."""
        seed = self.cell_seed(0)
        _, self.scalar_ref = self.engine_cell(self.cluster, seed)
        self.shard_ref_wall, self.shard_ref = self.engine_cell(
            self.shard_cluster, seed, shards=1
        )
        references = (
            ("scalar", self.scalar_ref), ("shards=1", self.shard_ref)
        )
        for name, ref in references:
            problem = self.check_output(ref)
            if problem is not None:
                raise RuntimeError(f"{name} reference is wrong: {problem}")

    def execute(self, kind: str):
        seed = self.cell_seed(0)
        if kind == "ckpt":
            return self.engine_cell(
                self.cluster, seed, checkpoint_interval=self.CHECKPOINT_S
            )
        if kind == "batch":
            return self.engine_cell(
                self.cluster, seed, batch_size=self.BATCH_SIZE
            )
        return self.engine_cell(self.shard_cluster, seed, shards=self.SHARDS)

    def check(self, kind: str, outcome) -> str | None:
        if kind == "shard2":
            ref = self.shard_ref
            if outcome["signature"] != ref["signature"]:
                return "forked shards=2 differs from in-process shards=1"
        else:
            ref = self.scalar_ref
            problem = self.check_output(outcome)
            if problem is not None:
                return problem
        gap = abs(outcome["p50_s"] - ref["p50_s"])
        outcome["fidelity"] = gap / ref["p50_s"]
        return None

    def run(self, deadline: float, tracer) -> dict:
        cells = []
        start = time.perf_counter()
        index = 0
        while len(cells) < len(self.KINDS) or time.monotonic() < deadline:
            kind = self.KINDS[index % len(self.KINDS)]
            cells.append(
                run_cell(
                    index,
                    kind,
                    kind,
                    lambda kind=kind: self.execute(kind),
                    lambda outcome, kind=kind: self.check(kind, outcome),
                    tracer,
                )
            )
            index += 1
        loop_wall = time.perf_counter() - start
        return {"cells": cells, "loop_wall": loop_wall, "workers": 1}

WORKLOADS = {
    PaperSweep.name: PaperSweep,
    EngineScalar.name: EngineScalar,
    EngineModes.name: EngineModes,
}
