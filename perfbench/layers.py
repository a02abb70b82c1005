"""Per-layer host wall time, measured from outside the program.

A :class:`Tracer` replaces public methods of the program's classes with
timing wrappers (:meth:`Tracer.install`) and puts the originals back
(:meth:`Tracer.restore`). Wrappers are installed on the classes before
any engine is built, because the engine binds some methods (partitioner
``select``) into its route tables at build time.

Every wrapped call is one span. Per-tuple spans (source generation,
operator logic, partitioner selection) are folded into per-layer
``[calls, inclusive ns, self ns]`` totals as they close, because a
20-second run makes millions of them. Coarse spans (cells, engine
builds, kernel runs, the batch executor, the shard controller) are also
kept whole as ``(name, start_ns, end_ns, parent, cell)`` records and
written out when the benchmark ends. A span's self time is its duration
minus the time its child spans cover.

Tracing never changes simulated results: the wrappers draw no random
numbers and call through with the original arguments. The benchmark
checks this on every traced cell.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter

#: operator kinds reported under ``operators.<kind>.*``
OPERATOR_KINDS = ("filter", "map", "window_agg", "window_join", "udo", "sink")

#: operator kinds whose inputs arrive key-partitioned (skew is measured)
KEYED_KINDS = ("window_agg", "window_join")


def _operator_kind(cls) -> str:
    from repro.sps.operators.aggregate import WindowAggregateLogic
    from repro.sps.operators.event_aggregate import (
        EventTimeWindowAggregateLogic,
    )
    from repro.sps.operators.filter_op import FilterLogic
    from repro.sps.operators.join import WindowJoinLogic
    from repro.sps.operators.map_op import FlatMapLogic, MapLogic
    from repro.sps.operators.sink import SinkLogic

    for base, kind in (
        (FilterLogic, "filter"),
        ((MapLogic, FlatMapLogic), "map"),
        ((WindowAggregateLogic, EventTimeWindowAggregateLogic), "window_agg"),
        (WindowJoinLogic, "window_join"),
        (SinkLogic, "sink"),
    ):
        if issubclass(cls, base):
            return kind
    return "udo"


def _all_subclasses(cls) -> list:
    seen: list = []
    stack = [cls]
    while stack:
        current = stack.pop()
        for sub in current.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                stack.append(sub)
    return sorted(seen, key=lambda c: (c.__module__, c.__qualname__))


class Tracer:
    """Collects spans and counts from wrapped program methods."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        #: layer -> [calls, inclusive ns, self ns]
        self.stats: dict[str, list[int]] = {}
        self.counters: Counter = Counter()
        #: (cell, op_id, parallelism, subtask) -> tuples processed
        self.subtask_in: Counter = Counter()
        #: coarse spans: (name, start_ns, end_ns, parent name, cell)
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.cell: int | None = None
        self.in_batch = False

    # ------------------------------------------------------------ state

    def reset(self, cell: int | None = None) -> None:
        """Drop everything recorded so far; label new spans ``cell``."""
        for store in (self.stats, self.counters, self.subtask_in):
            store.clear()
        self.spans.clear()
        self.cell = cell

    def snapshot(self) -> dict:
        """Picklable copy of what was recorded (for forked cells)."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "subtask_in": dict(self.subtask_in),
            "spans": list(self.spans),
        }

    def merge(self, snap: dict) -> None:
        """Add a :meth:`snapshot` taken in another process."""
        for name, (calls, incl, own) in snap["stats"].items():
            entry = self._entry(name)
            entry[0] += calls
            entry[1] += incl
            entry[2] += own
        self.counters.update(snap["counters"])
        self.subtask_in.update(snap["subtask_in"])
        self.spans.extend(snap["spans"])

    def _entry(self, name: str) -> list[int]:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0, 0]
        return entry

    # ------------------------------------------------------------ spans

    def span(self, name: str):
        """Context manager recording one kept span (used for cells)."""
        return _Span(self, name)

    def _open(self, name: str) -> list:
        frame = [name, time.perf_counter_ns(), 0]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, log: bool) -> int:
        end = time.perf_counter_ns()
        stack = self.stack
        stack.pop()
        duration = end - frame[1]
        entry = self._entry(frame[0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[2]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        if log:
            self.spans.append(
                (
                    frame[0],
                    frame[1],
                    end,
                    parent[0] if parent is not None else None,
                    self.cell,
                )
            )
        return duration

    # ---------------------------------------------------------- wrappers

    def _timed(self, name: str, fn, log: bool = False, after=None):
        """Wrap ``fn`` as a span of layer ``name``.

        A call nested directly in a span of the same layer (a subclass
        method calling ``super()``) is part of the outer span.
        ``after(self_arg, result)`` runs once the span has closed.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, log)
            if after is not None:
                after(args[0] if args else None, result)
            return result

        return wrapper

    def _operator(self, method: str, fn):
        """Wrap an operator logic's ``process``/``on_time``/``flush``."""
        tracer = self
        counters = self.counters
        subtask_in = self.subtask_in
        kinds: dict = {}
        is_process = method == "process"

        @functools.wraps(fn)
        def wrapper(logic, *args, **kwargs):
            cls = type(logic)
            kind = kinds.get(cls)
            if kind is None:
                kind = kinds[cls] = _operator_kind(cls)
            name = "operators." + kind
            stack = tracer.stack
            if stack and stack[-1][0] == name:
                return fn(logic, *args, **kwargs)
            frame = tracer._open(name)
            try:
                outputs = fn(logic, *args, **kwargs)
            finally:
                tracer._close(frame, False)
            if outputs:
                counters[name + ".out"] += len(outputs)
            if is_process:
                counters[name + ".in"] += 1
                if kind in KEYED_KINDS:
                    ctx = logic.ctx
                    subtask_in[
                        (
                            tracer.cell,
                            ctx.op_id,
                            ctx.parallelism,
                            ctx.subtask_index,
                        )
                    ] += 1
            if tracer.in_batch:
                counters["batch.fallback_calls"] += 1
            return outputs

        return wrapper

    def _vectorized(self, fn, size_of):
        """Count tuples a batch-mode vectorized entry point handles."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters["batch.vectorized_tuples"] += size_of(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _generate(self, fn):
        """Source generation: a span plus batch-mode fallback counting."""
        tracer = self
        timed = self._timed("workload.gen", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_batch:
                tracer.counters["batch.fallback_calls"] += 1
            return timed(*args, **kwargs)

        return wrapper

    def _kernel_run(self, fn):
        """``Kernel.run``: a span, plus events and tuples it handled."""
        tracer = self
        counters = self.counters
        stats = self.stats

        @functools.wraps(fn)
        def wrapper(kernel, *args, **kwargs):
            events = kernel.events_processed
            generated = stats.get("workload.gen", (0,))[0]
            frame = tracer._open("kernel.run")
            try:
                return fn(kernel, *args, **kwargs)
            finally:
                tracer._close(frame, True)
                counters["kernel.events"] += kernel.events_processed - events
                counters["kernel.tuples"] += (
                    stats.get("workload.gen", (0,))[0] - generated
                )

        return wrapper

    def _batch_run(self, fn):
        """``ColumnarExecutor.run``: a span that marks fallback calls."""
        tracer = self
        timed = self._timed("batch.run", fn, log=True)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.in_batch = True
            try:
                return timed(*args, **kwargs)
            finally:
                tracer.in_batch = False

        return wrapper

    # ------------------------------------------------------ install/restore

    def targets(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, wrapper)`` for every wrapped method."""
        import repro.apps  # noqa: F401  (registers every app's logic)
        import repro.core.runner as runner_mod
        import repro.sps.metrics as metrics_mod
        from repro.ft.store import StateStore
        from repro.kernel.core import Kernel
        from repro.kernel.sharded import ShardController
        from repro.sps.batch import ColumnarExecutor
        from repro.sps.engine import StreamEngine
        from repro.sps.operators.aggregate import WindowAggregateLogic
        from repro.sps.operators.base import OperatorLogic
        from repro.sps.operators.event_aggregate import (
            EventTimeWindowAggregateLogic,
        )
        from repro.sps.operators.sink import SinkLogic
        from repro.sps.operators.source import SourceLogic
        from repro.sps.partitioning import Partitioner

        counters = self.counters

        def on_checkpoint(store, record) -> None:
            counters["ft.checkpoints"] += 1
            counters["ft.state_bytes"] += record.state_bytes

        def on_epochs(controller, final_time) -> None:
            counters["shard.epochs"] += controller.epochs

        found = [
            (StreamEngine, "__init__", self._timed(
                "engine.build", StreamEngine.__init__, log=True
            )),
            (Kernel, "run", self._kernel_run(Kernel.run)),
            (ColumnarExecutor, "run", self._batch_run(ColumnarExecutor.run)),
            (ShardController, "run", self._timed(
                "shard.controller", ShardController.run, log=True,
                after=on_epochs,
            )),
            (StateStore, "complete", self._timed(
                "ft.complete", StateStore.complete, after=on_checkpoint
            )),
            (SourceLogic, "generate", self._generate(SourceLogic.generate)),
            (SourceLogic, "generate_columns", self._vectorized(
                SourceLogic.generate_columns, lambda _s, nows: len(nows)
            )),
            (SinkLogic, "absorb_batch", self._vectorized(
                SinkLogic.absorb_batch, lambda _s, batch, *_: len(batch)
            )),
            (WindowAggregateLogic, "process_time_batch", self._vectorized(
                WindowAggregateLogic.process_time_batch,
                lambda _s, keys, *_: len(keys),
            )),
            (
                EventTimeWindowAggregateLogic,
                "process_event_batch",
                self._vectorized(
                    EventTimeWindowAggregateLogic.process_event_batch,
                    lambda _s, keys, *_: len(keys),
                ),
            ),
        ]
        for cls in _all_subclasses(Partitioner):
            if "select" in cls.__dict__:
                found.append((cls, "select", self._timed(
                    "partitioning.select", cls.__dict__["select"]
                )))
        for cls in [OperatorLogic, *_all_subclasses(OperatorLogic)]:
            if cls is SourceLogic:
                continue
            own = cls.__dict__
            for method in ("process", "on_time", "flush"):
                if method in own:
                    found.append(
                        (cls, method, self._operator(method, own[method]))
                    )
            if "snapshot_state" in own:
                found.append((cls, "snapshot_state", self._timed(
                    "ft.snapshot", own["snapshot_state"]
                )))
            if "process_batch" in own:
                found.append((cls, "process_batch", self._vectorized(
                    own["process_batch"], lambda _s, batch, *_: len(batch)
                )))
        stats = metrics_mod.LatencyStats.__dict__["from_samples"]
        found.append((
            metrics_mod.LatencyStats,
            "from_samples",
            classmethod(self._timed("metrics.collect", stats.__func__)),
        ))
        aggregate = self._timed(
            "metrics.collect", metrics_mod.aggregate_runs
        )
        found.append((metrics_mod, "aggregate_runs", aggregate))
        found.append((runner_mod, "aggregate_runs", aggregate))
        return found

    def install(self) -> None:
        """Replace every target method with its timing wrapper."""
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        for owner, attr, wrapper in self.targets():
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original method back, in reverse install order."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class _Span:
    __slots__ = ("tracer", "name", "frame", "seconds")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.seconds = 0.0

    def __enter__(self) -> _Span:
        self.frame = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = self.tracer._close(self.frame, True) / 1e9


# ------------------------------------------------------------ metrics


def _seconds(tracer: Tracer, name: str, index: int) -> float:
    return tracer.stats.get(name, (0, 0, 0))[index] / 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, run: dict, workload) -> dict[str, float]:
    """Per-layer readings of one traced run, sorted by name.

    ``run["cells"]`` are the run's cell records; a traced cell carries
    its ``traced_wall`` next to the untraced ``wall``. Times are totals
    over the traced cells, in seconds; shares divide by the traced
    cells' summed wall time.
    """
    cells = run["cells"]
    counters = tracer.counters
    traced = [c for c in cells if c["traced_wall"] is not None]
    traced_wall = sum(c["traced_wall"] for c in traced)
    ckpt_wall = sum(c["traced_wall"] for c in traced if c["kind"] == "ckpt")
    shard_cells = [c for c in traced if c["kind"] == "shard2"]

    gen_calls, _, gen_ns = tracer.stats.get("workload.gen", (0, 0, 0))
    kernel_s = _seconds(tracer, "kernel.run", 1)
    transport_s = _seconds(tracer, "kernel.run", 2)
    out: dict[str, float] = {
        "workload.gen_calls": float(gen_calls),
        "workload.gen_s": gen_ns / 1e9,
        "workload.gen_share": _ratio(gen_ns / 1e9, traced_wall),
        "kernel.events": float(counters["kernel.events"]),
        "kernel.events_per_tuple": _ratio(
            counters["kernel.events"], counters["kernel.tuples"]
        ),
        "kernel.events_per_s": _ratio(counters["kernel.events"], kernel_s),
        "engine.transport_s": transport_s,
        "engine.transport_share": _ratio(transport_s, traced_wall),
        "engine.build_s": _seconds(tracer, "engine.build", 1),
        "partitioning.select_calls": float(
            tracer.stats.get("partitioning.select", (0,))[0]
        ),
        "partitioning.select_s": _seconds(tracer, "partitioning.select", 2),
        "partitioning.skew": _skew(tracer),
    }
    for kind in OPERATOR_KINDS:
        name = "operators." + kind
        calls = tracer.stats.get(name, (0,))[0]
        out[name + ".calls"] = float(calls)
        out[name + ".s"] = _seconds(tracer, name, 2)
        out[name + ".out_per_in"] = _ratio(
            counters[name + ".out"], counters[name + ".in"]
        )
    snapshot_s = _seconds(tracer, "ft.snapshot", 2)
    vectorized = counters["batch.vectorized_tuples"]
    fallback = counters["batch.fallback_calls"]
    epochs = counters["shard.epochs"]
    out.update(
        {
            "metrics.collect_s": _seconds(tracer, "metrics.collect", 1),
            "ft.snapshots": float(
                tracer.stats.get("ft.snapshot", (0,))[0]
            ),
            "ft.snapshot_s": snapshot_s,
            "ft.snapshot_share": _ratio(snapshot_s, ckpt_wall),
            "ft.checkpoints": float(counters["ft.checkpoints"]),
            "ft.state_bytes": _ratio(
                counters["ft.state_bytes"], counters["ft.checkpoints"]
            ),
            "batch.run_s": _seconds(tracer, "batch.run", 1),
            "batch.vectorized_frac": _ratio(vectorized, vectorized + fallback),
            "batch.fallback_calls": float(fallback),
            "shard.epochs": float(epochs),
            "shard.tuples_per_epoch": _ratio(
                sum(c["source_events"] for c in shard_cells), epochs
            ),
            "shard.controller_s": _seconds(tracer, "shard.controller", 1),
        }
    )
    modes = (("ckpt", "ft"), ("batch", "batch"), ("shard2", "shard"))
    for kind, layer in modes:
        errors = [
            c["fidelity"]
            for c in cells
            if c["kind"] == kind and c["fidelity"] is not None
        ]
        out[layer + ".fidelity_err"] = max(errors) if errors else 0.0
    shard_walls = [c["wall"] for c in shard_cells]
    reference = getattr(workload, "shard_ref_wall", 0.0)
    out["shard.speedup_vs_k1"] = (
        reference / statistics.median(shard_walls) if shard_walls else 0.0
    )
    untraced = sum(c["wall"] for c in traced)
    probes = sum(c["probe_total"] for c in cells)
    workers = run["workers"]
    out["parallel.workers"] = float(workers)
    out["parallel.efficiency"] = (untraced + traced_wall + probes) / (
        workers * run["loop_wall"]
    )
    out["trace.cells"] = float(len(traced))
    out["trace.overhead"] = (
        traced_wall / untraced - 1.0 if untraced else 0.0
    )
    return dict(sorted(out.items()))


def _skew(tracer: Tracer) -> float:
    """Median over (cell, keyed operator) of max/mean subtask input."""
    per_op: dict[tuple, dict[int, int]] = {}
    for (cell, op_id, parallelism, index), n in tracer.subtask_in.items():
        if parallelism > 1:
            per_op.setdefault((cell, op_id, parallelism), {})[index] = n
    ratios = []
    for (_, _, parallelism), loads in per_op.items():
        mean = sum(loads.values()) / parallelism
        ratios.append(max(loads.values()) / mean)
    return statistics.median(ratios) if ratios else 0.0
