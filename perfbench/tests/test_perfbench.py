"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import hostspeed
from perfbench import run as bench
from perfbench.layers import Tracer, layer_metrics
from perfbench.workloads import (
    EngineModes,
    EngineScalar,
    PaperSweep,
    run_cell,
)

ROOT = Path(__file__).resolve().parents[2]
TUPLES = 2000


class SmallScalar(EngineScalar):
    TUPLES = TUPLES


class SmallModes(EngineModes):
    TUPLES = TUPLES


def small_scalar(seed=3):
    workload = SmallScalar(seed)
    workload.setup()
    return workload


def test_same_seed_gives_identical_statistics():
    first, second = small_scalar(), small_scalar()
    _, a = first.engine_cell(first.cluster, first.cell_seed(0))
    _, b = second.engine_cell(second.cluster, second.cell_seed(0))
    _, c = second.engine_cell(second.cluster, second.cell_seed(1))
    assert a["signature"] == b["signature"]
    assert a["signature"] != c["signature"]
    assert a["problem"] is None


def test_same_seed_gives_identical_paper_sweep_cell():
    signatures = []
    for _ in range(2):
        sweep = PaperSweep(seed=5)
        sweep.setup()
        index = sweep.BLOCK_ORDER.index("SD")
        _, _, plan = sweep.cell_plan(index)
        sweep.runner.measure(plan)
        signatures.append([repr(r.to_dict()) for r in sweep.runner.last_runs])
    assert signatures[0] == signatures[1]


def test_raising_cell_counts_as_failed_and_the_loop_goes_on():
    workload = small_scalar()
    original = workload.engine_cell
    calls = []

    def flaky(cluster, seed, **knobs):
        calls.append(seed)
        if len(calls) == 2:
            raise RuntimeError("forced failure")
        return original(cluster, seed, **knobs)

    workload.engine_cell = flaky
    run = workload.run(time.monotonic() + 1.0, None)
    statuses = [cell["status"] for cell in run["cells"]]
    assert statuses[1] == "raised"
    assert "forced failure" in run["cells"][1]["error"]
    assert len(statuses) > 2 and statuses[2] == "ok"
    e2e = bench.end_to_end(run, [1.0], hostspeed.REFERENCE_PROBE_S)
    assert e2e["failed_frac"] == pytest.approx(1 / len(statuses))


def test_wrong_output_fails_the_check():
    record = run_cell(
        0, "scalar", "x",
        lambda: (0.1, {"source_events": 1, "p50_s": 0.1, "signature": 1}),
        lambda outcome: "sink sum differs",
        None,
    )
    assert record["status"] == "check"
    assert record["error"] == "sink sum differs"


def test_res401_refusal_of_a_4xl_cell_is_rejected_not_failed():
    sweep = PaperSweep(seed=5)
    sweep.setup()
    wide, fits = sweep.apps[("WC", "4XL")], sweep.apps[("WC", "XS")]
    with pytest.raises(Exception) as refused:
        sweep.runner.measure(wide)
    assert sweep.expected_rejection(wide, refused.value)
    assert not sweep.expected_rejection(fits, refused.value)
    assert not sweep.expected_rejection(wide, RuntimeError("RES401"))

    record = run_cell(
        0, "WC", "4XL",
        lambda: (0.0, sweep.runner.measure(wide)),
        lambda outcome: None,
        None,
        rejects=lambda exc: sweep.expected_rejection(wide, exc),
    )
    assert record["status"] == "rejected"
    assert "RES401" in record["error"]
    run = {"cells": [record], "loop_wall": 1.0, "workers": 1}
    e2e = bench.end_to_end(run, [1.0], hostspeed.REFERENCE_PROBE_S)
    assert e2e["failed_frac"] == 1.0
    assert e2e["cells_rejected"] == 1
    assert bench.unexpected_failures(run["cells"]) == 0


def test_scaled_cell_time_divides_out_host_speed():
    record = run_cell(
        0, "scalar", "x",
        lambda: (0.5, {"source_events": 1, "p50_s": 0.1, "signature": 1}),
        lambda outcome: None,
        None,
    )
    assert record["probe_s"] > 0.0
    assert record["probe_total"] == pytest.approx(2 * record["probe_s"])
    assert record["scaled_wall"] == pytest.approx(
        0.5 * hostspeed.REFERENCE_PROBE_S / record["probe_s"]
    )


def test_traced_run_restores_every_wrapped_method():
    targets = Tracer().targets()
    before = [
        (owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets
    ]
    workload = small_scalar()
    tracer = Tracer()
    run = workload.run(time.monotonic() + 0.5, tracer)
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, (owner, attr)
    cells = run["cells"]
    assert all(cell["status"] == "ok" for cell in cells)
    assert all(cell["traced_wall"] is not None for cell in cells)
    assert tracer.counters["kernel.events"] > 0
    assert tracer.stats["workload.gen"][0] == TUPLES * len(cells)


def test_install_wraps_and_restore_unwraps():
    tracer = Tracer()
    from repro.kernel.core import Kernel

    original = Kernel.__dict__["run"]
    tracer.install()
    try:
        assert Kernel.__dict__["run"] is not original
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    assert Kernel.__dict__["run"] is original


def test_modes_checks_and_fidelity():
    workload = SmallModes(seed=4)
    workload.setup()
    workload.prepare()
    run = workload.run(time.monotonic(), None)
    cells = {cell["kind"]: cell for cell in run["cells"]}
    assert set(cells) == {"ckpt", "batch", "shard2"}
    assert all(cell["status"] == "ok" for cell in cells.values())
    assert cells["shard2"]["fidelity"] == 0.0
    assert cells["batch"]["fidelity"] > 0.0


def test_metric_names_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(bench.METRIC_NAME.fullmatch(name) for name in names)
    assert all(bench.METRIC_NAME.fullmatch(name) for name in bench.UNBOUNDED)

    workload = small_scalar()
    tracer = Tracer()
    run = workload.run(time.monotonic(), tracer)
    layers = layer_metrics(tracer, run, workload)
    assert all(bench.METRIC_NAME.fullmatch(name) for name in layers)
    assert {m["name"] for m in spec["per_layer"]} <= set(layers)
    e2e = bench.end_to_end(run, [1.0], hostspeed.REFERENCE_PROBE_S)
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)


def test_tail_is_fixed_percentile_with_at_least_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    assert bench.tail(values) == (80.0, 80)
    values = [float(v) for v in range(1, 41)]
    value, pct = bench.tail(values)
    assert pct == 75
    assert value == 30.0
    assert sum(v > value for v in values) == 10
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_run_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine-scalar",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
