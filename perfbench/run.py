"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine-scalar --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. Their
cell times are host wall times scaled to the reference host's speed by
the host-speed probe (``perfbench/hostspeed.py``); the raw wall times
are printed and saved next to them.
``--trace 1`` runs every cell twice, untraced then with the layer
wrappers of ``perfbench/layers.py`` installed, checks that both runs
simulate identical statistics, and reports the per-layer split. Both
print a human-readable table, a ``manifest`` line, and as the last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The
full result (every metric, the cell records, the manifest) is written
to ``perfbench-out/``; a traced run also writes its coarse spans there.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench-out"

#: fresh-interpreter set-ups per run; ``setup_s`` is their median
SETUP_PROBES = 7
SETUP_PROBE_TIMEOUT_S = 60.0

#: end-to-end metrics that read exactly 0 on some workloads (no failed
#: cell; only the scalar engine), so a share-of-median bound means
#: nothing for them: printed and saved, not in BENCHMARK.json
UNBOUNDED = {
    "failed_frac": ("ratio", "lower"),
    "fidelity_err": ("ratio", "lower"),
}

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: the percentile ``cell_s.tail`` reports. It is fixed rather than the
#: highest one with 10 cells beyond it, which rises with the number of
#: cells a run reaches: on ``paper-sweep``, whose cells differ several-fold
#: in cost, that made the tail follow the host's speed. A 30-second run
#: has 44 to 144 cells, so 80 keeps 10 beyond it nearly always.
TAIL_PERCENTILE = 80


def _bootstrap() -> None:
    """Make ``repro`` and ``perfbench`` importable from the checkout."""
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def tail(values: list[float]) -> tuple[float, int]:
    """The :data:`TAIL_PERCENTILE` value, or a lower percentile if need be.

    Returns ``(value, percentile)`` by the nearest-rank rule. The
    percentile is :data:`TAIL_PERCENTILE` when at least 10 values lie
    beyond it, else the highest whole percentile that has 10 beyond;
    with 10 or fewer values none qualifies and the maximum is returned
    with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = min(TAIL_PERCENTILE, (100 * (n - 10)) // n)
    rank = max(-(-pct * n // 100), 1)  # ceil(pct * n / 100)
    return ordered[rank - 1], pct


def peak_rss_mb() -> float:
    """Max resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload: str, seed: int) -> tuple[list[float], float]:
    """Wall seconds from interpreter start to the first engine built.

    Each set-up is a fresh interpreter running this script with
    ``--setup-probe``; it prints ``ready`` once the workload's plans,
    clusters and first engine exist. Returns the set-ups' wall times
    and the mean of the host-speed probes run before each set-up and
    after the last.
    """
    from perfbench import hostspeed

    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    times = []
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(hostspeed.probe())
        start = time.perf_counter()
        with subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=ROOT
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                probe.wait(timeout=SETUP_PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                probe.kill()
                probe.wait()
                raise
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed (exit {probe.returncode})"
            )
        times.append(elapsed)
    probes.append(hostspeed.probe())
    return times, statistics.mean(probes)


def end_to_end(
    run: dict, setup_times: list[float], setup_probe_s: float
) -> dict:
    """The seven end-to-end readings of one run, plus their details.

    Cell times are scaled to the reference host's speed: each cell by
    the probes around it, and the loop's wall by the run's time-weighted
    host speed (summed raw cell walls over summed scaled ones). The
    ``raw.*`` entries are the same readings unscaled. The loop's wall
    counts only cell time: the share spent in host-speed probes and, in
    a traced run, in the traced reruns is taken out. ``setup_s`` is the
    set-ups' median wall scaled by the mean probe around them
    (``setup_probe_s``): one set-up is too noisy to pair with its own
    probes, but the set-ups follow the host's slower drift.
    """
    from perfbench import hostspeed

    cells = run["cells"]
    done = [c for c in cells if c["wall"] is not None]
    walls = [c["wall"] for c in done]
    scaled = [c["scaled_wall"] for c in done]
    other = sum(c["probe_total"] for c in cells) + sum(
        c["traced_wall"] or 0.0 for c in done
    )
    timed_wall = run["loop_wall"]
    if walls:
        timed_wall *= sum(walls) / (sum(walls) + other)
    slowdown = sum(walls) / sum(scaled) if walls else 1.0
    events = sum(c["source_events"] for c in done)
    failed = sum(c["status"] != "ok" for c in cells)
    fidelity = [c["fidelity"] for c in done if c["fidelity"] is not None]
    tail_value, tail_pct = tail(scaled) if walls else (0.0, 100)
    return {
        "setup_s": hostspeed.scale(
            statistics.median(setup_times), setup_probe_s
        ),
        "tuples_per_s": events * slowdown / timed_wall,
        "cell_s.p50": statistics.median(scaled) if walls else 0.0,
        "cell_s.tail": tail_value,
        "peak_rss_mb": peak_rss_mb(),
        "failed_frac": failed / len(cells),
        "fidelity_err": max(fidelity) if fidelity else 0.0,
        "raw.setup_s": statistics.median(setup_times),
        "raw.tuples_per_s": events / timed_wall,
        "raw.cell_s.p50": statistics.median(walls) if walls else 0.0,
        "raw.cell_s.tail": tail(walls)[0] if walls else 0.0,
        "host_slowdown": slowdown,
        "tail_percentile": tail_pct,
        "cells_attempted": len(cells),
        "cells_timed": len(walls),
        "cells_rejected": sum(c["status"] == "rejected" for c in cells),
    }


def unexpected_failures(cells: list[dict]) -> int:
    """Cells that raised, timed out or failed their check.

    Expected refusals (status ``rejected``) are not among them; they
    count only in ``failed_frac``.
    """
    return sum(c["status"] not in ("ok", "rejected") for c in cells)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_table(title: str, rows, values: dict) -> None:
    print(title)
    print(f"  {'metric':32s} {'value':>16s}  {'unit':10s} better")
    for name, unit, better in rows:
        print(f"  {name:32s} {values[name]:16.6g}  {unit:10s} {better}")


def setup_probe(args) -> int:
    _bootstrap()
    from perfbench.workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed).setup()
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    _bootstrap()
    import numpy

    from perfbench.layers import Tracer, layer_metrics
    from perfbench.workloads import WORKLOADS, available_cores

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    spec = load_spec()
    e2e_rows, layer_rows = (
        [(m["name"], m["unit"], m["better"]) for m in spec[group]]
        for group in ("end_to_end", "per_layer")
    )
    e2e_rows += [(name, *how) for name, how in UNBOUNDED.items()]
    workload = WORKLOADS[args.workload](args.seed)
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "revision": git_revision(),
        "host_cores": available_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "knobs": workload.knobs(),
    }

    setup_times, setup_probe_s = measure_setup(args.workload, args.seed)
    workload.setup()
    workload.prepare()
    tracer = Tracer() if args.trace else None
    deadline = time.monotonic() + args.seconds
    run = workload.run(deadline, tracer)

    cells = run["cells"]
    e2e = end_to_end(run, setup_times, setup_probe_s)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print_table("end-to-end (host wall time)", e2e_rows, e2e)
    print(f"  cell_s.tail is p{e2e['tail_percentile']} of "
          f"{e2e['cells_timed']} timed cells; "
          f"{e2e['cells_attempted']} attempted, "
          f"{e2e['cells_rejected']} rejected as expected")
    print(f"  times above are at the reference host's speed; host "
          f"slowdown against it {e2e['host_slowdown']:.3f}. Raw: setup_s "
          f"{e2e['raw.setup_s']:.6g}, tuples_per_s "
          f"{e2e['raw.tuples_per_s']:.6g}, cell_s.p50 "
          f"{e2e['raw.cell_s.p50']:.6g}, cell_s.tail "
          f"{e2e['raw.cell_s.tail']:.6g}")
    for cell in cells:
        if cell["status"] != "ok":
            print(f"  {cell['status']} cell {cell['index']} {cell['kind']} "
                  f"{cell['label']}: {cell['status']}: {cell['error']}")

    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer, run, workload)
        print_table(
            "per-layer (traced cells, host wall time)", layer_rows, layers
        )
    print("manifest " + json.dumps(manifest, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "manifest": manifest,
        "setup_s_each": setup_times,
        "setup_probe_s": setup_probe_s,
        "end_to_end": e2e,
        "per_layer": layers,
        "cells": cells,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if tracer is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as out:
            for span in tracer.spans:
                out.write(json.dumps(span) + "\n")

    rows, values = (layer_rows, layers) if args.trace else (e2e_rows, e2e)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in rows
        if name not in UNBOUNDED
    }
    correct = bool(cells) and not any(
        c["status"] == "check" for c in cells
    )
    print(json.dumps({
        "correct": correct,
        "attempted": len(cells),
        "failed": unexpected_failures(cells),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
