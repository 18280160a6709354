"""interepi benchmark: one workload per process.

    python3 perfbench/run.py --workload sweep-full --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all   # every listed workload, one line each

Run from the root of a source checkout; the package is imported from its
``src`` directory. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off; with ``--trace 1`` they are the per-layer
metrics, taken from spans recorded around each call into the package, and
the spans are written to ``perfbench/traces/``. Failures of the package are
counted, printed to standard error as JSON records, and end the workload.
``--workload all`` runs each workload BENCHMARK.json lists in its own
process and prints one result line per workload, with a ``workload`` key.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import Tracer, median, tail

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUPS = 5  # set-ups per run; setup_s is their median

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "alpha0_err_closed": "rate",
    "alpha0_err_empirical": "rate",
}

# Spans recorded in the traced run, with the unit of their per-call median.
SPANS = {
    "generate.build_interdependent": "s",
    "generate.powerlaw": "s",
    "graph.build_graph": "s",
    "graph.structural_gcc": "s",
    "graph.giant_component": "s",
    "graph.color_degrees": "s",
    "io.write_graph": "s",
    "io.load_graph": "s",
    "io.write_csv": "s",
    "io.parse_config": "s",
    "threshold.multi_threshold": "s",
    "threshold.multi_threshold_empirical": "s",
    "threshold.spectral_radius": "us",
    "threshold.jacobian_closed_form": "us",
    "threshold.jacobian_from_cross_moments": "us",
    "sir.sweep_heatmap": "s",
    "sir.dynamics": "s",
    "sir.run_sir": "ms",
    "cli.generate": "s",
    "cli.main": "s",
}
# Spans with many calls per run, which also report a tail percentile.
TAILED = ("threshold.spectral_radius", "threshold.jacobian_closed_form",
          "threshold.jacobian_from_cross_moments", "sir.run_sir")
LAYERS = ("generate", "graph", "io", "threshold", "sir", "cli")
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

COUNTERS = {
    "generate.edges": "count",
    "io.graph_bytes": "bytes",
    "threshold.frontier_points": "count",
    "sir.realizations": "count",
    "sir.realizations_per_s": "1/s",
    "sir.steps": "count",
    "sir.us_per_step": "us",
    "sir.self.s": "s",
    "sir.major_frac": "ratio",
    "cli.exit_code": "code",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, unit in SPANS.items():
        units[f"{name}.{unit}"] = unit
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        if name in TAILED:
            units[f"{name}.{unit}.tail"] = unit
            units[f"{name}.{unit}.tail_pct"] = "pct"
    for layer in LAYERS:
        units[f"{layer}.failures"] = "count"
    units.update(COUNTERS)
    return units


def import_package():
    """Import interepi from this checkout's src, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import interepi
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import interepi from {SRC}: {exc}")
    where = Path(interepi.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"perfbench: interepi imported from {where}, not from {SRC}")


def measure(run, wl, st, seconds: float, traced: bool):
    """Repeat the phase until the next repetition would pass ``seconds``.

    In the traced run each repetition runs twice with the same inputs, first
    untraced and then traced. Returns untraced times, traced times and the
    untraced repetitions' outputs.
    """
    from workloads import MAX_REPS

    times, traced_times, outs = [], [], []
    start = time.perf_counter()
    k = 0
    while k < MAX_REPS:
        for tracing in (False, True) if traced else (False,):
            run.tracer.enabled = tracing
            t0 = time.perf_counter()
            with run.span("phase"):
                out = run.op("phase", wl.rep, run, st, k)
            dt = time.perf_counter() - t0
            if tracing:
                traced_times.append(dt)
            else:
                times.append(dt)
                outs.append(out)
        k += 1
        elapsed = time.perf_counter() - start
        if k >= wl.min_reps and elapsed * (k + 1) / k > seconds:
            break
    run.tracer.enabled = traced
    return times, traced_times, outs


def layer_metrics(run, wl, st, times, traced_times, outs, replay) -> dict:
    tracer = run.tracer
    units = per_layer_units()
    values = {}
    for name, unit in SPANS.items():
        spans = tracer.named(name)
        durations = [s.duration * _SCALE[unit] for s in spans]
        values[f"{name}.{unit}"] = median(durations)
        values[f"{name}.calls"] = len(spans)
        values[f"{name}.busy_s"] = sum(s.duration for s in spans)
        if name in TAILED:
            pct, value = tail(durations)
            values[f"{name}.{unit}.tail"] = value
            values[f"{name}.{unit}.tail_pct"] = pct
    for layer in LAYERS:
        values[f"{layer}.failures"] = sum(
            1 for s in tracer.spans if s.error and s.name.startswith(layer + ".")
        )
    phases = tracer.named("phase")
    run_sir_total = sum(s.duration for s in tracer.named("sir.run_sir"))
    steps = replay.get("steps", 0)
    reps = len(times) + len(traced_times)
    realizations = wl.realizations_per_rep(st) * reps
    phase_total = sum(times) + sum(traced_times)
    values.update({
        "generate.edges": st.graph.num_edges,
        "io.graph_bytes": st.graph_bytes,
        "threshold.frontier_points": wl.frontier_points(outs),
        "sir.realizations": realizations,
        "sir.realizations_per_s": realizations / phase_total,
        "sir.steps": steps,
        "sir.us_per_step": 1e6 * run_sir_total / steps if steps else 0.0,
        # the replayed repetition is repetition 0, whose traced phase span is phases[0]
        "sir.self.s": phases[0].duration - run_sir_total if replay.get("replayed") else 0.0,
        "sir.major_frac": replay["majors"] / replay["replayed"] if replay.get("replayed") else 0.0,
        "cli.exit_code": max(run.exit_codes, default=0),
        "trace.overhead_s": median(traced_times) - median(times),
        "trace.coverage": sum(s.duration - tracer.self_time(s) for s in phases)
        / sum(s.duration for s in phases),
        "trace.spans": len(tracer.spans),
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_workload(run, wl, seconds: float, traced: bool) -> dict:
    """Set up, measure, probe (traced run only) and check one workload; return its metrics."""
    from interepi import graphs_equal
    from workloads import alpha0_errors

    setup_times, setups = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        with run.span("setup"):
            setups.append(run.op("setup", wl.setup, run))
        setup_times.append(time.perf_counter() - t0)
    st = setups[-1]
    run.check("setup-repeatable", lambda: [] if all(
        graphs_equal(s.graph, st.graph) and (s.built is None or graphs_equal(s.built, s.graph))
        for s in setups) else ["set-ups of one seed gave different graphs"])
    del setups[:-1]

    times, traced_times, outs = measure(run, wl, st, seconds, traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"perfbench: {run.workload} seed {run.seed}: set-ups "
          f"{' '.join(f'{t:.3f}' for t in setup_times)} s; repetitions "
          f"{' '.join(f'{t:.3f}' for t in times)} s", file=sys.stderr)
    if traced:
        with run.span("probe"):
            replay = run.op("probe", wl.probe, run, st)
    wl.check(run, st, outs)
    if traced:
        return layer_metrics(run, wl, st, times, traced_times, outs, replay)

    err_closed, err_empirical = run.op("alpha0", alpha0_errors, st.network, st.graph)
    values = {
        "wall_s": median(times),
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "alpha0_err_closed": err_closed,
        "alpha0_err_empirical": err_empirical,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_listed(names, args) -> int:
    """Run each named workload in its own process; print one result line per workload."""
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload BENCHMARK.json lists")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import LISTED, WORKLOADS, OpFailed, Run

    if args.workload == "all":
        return run_listed(LISTED, args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    traced = bool(args.trace)
    work_root = BENCH / "work"
    work_root.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        run = Run(args.workload, args.seed, Tracer(enabled=traced), Path(tmp))
        try:
            metrics = run_workload(run, wl, args.seconds, traced)
        except OpFailed:  # the workload stopped at a failed operation
            units = per_layer_units() if traced else END_TO_END
            metrics = {name: {"value": None, "unit": unit} for name, unit in units.items()}
        if traced:
            trace_dir = BENCH / "traces"
            trace_dir.mkdir(exist_ok=True)
            run.tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
