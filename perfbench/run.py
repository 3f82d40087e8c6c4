"""Repository benchmark: time paper-campaign workloads end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload splash2_observed --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the workload repeats (each time with a fresh, empty
result cache) until ``--seconds`` is spent and the end-to-end metrics are
reported as medians over the repetitions; set-up time is the median of
several fresh-process set-ups.  ``--trace 1`` then runs one more,
instrumented repetition and reports the per-layer metrics instead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for result caches, traces and reports; removed on exit.
SCRATCH = ROOT / ".perfbench_tmp"
#: Where the traced run writes its spans.
SPANS_DIR = ROOT / ".perfbench_spans"

SETUP_PROBES = 5
MAX_REPS = 50

END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_flits_per_s": "flits/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Why a per-layer metric can read zero, printed beside a zero reading.
ZERO_REASONS = {
    "vectorized.": "no paper config routes to the vectorized backend until ROADMAP item 2",
    "traffic.gen_s": "only SPLASH2 runs generate traces",
    "traffic.broadcasts": "only SPLASH2 coherence traces broadcast",
    "sim.drain_s": "synthetic runs stop at the window end; only trace runs drain",
    "faults.lost": "retries absorbed every fault (or no faults were injected)",
    "faults.": "no fault model outside the fault sweep",
    "obs.": "observability is off outside the observed hotspot runs",
    "core.drops": "no optical contention drops in this workload",
    "core.retransmissions": "no optical contention drops in this workload",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def use_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``, or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def setup_probe(workload: str, seed: int) -> int:
    """Child side of a set-up measurement: import, build and digest specs."""
    from perfbench.workloads import WORKLOADS

    for spec in WORKLOADS[workload].specs(seed):
        spec.digest()
    print("ready", flush=True)
    return 0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its spec list being built."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            assert child.stdout is not None
            line = child.stdout.readline()
            samples.append(time.perf_counter() - started)
            child.stdout.read()
            child.wait(timeout=120)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return samples


def spread(values: list[float], what: str) -> str:
    if len(values) == 1:
        return f"1 {what}"
    return f"median of {len(values)} {what} (min {min(values):.4g}, max {max(values):.4g})"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    use_sources()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    from repro.harness.exec import CALIBRATION_STAMP

    from perfbench import gate, layers
    from perfbench.spans import Tracer, self_times, subtree
    from perfbench.workloads import PAPER_POWER_SAVING, PAPER_SPEEDUP, WORKLOADS, run_rep

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    record = gate.load_record()

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        setup = [] if args.trace else measure_setup(workload.name, args.seed)
        digests = [spec.digest() for spec in workload.specs(args.seed)]

        reps = []
        loop_started = time.perf_counter()
        while len(reps) < MAX_REPS:
            gc.collect()
            rep_dir = Path(tempfile.mkdtemp(dir=workdir))
            reps.append(run_rep(workload, args.seed, digests, rep_dir))
            shutil.rmtree(rep_dir)
            elapsed = time.perf_counter() - loop_started
            if elapsed + statistics.median(r.wall_s for r in reps) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls = [rep.wall_s for rep in reps]
        rates = [rep.flits / rep.sim_s if rep.sim_s else 0.0 for rep in reps]
        wall_s = statistics.median(walls)

        traced = None
        if args.trace:
            gc.collect()
            tracer = Tracer()
            rep_dir = Path(tempfile.mkdtemp(dir=workdir))
            with layers.instrument(tracer):
                with tracer.span("bench.setup") as setup_span:
                    specs = workload.specs(args.seed)
                    tracer.counts["harness.specs"] += len(specs)
                    for spec in specs:
                        spec.digest()
                traced = run_rep(workload, args.seed, digests, rep_dir, span=tracer.span)
            shutil.rmtree(rep_dir)
            reps.append(traced)
            root = next(i for i, s in enumerate(tracer.spans) if s.name == "bench.rep")
            per_layer = layers.layer_metrics(tracer, root, setup_span, traced, wall_s)
            SPANS_DIR.mkdir(exist_ok=True)
            spans_path = SPANS_DIR / f"{workload.name}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(tracer.to_dict()) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with_contents = SCRATCH.exists() and any(SCRATCH.iterdir())
        if SCRATCH.exists() and not with_contents:
            SCRATCH.rmdir()

    # -- correctness gate ------------------------------------------------------
    recorded = gate.recorded_digest(record, CALIBRATION_STAMP, args.seed, workload.name)
    digest = next((rep.digest for rep in reps if len(rep.results) == rep.attempted), None)
    status = gate.digest_status(record, CALIBRATION_STAMP, args.seed, workload.name, digest)
    # Unrecorded: every repetition must at least reproduce the first one.
    expected = recorded or digest
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(
        gate.failed_runs(rep.attempted, len(rep.results), rep.violations,
                         digest_ok=rep.digest == expected)
        for rep in reps
    )
    for rep in reps:
        for run, message in rep.violations:
            where = "repetition" if run is None else f"run {run}"
            print(f"FAILED ({where}): {message}")

    # -- report ------------------------------------------------------------------
    print(f"perfbench {workload.name}: seed {args.seed}, calibration "
          f"{CALIBRATION_STAMP}, {len(walls)} timed repetitions, "
          f"{attempted} runs attempted, {failed} failed")
    print(f"  output digest {digest} ({status})")
    first = reps[0].outputs
    if "optical4_speedup" in first:
        print(f"  Fig 10 geomean Optical4 speedup vs Electrical3: "
              f"{first['optical4_speedup']:.2f}x (paper: {PAPER_SPEEDUP:g}x); "
              f"Fig 11 mean Optical4 power saving: "
              f"{100 * first['optical4_power_saving']:.0f}% "
              f"(paper: {100 * PAPER_POWER_SAVING:.0f}%). Unvalidated: the "
              f"SPLASH2 traces are synthetic profiles.")
    if traced is None:
        values = {
            "wall_s": (wall_s, spread(walls, "repetitions")),
            "sim_flits_per_s": (statistics.median(rates), spread(rates, "repetitions")),
            "setup_s": (statistics.median(setup), spread(setup, "fresh processes")),
            "peak_rss_mb": (peak_rss_mb, "process peak"),
        }
        for name, (value, note) in values.items():
            print(f"  {name:<16} {value:>14.6g} {END_TO_END_UNITS[name]:<8} {note}")
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, (value, _) in values.items()}
    else:
        accounted = sum(self_times(tracer.spans, subtree(tracer.spans, root)).values())
        print(f"  traced wall {per_layer['bench.traced_wall_s']:.4f} s; its layers' "
              f"self times sum to {accounted:.4f} s; "
              f"tracing overhead {per_layer['bench.trace_overhead_s']:.4f} s; "
              f"spans in {spans_path.relative_to(ROOT)}")
        for name, value in per_layer.items():
            reason = "" if value else next(
                (why for prefix, why in ZERO_REASONS.items() if name.startswith(prefix)), "")
            print(f"  {name:<26} {value:>14.6g} {layers.UNITS[name]:<6} {reason}")
        metrics = {name: {"value": value, "unit": layers.UNITS[name]}
                   for name, value in per_layer.items()}
    ratio = failed / attempted
    print(f"  {'failed_ratio':<16} {ratio:>14.6g} {'ratio':<8} "
          f"{failed} failed / {attempted} attempted runs")
    bad = [name for name, item in metrics.items() if not math.isfinite(item["value"])]
    if bad:
        raise SystemExit(f"perfbench: non-finite metrics {bad}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
