"""The benchmark workloads, built from four slices of the paper's campaigns.

Every slice drives the repository only through its public experiment
API: it builds its spec list with the public spec builders (set-up), runs
the campaign through an in-process ``Executor(workers=1)`` backed by a
fresh ``ResultCache`` (every spec simulates), replays the same specs
against the now-full cache, and renders its figures and reports.
:func:`combine` pairs two slices into one workload; :func:`run_rep` times
one repetition of a workload and checks its outputs.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from repro import Executor, ObsConfig, ResultCache, RunResult, RunSpec
from repro import SyntheticWorkload
from repro.harness import report
from repro.harness.experiments import fig09, fig10, fig11, splash2_runs
from repro.harness.experiments.configs import FIG9_LABELS, standard_configs
from repro.harness.sweeps import fault_sweep_specs, sweep_specs, throughput_vs_fault_rate
from repro.obs import analysis

from perfbench import gate

#: Run lengths, fixed here so every commit measures the same work.
SPLASH2_BENCHMARKS = ("ocean", "fft")
SPLASH2_CYCLES = 100
FIG9_PATTERNS = ("transpose", "shuffle")
FIG9_RATES = (0.05, 0.4)
FIG9_CYCLES = 100
FAULT_LABELS = ("Optical4", "Electrical3")
FAULT_RATES = (0.0, 0.01, 0.02, 0.05)
FAULT_CYCLES = 300
OBSERVED_LABELS = ("Optical4", "Electrical3")
OBSERVED_CYCLES = 300
OBSERVED_INTERVAL = 50

#: The paper's headline claims, printed beside the reproduced values.
PAPER_SPEEDUP = 2.0
PAPER_POWER_SAVING = 0.80


@dataclass(frozen=True)
class Workload:
    """``specs(seed)`` is set-up; ``campaign`` simulates; ``render`` reports.

    ``check(outputs, results)`` returns workload-specific invariant
    violations as ``(run index or None, message)``; ``None`` fails the
    whole repetition.
    """

    name: str
    specs: Callable[[int], list[RunSpec]]
    campaign: Callable[[int, Executor, Path], Any]
    render: Callable[[Any, Executor, Path], dict[str, Any]]
    check: Callable[[dict[str, Any], list[RunResult]], list[tuple[int | None, str]]]


# -- splash2_campaign --------------------------------------------------------


def _splash2_specs(seed: int) -> list[RunSpec]:
    return splash2_runs.matrix_specs(
        SPLASH2_BENCHMARKS, duration_cycles=SPLASH2_CYCLES, seed=seed
    )


def _splash2_campaign(seed: int, executor: Executor, workdir: Path) -> Any:
    # Drop the per-process trace memo, so every repetition generates its
    # traces like a fresh process does.
    splash2_runs.clear_cache()
    return splash2_runs.compute_matrix(
        SPLASH2_BENCHMARKS,
        duration_cycles=SPLASH2_CYCLES,
        seed=seed,
        executor=executor,
    )


def _splash2_render(matrix: Any, executor: Executor, workdir: Path) -> dict[str, Any]:
    speedup = fig10.from_matrix(matrix)
    power = fig11.from_matrix(matrix)
    fig10.render(speedup)
    fig11.render(power)
    report.write_report(
        workdir / "splash2.json",
        {
            "fig10": report.figure_to_dict(speedup),
            "fig11": report.figure_to_dict(power),
            "manifest": report.manifest_to_dict(executor.events),
        },
    )
    return {
        "fig10": speedup,
        "optical4_speedup": speedup.geomean("Optical4"),
        "optical4_power_saving": power.mean_savings("Optical4"),
    }


def _splash2_check(outputs: dict[str, Any], results: list[RunResult]) -> list[tuple[int | None, str]]:
    problems: list[tuple[int | None, str]] = [
        (index, f"{result.label}/{result.workload} did not drain")
        for index, result in enumerate(results)
        if not result.drained
    ]
    for benchmark, row in outputs["fig10"].speedups.items():
        for label, value in row.items():
            if not (math.isfinite(value) and value > 0):
                problems.append((None, f"Fig 10 speedup {benchmark}/{label} = {value}"))
    return problems


# -- fig9_sweep ----------------------------------------------------------------


def _fig9_specs(seed: int) -> list[RunSpec]:
    configs = standard_configs()
    return [
        spec
        for pattern in FIG9_PATTERNS
        for label in FIG9_LABELS
        for spec in sweep_specs(configs[label], pattern, FIG9_RATES, FIG9_CYCLES, seed)
    ]


def _fig9_campaign(seed: int, executor: Executor, workdir: Path) -> Any:
    return fig09.compute(
        patterns=FIG9_PATTERNS,
        labels=FIG9_LABELS,
        rates=FIG9_RATES,
        cycles=FIG9_CYCLES,
        seed=seed,
        executor=executor,
    )


def _fig9_render(data: Any, executor: Executor, workdir: Path) -> dict[str, Any]:
    fig09.render(data)
    report.write_report(
        workdir / "fig09.json",
        {
            "figure": report.figure_to_dict(data),
            "manifest": report.manifest_to_dict(executor.events),
        },
    )
    return {}


# -- fault_sweep ---------------------------------------------------------------


def _fault_specs(seed: int) -> list[RunSpec]:
    configs = standard_configs()
    return [
        spec
        for label in FAULT_LABELS
        for spec in fault_sweep_specs(
            configs[label], "uniform", 0.1, FAULT_RATES, FAULT_CYCLES, seed
        )
    ]


def _fault_campaign(seed: int, executor: Executor, workdir: Path) -> Any:
    configs = standard_configs()
    return {
        label: throughput_vs_fault_rate(
            configs[label],
            "uniform",
            0.1,
            FAULT_RATES,
            cycles=FAULT_CYCLES,
            seed=seed,
            executor=executor,
        )
        for label in FAULT_LABELS
    }


def _fault_render(curves: Any, executor: Executor, workdir: Path) -> dict[str, Any]:
    report.write_report(
        workdir / "faults.json",
        {
            "curves": {
                label: [point.to_dict() for point in points]
                for label, points in curves.items()
            },
            "manifest": report.manifest_to_dict(executor.events),
        },
    )
    return {}


def _fault_check(outputs: dict[str, Any], results: list[RunResult]) -> list[tuple[int | None, str]]:
    rates = [rate for _ in FAULT_LABELS for rate in FAULT_RATES]
    return [
        (index, f"{result.label} injected {result.stats.faults_injected} faults at rate 0")
        for index, (rate, result) in enumerate(zip(rates, results))
        if rate == 0.0 and result.stats.faults_injected != 0
    ]


# -- observed_hotspot ----------------------------------------------------------


def _observed_base(seed: int) -> list[RunSpec]:
    configs = standard_configs()
    return [
        RunSpec(configs[label], SyntheticWorkload("hotspot", 0.1), OBSERVED_CYCLES, seed=seed)
        for label in OBSERVED_LABELS
    ]


def _observed_config(workdir: Path, label: str) -> ObsConfig:
    return ObsConfig(
        trace_path=str(workdir / f"{label}.jsonl"),
        metrics_interval=OBSERVED_INTERVAL,
        spatial=True,
        health=True,
    )


def _observed_specs(seed: int) -> list[RunSpec]:
    # The observed twin differs only in ``obs``, which is not part of a
    # spec's identity; a placeholder directory keeps set-up file-free.
    return [
        twin
        for spec in _observed_base(seed)
        for twin in (spec, replace(spec, obs=_observed_config(Path("."), spec.label)))
    ]


def _observed_campaign(seed: int, executor: Executor, workdir: Path) -> Any:
    traces = []
    for spec in _observed_base(seed):
        executor.map([spec])
        observed = replace(spec, obs=_observed_config(workdir, spec.label))
        executor.map([observed])
        traces.append(observed.obs.trace_path)
    return traces


def _observed_render(traces: Any, executor: Executor, workdir: Path) -> dict[str, Any]:
    blame = [analysis.analyze_trace_file(path) for path in traces]
    for item in blame:
        analysis.render_markdown(item)
    report.write_report(
        workdir / "observed.json",
        {
            "blame": [item.to_dict() for item in blame],
            "manifest": report.manifest_to_dict(executor.events),
        },
    )
    return {}


def _observed_check(outputs: dict[str, Any], results: list[RunResult]) -> list[tuple[int | None, str]]:
    problems: list[tuple[int | None, str]] = []
    for index in range(1, len(results), 2):
        plain, observed = results[index - 1], results[index]
        if observed.health is None or observed.health.status == "critical":
            status = observed.health.status if observed.health else "missing"
            problems.append((index, f"{observed.label} health verdict {status}"))
        if observed.stats != plain.stats:
            problems.append((index, f"{observed.label}: observability changed the stats"))
    return problems


def _no_check(outputs: dict[str, Any], results: list[RunResult]) -> list[tuple[int | None, str]]:
    return []


SPLASH2_CAMPAIGN = Workload(
    "splash2_campaign", _splash2_specs, _splash2_campaign, _splash2_render, _splash2_check
)
FIG9_SWEEP = Workload("fig9_sweep", _fig9_specs, _fig9_campaign, _fig9_render, _no_check)
FAULT_SWEEP = Workload("fault_sweep", _fault_specs, _fault_campaign, _fault_render, _fault_check)
OBSERVED_HOTSPOT = Workload(
    "observed_hotspot", _observed_specs, _observed_campaign, _observed_render, _observed_check
)


def combine(name: str, first: Workload, second: Workload) -> Workload:
    """``first`` then ``second`` as one workload sharing one executor and cache."""

    def check(outputs: dict[str, Any], results: list[RunResult]) -> list[tuple[int | None, str]]:
        offset = len(first.specs(0))  # the spec count does not depend on the seed
        later = second.check(outputs, results[offset:])
        return first.check(outputs, results[:offset]) + [
            (None if run is None else run + offset, message) for run, message in later
        ]

    def render(state: Any, executor: Executor, workdir: Path) -> dict[str, Any]:
        return first.render(state[0], executor, workdir) | second.render(state[1], executor, workdir)

    return Workload(
        name,
        lambda seed: first.specs(seed) + second.specs(seed),
        lambda seed, executor, workdir: (
            first.campaign(seed, executor, workdir),
            second.campaign(seed, executor, workdir),
        ),
        render,
        check,
    )


#: The benchmark's workloads.  Each pairs two paper-campaign slices so a run
#: is long enough to average out host-speed drift (see record.json): one
#: replays traces with broadcasts and observability, the other sweeps
#: synthetic traffic with and without faults, so each ROADMAP optimisation
#: has a workload that exercises it and one that bypasses it.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        combine("splash2_observed", SPLASH2_CAMPAIGN, OBSERVED_HOTSPOT),
        combine("fig9_faults", FIG9_SWEEP, FAULT_SWEEP),
    )
}


# -- one timed repetition ------------------------------------------------------


@dataclass
class Rep:
    """What one repetition of a workload did, measured and checked."""

    wall_s: float
    attempted: int
    results: list[RunResult]
    events: list[Any]
    violations: list[tuple[int | None, str]]
    replay_hits: int = 0
    replay_total: int = 0
    outputs: dict[str, Any] = field(default_factory=dict)

    @property
    def sim_s(self) -> float:
        return math.fsum(result.wall_time_s for result in self.results)

    @property
    def flits(self) -> int:
        return sum(result.stats.flits_processed for result in self.results)

    @property
    def digest(self) -> str:
        return gate.workload_digest(
            [report.stats_to_dict(result.stats) for result in self.results]
        )


def run_rep(
    workload: Workload,
    seed: int,
    digests: list[str],
    workdir: Path,
    span: Callable[[str], Any] | None = None,
) -> Rep:
    """Run, replay and render ``workload`` once in ``workdir``; time it.

    ``digests`` are the set-up spec list's digests; the campaign must run
    exactly those specs.  ``span`` (the traced run's ``Tracer.span``)
    brackets the timed region (``bench.rep``), the campaign and the cache
    replay.
    """
    span = span or (lambda name: contextlib.nullcontext())
    cache = ResultCache(workdir / "cache")
    executor = Executor(workers=1, cache=cache)
    violations: list[tuple[int | None, str]] = []
    replay_hits = replay_total = 0
    outputs: dict[str, Any] = {}
    started = time.perf_counter()
    try:
        with span("bench.rep"):
            with span("harness.map"):
                state = workload.campaign(seed, executor, workdir)
            results = [event.result for event in executor.events]
            cached = [
                event for event in executor.events
                if event.spec.obs is None or not event.spec.obs.enabled
            ]
            replay_specs = [event.spec for event in cached]
            replayer = Executor(workers=1, cache=cache)
            with span("harness.cache_replay"):
                replayed = replayer.map(replay_specs)
            replay_hits, replay_total = replayer.cache_hits, len(replay_specs)
            outputs = workload.render(state, executor, workdir)
    except Exception as error:  # a failing campaign is counted, not fatal
        wall = time.perf_counter() - started
        traceback.print_exc(file=sys.stderr)
        results = [event.result for event in executor.events]
        # A run that raised is the first one without a result; a raise after
        # the last run (replay or rendering) fails the whole repetition.
        culprit = len(results) if len(results) < len(digests) else None
        return Rep(wall, len(digests), results, list(executor.events),
                   [(culprit, f"raised {type(error).__name__}: {error}")])
    wall = time.perf_counter() - started

    ran = [event.digest for event in executor.events]
    if ran != digests:
        violations.append((None, "campaign ran other specs than set-up built"))
    if replayed != [event.result for event in cached]:
        violations.append((None, "cache replay returned other results than the campaign"))
    for index, result in enumerate(results):
        stats = result.stats
        if stats.packets_delivered + stats.packets_lost > stats.packets_generated:
            violations.append((index, f"{result.label}: delivered + lost > generated"))
    violations.extend(workload.check(outputs, results))
    for path in sorted(workdir.glob("*.jsonl")):
        outputs["trace_bytes"] = outputs.get("trace_bytes", 0) + path.stat().st_size
        with path.open("rb") as handle:
            # Every line after the schema header is one packet event.
            outputs["trace_events"] = outputs.get("trace_events", 0) + sum(1 for _ in handle) - 1
    return Rep(
        wall,
        len(digests),
        results,
        list(executor.events),
        violations,
        replay_hits,
        replay_total,
        outputs,
    )
