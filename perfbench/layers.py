"""Per-layer attribution: wrap each module's public entry points in spans.

:func:`instrument` patches the public functions and methods a campaign
calls into, from outside the package, for the duration of one traced
repetition; :func:`layer_metrics` turns the recorded spans and the runs'
``RunResult.stats`` into the per-layer metrics named in ``BENCHMARK.json``.
Layers are named after the modules: ``harness``, ``traffic``, ``fabric``,
``sim``, ``faults``, ``obs``, and one per backend (``core`` is the
reference Phastlane engine, ``electrical`` the VC-router baseline,
``vectorized`` the batched engine).
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterator

import repro.harness.exec as exec_module
import repro.harness.runner as runner
from repro.fabric import config_kind
from repro.faults.schedule import FaultSchedule
from repro.harness import report
from repro.harness.exec import ResultCache, RunSpec
from repro.harness.experiments import fig09, fig10, fig11
from repro.obs import analysis
from repro.obs.session import ObsSession
from repro.sim.engine import SimulationEngine
from repro.traffic.trace import SyntheticSource

from perfbench.spans import Tracer, self_times, subtree

#: Fabric backend kind -> layer name.
BACKEND_LAYERS = {"phastlane": "core", "electrical": "electrical", "vectorized": "vectorized"}

#: Every per-layer metric with its unit, in report order.
UNITS = {
    "harness.specs": "count",
    "harness.digest_s": "s",
    "harness.map_s": "s",
    "harness.run_s": "s",
    "harness.cache_store_s": "s",
    "harness.cache_replay_s": "s",
    "harness.cache_hit_ratio": "ratio",
    "harness.render_s": "s",
    "traffic.gen_s": "s",
    "traffic.packets": "count",
    "traffic.broadcasts": "count",
    "traffic.source_calls": "count",
    "fabric.build_s": "s",
    "fabric.builds": "count",
    "sim.inject_s": "s",
    "sim.drain_s": "s",
    "sim.cycles": "count",
    **{
        f"{layer}.{name}": unit
        for layer in BACKEND_LAYERS.values()
        for name, unit in (("run_s", "s"), ("flits", "count"), ("us_per_flit", "us"))
    },
    "core.drops": "count",
    "core.retransmissions": "count",
    "core.useful_ratio": "ratio",
    "faults.checks": "count",
    "faults.check_s": "s",
    "faults.hits": "count",
    "faults.injected": "count",
    "faults.lost": "count",
    "obs.overhead_s": "s",
    "obs.finish_s": "s",
    "obs.analyze_s": "s",
    "obs.trace_mb": "MiB",
    "obs.events": "count",
    "bench.self_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s",
}


def _run_span(tracer: Tracer, run: Callable[..., Any]) -> Callable[..., Any]:
    """``harness.exec.run`` as a ``harness.run`` span with its own run id."""

    def wrapper(spec: RunSpec, *args: Any, **kwargs: Any) -> Any:
        run_id = f"run{len(tracer.runs)}"
        kind = config_kind(spec.config)
        tracer.runs[run_id] = {
            "layer": BACKEND_LAYERS.get(kind, kind),
            "observed": spec.obs is not None and spec.obs.enabled,
            "key": f"{spec.label}/{spec.workload_name}",
        }
        with tracer.span("harness.run", run=run_id):
            return run(spec, *args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Patch the public entry points to record into ``tracer``; undo on exit."""
    spans = [
        (RunSpec, "digest", "harness.digest"),
        (ResultCache, "store", "harness.cache_store"),
        (runner, "make_network", "fabric.build"),
        (runner, "generate_splash2_trace", "traffic.gen"),
        (SimulationEngine, "run", "sim.inject"),
        (SimulationEngine, "run_until", "sim.drain"),
        (ObsSession, "finish", "obs.finish"),
        (fig09, "render", "harness.render"),
        (fig10, "from_matrix", "harness.render"),
        (fig10, "render", "harness.render"),
        (fig11, "from_matrix", "harness.render"),
        (fig11, "render", "harness.render"),
        (report, "write_report", "harness.render"),
        (analysis, "analyze_trace_file", "obs.analyze"),
        (analysis, "render_markdown", "obs.analyze"),
    ]
    patches = [(owner, attr, tracer.wrap(getattr(owner, attr), name))
               for owner, attr, name in spans]
    patches += [
        (exec_module, "run", _run_span(tracer, exec_module.run)),
        (FaultSchedule, "crossing_fault", tracer.wrap_folded(
            FaultSchedule.crossing_fault, "faults.check", hit=lambda kind: kind is not None)),
        (FaultSchedule, "nic_stalled", tracer.wrap_folded(
            FaultSchedule.nic_stalled, "faults.check", hit=lambda stalled: stalled)),
        (SyntheticSource, "injections", tracer.wrap_counted(
            SyntheticSource.injections, "traffic.source_calls")),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: Tracer,
    root: int,
    setup: int,
    rep: Any,
    untraced_wall_s: float,
) -> dict[str, float]:
    """Per-layer metrics from one traced repetition.

    ``root`` is the span covering the repetition's timed region (the
    traced counterpart of ``wall_s``) and ``setup`` the span covering
    set-up.  ``rep`` is the :class:`~perfbench.workloads.Rep` it produced.
    Times are self times; ``<backend>.run_s`` is the inclusive host time
    of that backend's runs, a cut by run across the layers.
    """
    spans = tracer.spans
    own = self_times(spans, subtree(spans, root) + subtree(spans, setup))
    own.pop("bench.setup", None)  # building the specs, apart from digesting them
    metrics: dict[str, float] = {name: 0.0 for name in UNITS}
    for name, seconds in own.items():
        metrics[name.replace("bench.rep", "bench.self") + "_s"] = seconds
    metrics["harness.specs"] = tracer.counts["harness.specs"]
    metrics["harness.cache_hit_ratio"] = _ratio(rep.replay_hits, rep.replay_total)
    metrics["traffic.source_calls"] = tracer.counts["traffic.source_calls"]
    metrics["fabric.builds"] = sum(1 for s in spans if s.name == "fabric.build")
    metrics["faults.checks"] = tracer.counts["faults.check"]
    metrics["faults.hits"] = tracer.counts["faults.check.hits"]

    run_spans = [s for s in spans if s.name == "harness.run"]
    delivered = 0
    for event in rep.events:
        stats = event.result.stats
        layer = BACKEND_LAYERS.get(config_kind(event.spec.config))
        metrics["traffic.packets"] += stats.packets_generated
        metrics["traffic.broadcasts"] += stats.multicast_packets
        metrics["sim.cycles"] += event.result.cycles
        metrics["faults.injected"] += stats.faults_injected
        metrics["faults.lost"] += stats.packets_lost
        if layer is not None:
            metrics[f"{layer}.flits"] += stats.flits_processed
        if layer == "core":
            metrics["core.drops"] += stats.packets_dropped
            metrics["core.retransmissions"] += stats.retransmissions
            delivered += stats.packets_delivered
    metrics["core.useful_ratio"] = _ratio(delivered, delivered + metrics["core.retransmissions"])
    for layer in BACKEND_LAYERS.values():
        metrics[f"{layer}.run_s"] = sum(
            s.duration for s in run_spans if tracer.runs[s.run]["layer"] == layer
        )
        metrics[f"{layer}.us_per_flit"] = 1e6 * _ratio(
            metrics[f"{layer}.run_s"], metrics[f"{layer}.flits"]
        )

    observed = {tracer.runs[s.run]["key"] for s in run_spans if tracer.runs[s.run]["observed"]}
    metrics["obs.overhead_s"] = sum(
        s.duration if tracer.runs[s.run]["observed"] else -s.duration
        for s in run_spans
        if tracer.runs[s.run]["key"] in observed
    )
    metrics["obs.trace_mb"] = rep.outputs.get("trace_bytes", 0) / 2**20
    metrics["obs.events"] = rep.outputs.get("trace_events", 0)
    metrics["bench.traced_wall_s"] = spans[root].duration
    metrics["bench.trace_overhead_s"] = spans[root].duration - untraced_wall_s
    unknown = sorted(set(metrics) - set(UNITS))
    if unknown:
        raise ValueError(f"layer metrics missing from UNITS: {unknown}")
    return metrics
