"""Shared helpers for simulation tests."""

from __future__ import annotations

import os

from repro.sim.engine import SimulationEngine

#: The hypothesis profile registered in ``conftest.py`` ("tier1" or "fuzz").
HYPOTHESIS_PROFILE = os.environ.get("REPRO_HYPOTHESIS_PROFILE", "tier1")
#: How many times more examples each property test draws under "fuzz".
FUZZ_SCALE = 5


def examples(count: int) -> int:
    """A property test's example budget under the active profile."""
    return count * FUZZ_SCALE if HYPOTHESIS_PROFILE == "fuzz" else count


def drain(network, inject_cycles: int, max_extra: int = 20_000) -> SimulationEngine:
    """Run a network for ``inject_cycles`` then until idle; assert drainage."""
    engine = SimulationEngine()
    engine.register(network)
    engine.run(inject_cycles)
    assert engine.run_until(
        lambda: network.idle(engine.cycle), max_extra
    ), "network failed to drain"
    return engine
