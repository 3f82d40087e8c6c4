"""The baseline electrical virtual-channel router (paper Table 2).

Microarchitecture (Booksim-style input-queued VC router):

- five ports (N, E, S, W, Local), ten single-entry VCs per input port;
- dimension-order route computation on arrival (route lookahead is implicit:
  the output port is known before allocation begins);
- iSLIP VC allocation for output virtual channels, iSLIP switch allocation
  with input speedup 4 / output speedup 1;
- credit-based flow control with wait-for-tail semantics (single-flit
  packets: the buffer frees, and the credit returns, when the flit departs);
- local ejection bypasses the crossbar: a flit destined for this node is
  accepted by the processor one cycle after entering the router;
- VCTM multicast: a flit's destination set is partitioned by output port on
  arrival; each partition departs as an independent replica.

A two- or three-cycle per-hop delay (``router_delay_cycles``) covers the
speculative pipeline plus link traversal: a flit that wins switch
allocation in cycle T enters the downstream router's input buffer in cycle
``T + router_delay_cycles``.

Departure order is part of the calibration: requests are collected in the
iteration order of the ``_active`` set of ``(port, vc)`` tuples, each VC's
groups in ascending output port, and that order decides which outputs
grant first and so the order flits leave, arrive and are delivered.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING

from repro.electrical.config import ElectricalConfig
from repro.electrical.flit import Flit
from repro.electrical.islip import SwitchAllocator, VcAllocator
from repro.electrical.vctm import route_table
from repro.topology import GridTopology, require_grid, topology_of
from repro.util.geometry import Direction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.electrical.network import ElectricalNetwork

#: Port index order: the four mesh directions then the local port.
NUM_PORTS = 5
LOCAL_PORT = int(Direction.LOCAL)


@dataclass(slots=True)
class _Group:
    """One output-port partition of a buffered flit's destinations."""

    destinations: set[int]
    #: Its switch request ``(line, output port)``; line = port * num_vcs + vc.
    request: tuple[int, int]
    out_vc: int | None = None  # downstream VC granted by VC allocation


@dataclass(slots=True)
class _VcState:
    """Occupancy of one input virtual channel."""

    flit: Flit
    groups: dict[int, _Group]  # output port -> group, ascending port order
    local_pending: bool


class ElectricalRouter:
    """One mesh router of the electrical baseline."""

    def __init__(
        self,
        node: int,
        config: ElectricalConfig,
        topology: GridTopology | None = None,
    ):
        self.node = node
        self.config = config
        self.mesh = config.mesh
        self.topology = (
            topology
            if topology is not None
            else require_grid(topology_of(config), "the electrical router")
        )
        self.vcs: list[list[_VcState | None]] = [
            [None] * config.num_vcs for _ in range(NUM_PORTS)
        ]
        #: Free downstream VCs per mesh output port (credit state).  An
        #: entry is True when the downstream input VC is available *and*
        #: not yet promised to a local requester.
        self.credits: list[list[bool]] = [
            [True] * config.num_vcs for _ in range(NUM_PORTS)
        ]
        self._vc_allocator = VcAllocator(NUM_PORTS, config.num_vcs)
        self._sw_allocator = SwitchAllocator(
            NUM_PORTS,
            config.num_vcs,
            input_speedup=config.input_speedup,
            output_speedup=config.output_speedup,
            iterations=config.islip_iterations,
        )
        self._active: set[tuple[int, int]] = set()
        self._num_vcs = config.num_vcs
        self._route = route_table(node, self.topology)
        self._neighbors = tuple(
            self.topology.neighbor(node, port) for port in range(NUM_PORTS)
        )

    @property
    def busy(self) -> bool:
        """True while any input VC holds a flit."""
        return bool(self._active)

    # -- buffer management ----------------------------------------------------

    def occupancy(self) -> int:
        """Occupied input VCs across all ports (the buffered-flit count)."""
        return len(self._active)

    def find_free_vc(self, port: int) -> int | None:
        states = self.vcs[port]
        return states.index(None) if None in states else None

    def accept_flit(
        self, port: int, vc: int, flit: Flit, cycle: int, network: "ElectricalNetwork"
    ) -> None:
        """Install an arriving (or injected) flit into an input VC."""
        if self.vcs[port][vc] is not None:
            raise RuntimeError(
                f"router {self.node}: VC ({port},{vc}) occupied on arrival"
            )
        destinations = flit.destinations
        line = port * self._num_vcs + vc
        groups: dict[int, _Group] = {}
        if len(destinations) == 1:
            (destination,) = destinations
            output = self._route[destination]
            local = output == LOCAL_PORT
            if not local:
                groups[output] = _Group(destinations, (line, output))
        else:
            # VCTM: partition the destinations by output port.
            parts: dict[int, set[int]] = {}
            for destination in destinations:
                parts.setdefault(self._route[destination], set()).add(destination)
            local = parts.pop(LOCAL_PORT, None) is not None
            for output in sorted(parts):
                groups[output] = _Group(parts[output], (line, output))
        self.vcs[port][vc] = _VcState(flit, groups, local)
        self._active.add((port, vc))
        network.power.buffer_write(network.stats)
        if local:
            # Ejection bypasses the crossbar: accepted one cycle later.
            network.schedule_ejection(cycle + 1, self.node, port, vc)

    def complete_ejection(
        self, port: int, vc: int, cycle: int, network: "ElectricalNetwork"
    ) -> None:
        """Finish the crossbar-bypass local delivery scheduled at arrival."""
        state = self.vcs[port][vc]
        if state is None:
            raise RuntimeError(f"router {self.node}: ejection from empty VC")
        state.local_pending = False
        network.power.buffer_read(network.stats)
        if not state.groups:
            self._release(port, vc, cycle, network)

    def _release(
        self, port: int, vc: int, cycle: int, network: "ElectricalNetwork"
    ) -> None:
        self.vcs[port][vc] = None
        self._active.discard((port, vc))
        if port != LOCAL_PORT:
            # Return the credit to the upstream router that sent this flit.
            network.schedule_credit(
                cycle + self.config.credit_delay_cycles, self.node, port, vc
            )

    def restore_credit(self, output_port: int, vc: int) -> None:
        """A downstream VC we used has drained; its credit returns."""
        if self.credits[output_port][vc]:
            raise RuntimeError(
                f"router {self.node}: double credit on ({output_port},{vc})"
            )
        self.credits[output_port][vc] = True

    # -- per-cycle allocation pipeline ----------------------------------------

    def tick(self, cycle: int, network: "ElectricalNetwork") -> None:
        """Run VC allocation, switch allocation and departures for one cycle.

        One pass over the occupied VCs collects every group; a group granted
        its downstream VC this cycle competes for the crossbar in the same cycle.
        """
        vcs = self.vcs
        groups = [
            group
            for port, vc in self._active
            for group in vcs[port][vc].groups.values()  # type: ignore[union-attr]
        ]
        vc_requests: dict[int, int] = {}
        for group in groups:
            if group.out_vc is None:
                line, output = group.request
                vc_requests[output] = vc_requests.get(output, 0) | 1 << line
        if vc_requests:
            self._allocate_vcs(vc_requests)
        requests = [group.request for group in groups if group.out_vc is not None]
        if not requests:
            return
        network.power.allocation(network.stats)
        for line, output in self._sw_allocator.allocate_lines(requests):
            self._depart(line, output, cycle, network)

    def _allocate_vcs(self, requests: dict[int, int]) -> None:
        """Grant downstream VCs to the requesting lines of each output.

        Multicast replication groups request in parallel — the VC allocator
        serves each (VC, output) pair independently, so a branch router can
        set up all its tree edges in one cycle.
        """
        num_vcs = self._num_vcs
        for output, lines in requests.items():
            credits = self.credits[output]
            if True not in credits:
                continue
            free = compress(range(num_vcs), credits)
            for line, out_vc in self._vc_allocator.grant(output, lines, free):
                state = self.vcs[line // num_vcs][line % num_vcs]
                assert state is not None
                state.groups[output].out_vc = out_vc
                # Reserve: no other requester may be promised this downstream VC.
                credits[out_vc] = False

    def _depart(
        self, line: int, output: int, cycle: int, network: "ElectricalNetwork"
    ) -> None:
        port, vc = divmod(line, self._num_vcs)
        state = self.vcs[port][vc]
        assert state is not None
        group = state.groups.pop(output)
        assert group.out_vc is not None
        if state.groups or state.local_pending:
            flit = state.flit.replica(group.destinations)
        else:
            flit = state.flit
            flit.destinations = group.destinations
        power, stats = network.power, network.stats
        power.buffer_read(stats)
        power.crossbar(stats)
        power.link(stats)
        stats.record_hops(1)
        neighbor = self._neighbors[output]
        assert neighbor is not None  # DOR only routes through connected ports
        network.schedule_link_traversal(
            cycle, self.node, neighbor, output, group.out_vc, flit
        )
        if not state.groups and not state.local_pending:
            self._release(port, vc, cycle, network)
