"""iSLIP allocation (McKeown, ToN 1999) for the baseline router.

Table 2 of the paper specifies iSLIP for both the VC allocator and the
switch allocator.  iSLIP is a separable grant/accept scheme with rotating
priority pointers that advance only when their grant is accepted in the
first iteration, which is what de-synchronises the pointers and gives the
algorithm its 100%-throughput behaviour under uniform traffic.

Requests are flat integers: input VC ``(port, vc)`` is *line*
``port * num_vcs + vc``, and each output port gathers its requesters into
one bitmask over the lines.  An arbiter takes the lowest set bit at or
after its pointer, wrapping around — the rotating scan of
``repro.vectorized.components.SCAN_ORDER``, on a mask instead of a table.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence


class RoundRobinArbiter:
    """A rotating-priority arbiter over a fixed number of request lines."""

    __slots__ = ("size", "pointer")

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"arbiter needs at least one line, got {size}")
        self.size = size
        self.pointer = 0

    def choose_mask(self, mask: int) -> int:
        """The lowest line of ``mask`` at or after the pointer, else -1."""
        later = mask >> self.pointer
        if later:
            return self.pointer + (later & -later).bit_length() - 1
        return (mask & -mask).bit_length() - 1

    def choose(self, requests: Iterable[int]) -> int | None:
        """The requesting line at or after the pointer (no pointer update)."""
        mask = 0
        for line in requests:
            if not 0 <= line < self.size:
                raise ValueError(f"line {line} out of range")
            mask |= 1 << line
        line = self.choose_mask(mask)
        return None if line < 0 else line

    def advance_past(self, line: int) -> None:
        """Move the pointer one past ``line`` (iSLIP accepted-grant rule)."""
        if not 0 <= line < self.size:
            raise ValueError(f"line {line} out of range")
        self.pointer = (line + 1) % self.size


class Request(NamedTuple):
    """One switch-allocation request: input VC ``(port, vc)`` -> output port."""

    input_port: int
    vc: int
    output_port: int


def _lines(requests: Iterable, num_ports: int, num_vcs: int) -> list[tuple[int, int]]:
    """Checked ``(input_port, vc, output_port)`` requests as ``(line, output)``."""
    lines = []
    for request in requests:
        input_port, vc, output_port = request
        if not 0 <= input_port < num_ports:
            raise ValueError(f"bad input port in {request}")
        if not 0 <= output_port < num_ports:
            raise ValueError(f"bad output port in {request}")
        if not 0 <= vc < num_vcs:
            raise ValueError(f"bad vc in {request}")
        lines.append((input_port * num_vcs + vc, output_port))
    return lines


class SwitchAllocator:
    """iSLIP switch allocation with input speedup.

    Grant pointers live per output port over the flattened (input, vc)
    space; accept pointers live per input port over the output space.  An
    input port may accept up to ``input_speedup`` grants per cycle (the
    paper's baseline has a 4x input-speedup crossbar); each output port
    issues at most ``output_speedup`` grants (1 in the baseline).
    """

    def __init__(
        self,
        num_ports: int,
        num_vcs: int,
        input_speedup: int = 1,
        output_speedup: int = 1,
        iterations: int = 1,
    ):
        if num_ports < 1 or num_vcs < 1:
            raise ValueError("ports and VCs must be at least 1")
        if min(input_speedup, output_speedup, iterations) < 1:
            raise ValueError("speedups and iterations must be at least 1")
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self.input_speedup = input_speedup
        self.output_speedup = output_speedup
        self.iterations = iterations
        self._grant = [RoundRobinArbiter(num_ports * num_vcs) for _ in range(num_ports)]
        self._accept = [RoundRobinArbiter(num_ports) for _ in range(num_ports)]

    def allocate(self, requests: Sequence[Request]) -> list[Request]:
        """Grant a conflict-free subset of ``requests``."""
        num_vcs = self.num_vcs
        accepted = self.allocate_lines(_lines(requests, self.num_ports, num_vcs))
        return [Request(line // num_vcs, line % num_vcs, out) for line, out in accepted]

    def allocate_lines(
        self, requests: Sequence[tuple[int, int]]
    ) -> list[tuple[int, int]]:
        """:meth:`allocate` over unchecked ``(line, output)`` pairs.

        Outputs grant in the order they first appear in ``requests``, and
        inputs accept in the order they first appear among the grants;
        the accepted pairs come back in that order.
        """
        num_vcs, num_lines = self.num_vcs, self.num_vcs * self.num_ports
        if len(requests) == 1:
            # A lone request is granted and accepted; both pointers pass it.
            line, output = requests[0]
            self._grant[output].pointer = (line + 1) % num_lines
            self._accept[line // num_vcs].pointer = (output + 1) % self.num_ports
            return [(line, output)]
        pending = requests
        accepted: list[tuple[int, int]] = []
        output_slots = [self.output_speedup] * self.num_ports
        input_slots = [self.input_speedup] * self.num_ports
        for iteration in range(self.iterations):
            masks: dict[int, int] = {}
            for line, output in pending:
                masks[output] = masks.get(output, 0) | 1 << line
            # Grant: each output offers its free slots to lines in scan order;
            # offers[input][output] = line (a later offer on the pair wins).
            offers: dict[int, dict[int, int]] = {}
            for output, mask in masks.items():
                arbiter = self._grant[output]
                for _ in range(output_slots[output]):
                    line = arbiter.choose_mask(mask)
                    if line < 0:
                        break
                    mask ^= 1 << line
                    offers.setdefault(line // num_vcs, {})[output] = line
            newly: list[tuple[int, int]] = []
            for input_port, by_output in offers.items():
                arbiter, slots = self._accept[input_port], input_slots[input_port]
                outputs = 0
                for output in by_output:
                    outputs |= 1 << output
                while outputs and slots > 0:
                    output = arbiter.choose_mask(outputs)
                    outputs ^= 1 << output
                    slots -= 1
                    line = by_output[output]
                    newly.append((line, output))
                    if iteration == 0:
                        # iSLIP: pointers advance only on a first-iteration accept.
                        self._grant[output].pointer = (line + 1) % num_lines
                        arbiter.pointer = (output + 1) % self.num_ports
            accepted.extend(newly)
            if not newly or iteration + 1 == self.iterations:
                break
            # A VC may win several outputs in one cycle (multicast replication
            # through the speedup-4 crossbar), but each (VC, output) pair at
            # most once.
            for line, output in newly:
                output_slots[output] -= 1
                input_slots[line // num_vcs] -= 1
            taken = set(accepted)
            pending = [
                (line, output)
                for line, output in pending
                if (line, output) not in taken
                and output_slots[output] > 0
                and input_slots[line // num_vcs] > 0
            ]
        return accepted


class VcAllocator:
    """iSLIP-style output-VC allocation.

    Each requesting input VC asks for *any* free VC on one output port; each
    output port hands its free VCs to requesters in rotating-priority order.
    """

    def __init__(self, num_ports: int, num_vcs: int):
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self._arbiters = [
            RoundRobinArbiter(num_ports * num_vcs) for _ in range(num_ports)
        ]

    def allocate(
        self,
        requests: list[tuple[int, int, int]],
        free_vcs: dict[int, list[int]],
    ) -> dict[tuple[int, int, int], int]:
        """Assign output VCs.

        ``requests`` is a list of ``(input_port, vc, output_port)`` — one
        entry per multicast replication group, so a VC holding a multicast
        flit may request (and win) VCs on several outputs in one cycle;
        ``free_vcs`` maps output port -> currently free downstream VC ids.
        Returns ``(input_port, vc, output_port) -> granted downstream vc``.
        """
        masks: dict[int, int] = {}
        for line, output in _lines(requests, self.num_ports, self.num_vcs):
            masks[output] = masks.get(output, 0) | 1 << line
        return {
            (line // self.num_vcs, line % self.num_vcs, output): out_vc
            for output, mask in masks.items()
            for line, out_vc in self.grant(output, mask, free_vcs.get(output, ()))
        }

    def grant(
        self, output: int, mask: int, free: Iterable[int]
    ) -> list[tuple[int, int]]:
        """Hand the ``free`` downstream VCs, in order, to the lines in ``mask``.

        Returns ``(line, downstream vc)`` pairs; the pointer advances past
        each granted line.
        """
        arbiter = self._arbiters[output]
        grants: list[tuple[int, int]] = []
        for out_vc in free:
            if not mask:
                break
            line = arbiter.choose_mask(mask)
            mask ^= 1 << line
            arbiter.pointer = (line + 1) % arbiter.size  # advance_past, unchecked
            grants.append((line, out_vc))
        return grants
