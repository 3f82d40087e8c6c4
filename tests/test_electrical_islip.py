"""Tests for the iSLIP allocators, including a property test against the
set-scan implementation the mask arbitration replaced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.electrical.islip import (
    Request,
    RoundRobinArbiter,
    SwitchAllocator,
    VcAllocator,
)

from helpers import examples


class TestRoundRobinArbiter:
    def test_picks_at_or_after_pointer(self):
        arbiter = RoundRobinArbiter(4)
        arbiter.pointer = 2
        assert arbiter.choose({0, 3}) == 3

    def test_wraps_around(self):
        arbiter = RoundRobinArbiter(4)
        arbiter.pointer = 3
        assert arbiter.choose({1}) == 1

    def test_empty_requests_yield_none(self):
        assert RoundRobinArbiter(4).choose(set()) is None

    def test_advance_past(self):
        arbiter = RoundRobinArbiter(4)
        arbiter.advance_past(3)
        assert arbiter.pointer == 0

    def test_fairness_over_rounds(self):
        """With all lines always requesting, grants rotate evenly."""
        arbiter = RoundRobinArbiter(3)
        grants = []
        for _ in range(9):
            line = arbiter.choose({0, 1, 2})
            grants.append(line)
            arbiter.advance_past(line)
        assert grants == [0, 1, 2] * 3

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    @pytest.mark.parametrize("line", [4, 7, -1])
    def test_out_of_range_request_rejected(self, line):
        with pytest.raises(ValueError, match="out of range"):
            RoundRobinArbiter(4).choose({1, line})


class TestSwitchAllocator:
    def make(self, speedup=1):
        return SwitchAllocator(num_ports=5, num_vcs=2, input_speedup=speedup)

    def test_conflict_free_subset(self):
        allocator = self.make()
        requests = [Request(0, 0, 2), Request(1, 0, 2), Request(2, 0, 3)]
        granted = allocator.allocate(requests)
        outputs = [r.output_port for r in granted]
        assert len(outputs) == len(set(outputs))
        assert len(granted) == 2  # output 2 grants once, output 3 once

    def test_output_speedup_one_limits_output(self):
        allocator = self.make()
        requests = [Request(i, 0, 4) for i in range(4)]
        assert len(allocator.allocate(requests)) == 1

    def test_input_speedup_allows_multiple_accepts(self):
        allocator = self.make(speedup=4)
        requests = [Request(0, vc, vc) for vc in range(2)]  # two VCs, two outputs
        assert len(allocator.allocate(requests)) == 2

    def test_input_speedup_one_limits_input(self):
        allocator = self.make(speedup=1)
        requests = [Request(0, 0, 1), Request(0, 1, 2)]
        assert len(allocator.allocate(requests)) == 1

    def test_no_requests(self):
        assert self.make().allocate([]) == []

    def test_invalid_request_rejected(self):
        with pytest.raises(ValueError):
            self.make().allocate([Request(9, 0, 0)])
        with pytest.raises(ValueError):
            self.make().allocate([Request(0, 9, 0)])
        with pytest.raises(ValueError):
            self.make().allocate([Request(0, 0, -1)])

    def test_invalid_speedup_rejected(self):
        with pytest.raises(ValueError):
            SwitchAllocator(5, 2, input_speedup=0)

    def test_pointer_desynchronisation(self):
        """Repeated full contention rotates grants across inputs (iSLIP)."""
        allocator = self.make()
        winners = []
        for _ in range(4):
            granted = allocator.allocate([Request(i, 0, 0) for i in range(4)])
            assert len(granted) == 1
            winners.append(granted[0].input_port)
        assert len(set(winners)) > 1  # not starving a single input

    def test_multicast_vc_can_win_two_outputs(self):
        allocator = self.make(speedup=4)
        requests = [Request(0, 0, 1), Request(0, 0, 2)]
        granted = allocator.allocate(requests)
        assert len(granted) == 2


class TestVcAllocator:
    def test_grants_free_vcs(self):
        allocator = VcAllocator(num_ports=5, num_vcs=2)
        grants = allocator.allocate(
            [(0, 0, 3)], free_vcs={3: [0, 1]}
        )
        assert grants == {(0, 0, 3): 0}

    def test_no_free_vcs_no_grant(self):
        allocator = VcAllocator(5, 2)
        assert allocator.allocate([(0, 0, 3)], {3: []}) == {}

    def test_two_requesters_share_free_vcs(self):
        allocator = VcAllocator(5, 2)
        grants = allocator.allocate(
            [(0, 0, 3), (1, 0, 3)], {3: [0, 1]}
        )
        assert len(grants) == 2
        assert {vc for vc in grants.values()} == {0, 1}

    def test_scarce_vc_goes_to_rotating_winner(self):
        allocator = VcAllocator(5, 2)
        first = allocator.allocate([(0, 0, 3), (1, 0, 3)], {3: [0]})
        second = allocator.allocate([(0, 0, 3), (1, 0, 3)], {3: [0]})
        assert len(first) == 1 and len(second) == 1
        assert set(first) != set(second)  # pointer advanced

    @pytest.mark.parametrize(
        "request_",
        [(9, 0, 1), (-1, 0, 1), (0, 2, 1), (0, -1, 1), (0, 0, 5), (0, 0, -1)],
    )
    def test_out_of_range_request_rejected(self, request_):
        # Same checks as SwitchAllocator: a bad line would become a wrong bit.
        with pytest.raises(ValueError, match="bad"):
            VcAllocator(5, 2).allocate([request_], {1: [0], -1: [0], 5: [0]})

    def test_multicast_groups_allocate_in_parallel(self):
        allocator = VcAllocator(5, 2)
        grants = allocator.allocate(
            [(0, 0, 1), (0, 0, 2)], {1: [0], 2: [0]}
        )
        assert len(grants) == 2


# -- oracle: the set-scan allocators the mask arbitration replaced --------------


class OracleArbiter:
    def __init__(self, size):
        self.size = size
        self.pointer = 0

    def choose(self, requests):
        active = set(requests)
        for offset in range(self.size):
            line = (self.pointer + offset) % self.size
            if line in active:
                return line
        return None

    def advance_past(self, line):
        self.pointer = (line + 1) % self.size


class OracleSwitchAllocator:
    def __init__(self, num_ports, num_vcs, input_speedup, output_speedup, iterations):
        self.num_vcs = num_vcs
        self.num_ports = num_ports
        self.input_speedup = input_speedup
        self.output_speedup = output_speedup
        self.iterations = iterations
        self._grant = [OracleArbiter(num_ports * num_vcs) for _ in range(num_ports)]
        self._accept = [OracleArbiter(num_ports) for _ in range(num_ports)]

    def _line(self, request):
        return request.input_port * self.num_vcs + request.vc

    def allocate(self, requests):
        pending = list(requests)
        accepted = []
        output_slots = [self.output_speedup] * self.num_ports
        input_slots = [self.input_speedup] * self.num_ports
        for iteration in range(self.iterations):
            granted = self._grant_phase(pending, output_slots)
            newly = self._accept_phase(granted, input_slots, first=iteration == 0)
            if not newly:
                break
            accepted.extend(newly)
            taken = {tuple(r) for r in accepted}
            for request in newly:
                output_slots[request.output_port] -= 1
                input_slots[request.input_port] -= 1
            pending = [
                r
                for r in pending
                if tuple(r) not in taken
                and output_slots[r.output_port] > 0
                and input_slots[r.input_port] > 0
            ]
        return accepted

    def _grant_phase(self, pending, output_slots):
        granted = []
        by_output = {}
        for request in pending:
            by_output.setdefault(request.output_port, []).append(request)
        for output_port, candidates in by_output.items():
            if output_slots[output_port] <= 0:
                continue
            lines = {self._line(r): r for r in candidates}
            chosen = set()
            for _ in range(output_slots[output_port]):
                line = self._grant[output_port].choose(set(lines) - chosen)
                if line is None:
                    break
                chosen.add(line)
                granted.append(lines[line])
        return granted

    def _accept_phase(self, granted, input_slots, first):
        accepted = []
        by_input = {}
        for request in granted:
            by_input.setdefault(request.input_port, []).append(request)
        for input_port, candidates in by_input.items():
            slots = input_slots[input_port]
            if slots <= 0:
                continue
            by_output = {r.output_port: r for r in candidates}
            chosen = set()
            for _ in range(slots):
                output = self._accept[input_port].choose(set(by_output) - chosen)
                if output is None:
                    break
                chosen.add(output)
                request = by_output[output]
                accepted.append(request)
                if first:
                    self._grant[output].advance_past(self._line(request))
                    self._accept[input_port].advance_past(output)
        return accepted


class OracleVcAllocator:
    def __init__(self, num_ports, num_vcs):
        self.num_vcs = num_vcs
        self._arbiters = [OracleArbiter(num_ports * num_vcs) for _ in range(num_ports)]

    def allocate(self, requests, free_vcs):
        grants = {}
        by_output = {}
        for input_port, vc, output_port in requests:
            by_output.setdefault(output_port, []).append((input_port, vc))
        for output_port, requesters in by_output.items():
            available = list(free_vcs.get(output_port, []))
            arbiter = self._arbiters[output_port]
            lines = {p * self.num_vcs + v: (p, v) for p, v in requesters}
            remaining = set(lines)
            while available and remaining:
                line = arbiter.choose(remaining)
                remaining.discard(line)
                port, vc = lines[line]
                grants[(port, vc, output_port)] = available.pop(0)
                arbiter.advance_past(line)
        return grants


def pointers(arbiters):
    return [arbiter.pointer for arbiter in arbiters]


@st.composite
def allocation_cases(draw):
    """Allocator shape, starting pointers and several cycles of requests.

    Requests repeat entries and let one VC ask for several outputs (a
    multicast), as the router's replication groups do.
    """
    ports = draw(st.integers(1, 5))
    vcs = draw(st.integers(1, 4))
    shape = dict(
        input_speedup=draw(st.integers(1, 4)),
        output_speedup=draw(st.integers(1, 3)),
        iterations=draw(st.sampled_from([1, 2, 3])),
    )
    port, line = st.integers(0, ports - 1), st.integers(0, ports * vcs - 1)
    grant_pointers = draw(st.lists(line, min_size=ports, max_size=ports))
    accept_pointers = draw(st.lists(port, min_size=ports, max_size=ports))
    request = st.tuples(port, st.integers(0, vcs - 1), port)
    cycles = draw(
        st.lists(st.lists(request, max_size=3 * ports * vcs), min_size=1, max_size=4)
    )
    free = st.lists(st.integers(0, vcs - 1), unique=True).map(sorted)
    per_cycle = st.dictionaries(port, free)
    free_vcs = draw(st.lists(per_cycle, min_size=len(cycles), max_size=len(cycles)))
    return ports, vcs, shape, grant_pointers, accept_pointers, cycles, free_vcs


@settings(max_examples=examples(300), deadline=None)
@given(allocation_cases())
def test_switch_allocator_matches_set_scan_oracle(case):
    ports, vcs, shape, grant_pointers, accept_pointers, cycles, _ = case
    allocator = SwitchAllocator(ports, vcs, **shape)
    oracle = OracleSwitchAllocator(ports, vcs, **shape)
    for subject in (allocator, oracle):
        for arbiter, pointer in zip(subject._grant, grant_pointers):
            arbiter.pointer = pointer
        for arbiter, pointer in zip(subject._accept, accept_pointers):
            arbiter.pointer = pointer
    for requests in cycles:
        requests = [Request(*r) for r in requests]
        assert allocator.allocate(requests) == oracle.allocate(requests)
        assert pointers(allocator._grant) == pointers(oracle._grant)
        assert pointers(allocator._accept) == pointers(oracle._accept)


@settings(max_examples=examples(300), deadline=None)
@given(allocation_cases())
def test_vc_allocator_matches_set_scan_oracle(case):
    ports, vcs, _, grant_pointers, _, cycles, free_vcs = case
    allocator = VcAllocator(ports, vcs)
    oracle = OracleVcAllocator(ports, vcs)
    for subject in (allocator, oracle):
        for arbiter, pointer in zip(subject._arbiters, grant_pointers):
            arbiter.pointer = pointer
    for requests, free in zip(cycles, free_vcs):
        granted = allocator.allocate(requests, free)
        assert list(granted.items()) == list(oracle.allocate(requests, free).items())
        assert pointers(allocator._arbiters) == pointers(oracle._arbiters)


@settings(max_examples=examples(200), deadline=None)
@given(st.integers(1, 70), st.data())
def test_mask_choice_matches_set_scan(size, data):
    pointer = data.draw(st.integers(0, size - 1))
    requests = data.draw(st.sets(st.integers(0, size - 1)))
    arbiter, oracle = RoundRobinArbiter(size), OracleArbiter(size)
    arbiter.pointer = oracle.pointer = pointer
    assert arbiter.choose(requests) == oracle.choose(requests)
