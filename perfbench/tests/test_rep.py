"""One repetition's accounting, end to end on tiny runs."""

from dataclasses import replace

from repro import Executor, MeshGeometry, RunSpec, SyntheticWorkload
from repro.harness.experiments.configs import standard_configs

from perfbench import gate
from perfbench.workloads import Workload, run_rep


def _specs(seed):
    config = standard_configs(MeshGeometry(2, 2))["Optical4"]
    return [RunSpec(config, SyntheticWorkload("uniform", rate), 20, seed=seed)
            for rate in (0.05, 0.1, 0.2)]


def _render(state, executor, workdir):
    return {}


def _check(outputs, results):
    return []


def _workload(campaign, check=_check):
    return Workload("tiny", _specs, campaign, _render, check)


def _all(seed, executor, workdir):
    return executor.map(_specs(seed))


def test_clean_repetition_counts_no_failure(tmp_path):
    specs = _specs(1)
    rep = run_rep(_workload(_all), 1, [s.digest() for s in specs], tmp_path)
    assert rep.attempted == 3 and len(rep.results) == 3
    assert rep.violations == []
    assert rep.replay_hits == rep.replay_total == 3
    assert gate.failed_runs(rep.attempted, len(rep.results), rep.violations) == 0


def test_raising_run_counts_it_and_the_runs_it_cut_off(tmp_path):
    def raise_on_second(seed, executor, workdir):
        specs = _specs(seed)
        executor.map(specs[:1])
        executor.map([replace(specs[1], cycles=-1)])  # RunSpec rejects this

    specs = _specs(1)
    rep = run_rep(_workload(raise_on_second), 1, [s.digest() for s in specs], tmp_path)
    assert len(rep.results) == 1
    assert gate.failed_runs(rep.attempted, len(rep.results), rep.violations) == 2


def test_invariant_violation_and_digest_mismatch(tmp_path):
    def flag_last(outputs, results):
        return [(len(results) - 1, "flagged")]

    specs = _specs(1)
    digests = [s.digest() for s in specs]
    rep = run_rep(_workload(_all, flag_last), 1, digests, tmp_path)
    assert gate.failed_runs(rep.attempted, len(rep.results), rep.violations) == 1
    assert gate.failed_runs(rep.attempted, len(rep.results), [], digest_ok=False) == 3


def test_campaign_running_other_specs_fails_the_repetition(tmp_path):
    rep = run_rep(_workload(_all), 1, [s.digest() for s in _specs(2)], tmp_path)
    assert (None, "campaign ran other specs than set-up built") in rep.violations
