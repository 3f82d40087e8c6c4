"""Output correctness gate: workload digests and failed-run accounting.

A workload's digest is the sha256 of the canonical JSON of every run's
``stats_to_dict`` in spec order (the idiom of the repository's own
regression pins).  ``perfbench/record.json`` keeps the expected digest per
calibration stamp, seed and workload.  A digest recorded for the running
stamp and seed must match; an unrecorded stamp or seed is reported, not
failed, so a deliberate calibration change shows up instead of blocking.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any, Iterable

RECORD_PATH = Path(__file__).with_name("record.json")

#: What a metric name may be made of (the benchmark contract's rule).
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def canonical_sha(payload: Any) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def workload_digest(stats_dicts: Iterable[dict[str, Any]]) -> str:
    """Digest of a workload's runs, given each run's ``stats_to_dict``."""
    return canonical_sha(list(stats_dicts))


def load_record(path: Path = RECORD_PATH) -> dict[str, Any]:
    return json.loads(path.read_text())


def recorded_digest(
    record: dict[str, Any], stamp: str, seed: int, workload: str
) -> str | None:
    return record.get("digests", {}).get(stamp, {}).get(str(seed), {}).get(workload)


def digest_status(
    record: dict[str, Any], stamp: str, seed: int, workload: str, digest: str | None
) -> str:
    """``"match"``, ``"mismatch"`` or ``"unrecorded"``."""
    expected = recorded_digest(record, stamp, seed, workload)
    if expected is None:
        return "unrecorded"
    return "match" if expected == digest else "mismatch"


def failed_runs(
    attempted: int,
    completed: int,
    violations: Iterable[tuple[int | None, str]],
    digest_ok: bool = True,
) -> int:
    """How many of ``attempted`` runs of one repetition failed.

    Runs after the ``completed`` ones never finished (one raised and the
    campaign stopped), so each counts as failed.  A violation names the
    run it convicts; one naming ``None`` concerns the whole repetition, as
    does a digest mismatch, and fails every run.
    """
    failed = set(range(completed, attempted))
    for run, _ in violations:
        if run is None:
            return attempted
        failed.add(run)
    if not digest_ok:
        return attempted
    return len(failed)


def bad_metric_names(names: Iterable[str]) -> list[str]:
    return [name for name in names if not METRIC_NAME.fullmatch(name)]
