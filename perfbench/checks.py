"""Correctness digests for the benchmark's round seeds.

Digests are sha256 over canonical JSON of public result fields — every
field of each :class:`~repro.attacks.base.AttackOutcome`, and the open
explore map's own canonical JSON — never over pickle bytes, so a change
of wire or storage codec leaves them valid while any change to a result
does not.

Regenerate ``digests.json`` (serial execution, no timing) with::

    PYTHONPATH=src python3 perfbench/checks.py

Only do so when a result is meant to change; the point of committing
them is that a speed-up must reproduce them byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict

DIGESTS_PATH = Path(__file__).resolve().with_name("digests.json")


def _json_default(value: Any) -> Any:
    if isinstance(value, bytes):
        return {"hex": value.hex()}
    raise TypeError(f"no canonical JSON form for {type(value).__name__}")


def outcome_json(outcome) -> str:
    """Canonical JSON of every public field of an ``AttackOutcome``."""
    return json.dumps(
        dataclasses.asdict(outcome),
        sort_keys=True,
        separators=(",", ":"),
        default=_json_default,
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_key(job) -> str:
    """The matrix position of a prevention job: CPU/attack/defense."""
    return f"{job.codename}/{job.attack}/{'protected' if job.protected else 'open'}"


def load_digests(path: Path = DIGESTS_PATH) -> Dict[str, Dict[str, Any]]:
    """The committed digests: ``{"campaign": {seed: {cell: sha}}, "explore": {seed: sha}}``.

    Empty before the first :func:`regenerate`, so every check fails.
    """
    if not path.exists():
        return {"campaign": {}, "explore": {}}
    return json.loads(path.read_text())


def regenerate(path: Path = DIGESTS_PATH) -> Dict[str, Dict[str, Any]]:
    """Recompute every digest with the serial executor and write them."""
    import logging

    import workloads

    logging.getLogger("repro").setLevel(logging.ERROR)
    digests: Dict[str, Dict[str, Any]] = {"campaign": {}, "explore": {}}
    for seed in sorted({workloads.CAMPAIGN_WARMUP_SEED, *workloads.CAMPAIGN_SEEDS, *workloads.FLEET_SEEDS}):
        digests["campaign"][str(seed)] = workloads.serial_cells(seed)
        print(f"campaign seed {seed} digested", file=sys.stderr)
    for seed in (workloads.EXPLORE_WARMUP_SEED,) + workloads.EXPLORE_SEEDS:
        digests["explore"][str(seed)] = sha256(workloads.open_map_json(seed))
        print(f"explore seed {seed} digested", file=sys.stderr)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return digests


if __name__ == "__main__":
    regenerate()
