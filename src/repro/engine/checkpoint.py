"""Campaign checkpointing: persist completed results, resume, converge.

A :class:`CampaignCheckpoint` is a directory the engine session writes
every completed :class:`~repro.engine.jobs.JobResult` into *as it
lands* (via the executor's per-job progress callback), so a campaign
killed at any instant — SIGKILL included — can be resumed with
``repro campaign --resume <dir>`` and only re-executes the jobs that
had not finished.  Because every job's payload depends only on its own
fingerprint-addressed seed stream, a resumed campaign *provably
converges* to the uninterrupted run: served-from-checkpoint payloads
are byte-identical to freshly computed ones.

Layout::

    <dir>/checkpoint.json     # manifest: schema + quarantine records
    <dir>/results.jsonl       # ResultStore index: fingerprint → sha256
    <dir>/objects/            # ResultStore blobs: one pickle per payload

The entries are a :class:`~repro.registry.store.ResultStore`: a payload
torn by the kill fails its sha256, is set aside as ``.corrupt``, counted
in ``stats.corrupt`` and simply recomputed on resume.  Blob publishes
and the manifest write are atomic (write-temp + rename), so there is no
instant at which a crash can corrupt the checkpoint itself.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.engine.cache import CacheStats
from repro.errors import ObserveError, RegistryIntegrityError
from repro.registry.store import ResultStore

#: Manifest schema tag; stale checkpoints fail loudly instead of
#: resuming wrongly (schema 1 kept RPVC1 ``entries/*.pkl`` files).
CHECKPOINT_SCHEMA_VERSION = 2

#: Manifest discriminator.
CHECKPOINT_KIND = "campaign-checkpoint"

#: Manifest file name inside the checkpoint directory.
MANIFEST_NAME = "checkpoint.json"


class CampaignCheckpoint:
    """One resumable campaign's persisted progress."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        #: Quarantine records carried across resumes (run-report fodder).
        self.quarantined: List[Dict[str, Any]] = []
        #: Lookup counters; ``corrupt`` counts torn entries recomputed.
        self.stats = CacheStats()
        self._load_manifest()
        #: The completed results (created after the schema check, so a
        #: stale directory is rejected before anything is written).
        self.store = ResultStore(self.directory)
        self.flush()

    # -- manifest ----------------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _load_manifest(self) -> None:
        path = self._manifest_path()
        if not path.exists():
            return
        try:
            manifest = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            raise ObserveError(
                f"unreadable campaign checkpoint manifest at {path}"
            ) from error
        if not isinstance(manifest, dict) or manifest.get("kind") != CHECKPOINT_KIND:
            raise ObserveError(f"{path} is not a campaign checkpoint manifest")
        if manifest.get("schema") != CHECKPOINT_SCHEMA_VERSION:
            raise ObserveError(
                f"campaign checkpoint schema {manifest.get('schema')!r} != "
                f"{CHECKPOINT_SCHEMA_VERSION}"
            )
        self.quarantined = list(manifest.get("quarantined", []))

    def flush(self) -> Path:
        """Atomically publish the manifest; returns its path."""
        manifest = {
            "kind": CHECKPOINT_KIND,
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "quarantined": self.quarantined,
        }
        path = self._manifest_path()
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        tmp.replace(path)
        return path

    # -- recording ---------------------------------------------------------------

    def record(self, fingerprint: str, blob: bytes) -> None:
        """Persist one completed result's payload bytes as it lands.

        The publish is atomic and immediate — a kill right after this
        call loses nothing.
        """
        self.store.put(fingerprint, blob)

    def record_quarantine(self, info: Dict[str, Any]) -> None:
        """Persist one quarantine record (poison jobs re-run on resume)."""
        self.quarantined.append(dict(info))
        self.flush()

    # -- resume ------------------------------------------------------------------

    def get(self, fingerprint: str, default: Any = None) -> Any:
        """The checkpointed payload for a job, or ``default``.

        A torn entry (a blob damaged on disk after it was written) fails
        verification, is quarantined, counted in ``stats.corrupt`` and
        reads as absent — the session then simply re-executes that job.
        """
        try:
            blob = self.store.get(fingerprint)
        except RegistryIntegrityError:
            self.stats.corrupt += 1
            blob = None
        if blob is None:
            self.stats.misses += 1
            return default
        self.stats.hits += 1
        return pickle.loads(blob)

    def completed_count(self) -> int:
        """How many distinct results the entry store currently holds."""
        return len(self.store)

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary for CLI output and run manifests."""
        return {
            "directory": str(self.directory),
            "completed": self.completed_count(),
            "quarantined": len(self.quarantined),
        }
