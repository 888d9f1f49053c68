"""Content-addressed storage: sha256 blobs and fingerprint-addressed results.

Every object — a pickled job payload, a pickled job spec, a run
manifest — is stored once under the sha256 of its bytes::

    <root>/objects/<sha256[:2]>/<sha256>

The address *is* the integrity check: a read hashes the bytes it got
and, when they no longer match the name they were filed under, renames
the blob to ``<sha256>.corrupt`` and raises
:class:`~repro.errors.RegistryIntegrityError`.  A tampered or torn blob
therefore never masquerades as the recorded result, and the next put of
the same bytes writes a fresh copy (the store heals).  Writes are
atomic (write a temp file, ``rename`` into place), so a SIGKILL
mid-write leaves at worst an ignored ``*.tmp.*`` file, never a
half-object at a valid address.  Because addresses are content hashes,
the store deduplicates for free: putting bytes that are already present
touches nothing and is counted as a dedup hit (surfaced by
``repro status --registry``).

:class:`ResultStore` is the one job fingerprint → result payload store
built on those blobs: an append-only ``<root>/results.jsonl`` index maps
each fingerprint to its payload's sha256.  It backs the on-disk layer of
:class:`repro.engine.cache.ResultCache`, the entries of
:class:`repro.engine.checkpoint.CampaignCheckpoint` and the
coordinator's fleet-wide dedup store.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.errors import RegistryIntegrityError

#: Subdirectory of the registry root that holds the blobs.
OBJECTS_DIR = "objects"

#: Suffix a blob that failed verification is renamed to.
CORRUPT_SUFFIX = ".corrupt"

#: Index file mapping job fingerprints to payload blob addresses.
INDEX_NAME = "results.jsonl"


def sha256_hex(blob: bytes) -> str:
    """The store address for ``blob``."""
    return hashlib.sha256(blob).hexdigest()


def encode_object(payload: Any) -> bytes:
    """Canonical pickle bytes for a payload (the bytes that get hashed).

    Uses the highest protocol, matching the byte-identity contract the
    engine benchmarks already pin (``pickle.dumps(a) == pickle.dumps(b)``
    for equal seeded results).
    """
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


@dataclass
class StoreStats:
    """Write-side effectiveness counters for one store handle."""

    puts: int = 0
    writes: int = 0
    dedup_hits: int = 0

    def as_dict(self) -> dict:
        return {
            "puts": self.puts,
            "writes": self.writes,
            "dedup_hits": self.dedup_hits,
        }


@dataclass
class ObjectStore:
    """sha256-addressed blob store under ``<root>/objects/``."""

    root: Union[str, Path]
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    @property
    def objects_root(self) -> Path:
        return Path(self.root) / OBJECTS_DIR

    def _path(self, sha: str) -> Path:
        return self.objects_root / sha[:2] / sha

    # -- writing -----------------------------------------------------------------

    def put_bytes(self, blob: bytes) -> str:
        """Store ``blob``; returns its sha256 address.

        Idempotent: an address that already exists is left untouched
        (content-addressing makes overwrites meaningless) and counted as
        a dedup hit.
        """
        sha = sha256_hex(blob)
        self.stats.puts += 1
        path = self._path(sha)
        if path.exists():
            self.stats.dedup_hits += 1
            return sha
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{sha}.tmp.{os.getpid()}")
        tmp.write_bytes(blob)
        tmp.replace(path)
        self.stats.writes += 1
        return sha

    def put(self, payload: Any) -> str:
        """Pickle ``payload`` and store it; returns the sha256 address."""
        return self.put_bytes(encode_object(payload))

    # -- reading -----------------------------------------------------------------

    def get_bytes(self, sha: str) -> bytes:
        """The verified bytes stored at ``sha``.

        Raises :class:`RegistryIntegrityError` when the object is
        missing or its bytes no longer hash to their address; a blob
        that fails verification is first renamed to ``<sha>.corrupt``.
        """
        path = self._path(sha)
        try:
            blob = path.read_bytes()
        except OSError as error:
            raise RegistryIntegrityError(
                f"registry object {sha[:12]}… is missing ({path})", sha256=sha
            ) from error
        if sha256_hex(blob) != sha:
            # Set the damaged blob aside so the next put of these bytes
            # writes a fresh copy instead of counting a dedup hit.
            try:
                path.replace(path.with_name(sha + CORRUPT_SUFFIX))
            except OSError:
                pass
            raise RegistryIntegrityError(
                f"registry object {sha[:12]}… failed content verification "
                "(bytes do not hash to their address — tampered or torn)",
                sha256=sha,
            )
        return blob

    def get(self, sha: str) -> Any:
        """Unpickle the verified object stored at ``sha``."""
        return pickle.loads(self.get_bytes(sha))

    def __contains__(self, sha: str) -> bool:
        return self._path(sha).exists()

    # -- accounting --------------------------------------------------------------

    def _entries(self) -> Iterator[Path]:
        root = self.objects_root
        if not root.exists():
            return iter(())
        return (
            entry
            for bucket in sorted(root.iterdir())
            if bucket.is_dir()
            for entry in sorted(bucket.iterdir())
            if entry.is_file()
            and ".tmp." not in entry.name
            and not entry.name.endswith(CORRUPT_SUFFIX)
        )

    def census(self) -> Tuple[int, int]:
        """(object count, total bytes) currently on disk."""
        count = 0
        size = 0
        for entry in self._entries():
            try:
                size += entry.stat().st_size
                count += 1
            except OSError:
                continue
        return count, size


@dataclass
class ResultStoreStats:
    """Effectiveness counters surfaced on ``/metrics`` and ``/v1/status``."""

    stored: int = 0
    hits: int = 0
    misses: int = 0

    def as_dict(self) -> dict:
        return {"stored": self.stored, "hits": self.hits, "misses": self.misses}


@dataclass
class ResultStore:
    """fingerprint → result-payload bytes, content-addressed and durable.

    The index only ever *adds* lines (results are deterministic per
    fingerprint by construction); a torn tail line from a crashed append
    is skipped on load.  Each handle reads the index when it opens.
    """

    root: Union[str, Path]
    stats: ResultStoreStats = field(default_factory=ResultStoreStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._objects = ObjectStore(self.root)
        self._index: Dict[str, str] = {}
        self._lock = threading.Lock()
        self._load_index()

    @property
    def index_path(self) -> Path:
        return Path(self.root) / INDEX_NAME

    def _load_index(self) -> None:
        try:
            lines = self.index_path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return
        for line in lines:
            try:
                entry = json.loads(line)
                fingerprint, sha = entry["fingerprint"], entry["sha256"]
            except (ValueError, TypeError, KeyError):
                continue
            if isinstance(fingerprint, str) and isinstance(sha, str):
                self._index[fingerprint] = sha

    # -- writing -----------------------------------------------------------------

    def put(self, fingerprint: str, blob: bytes) -> str:
        """Store one result's payload bytes under its job fingerprint.

        Idempotent and first-wins: a fingerprint that is already indexed
        keeps its original blob (deterministic jobs make any second copy
        byte-identical anyway; this just makes duplicate deliveries
        free).  Returns the payload's sha256 address.
        """
        with self._lock:
            existing = self._index.get(fingerprint)
            if existing is not None:
                return existing
            sha = self._objects.put_bytes(blob)
            with self.index_path.open("a", encoding="utf-8") as handle:
                handle.write(
                    json.dumps({"fingerprint": fingerprint, "sha256": sha}, sort_keys=True)
                    + "\n"
                )
            self._index[fingerprint] = sha
            self.stats.stored += 1
            return sha

    def clear(self) -> None:
        """Drop every entry: the index and all blobs, quarantined included."""
        with self._lock:
            self._index.clear()
            self.index_path.unlink(missing_ok=True)
            shutil.rmtree(self._objects.objects_root, ignore_errors=True)

    # -- reading -----------------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[bytes]:
        """The stored payload bytes for ``fingerprint``, or ``None``.

        A blob that is missing or fails verification raises
        :class:`RegistryIntegrityError` once and the fingerprint leaves
        the index, so it reads as absent afterwards and the next
        :meth:`put` heals it.
        """
        sha = self._index.get(fingerprint)
        if sha is None:
            self.stats.misses += 1
            return None
        try:
            blob = self._objects.get_bytes(sha)
        except RegistryIntegrityError:
            with self._lock:
                self._index.pop(fingerprint, None)
            raise
        self.stats.hits += 1
        return blob

    def blob_path(self, fingerprint: str) -> Optional[Path]:
        """Where the blob behind ``fingerprint`` lives, if it is indexed."""
        sha = self._index.get(fingerprint)
        return None if sha is None else self._objects._path(sha)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._index

    def __len__(self) -> int:
        return len(self._index)
