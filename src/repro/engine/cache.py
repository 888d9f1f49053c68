"""Content-addressed result cache for campaign jobs.

Keys are job fingerprints (sha256 of the canonical job identity, see
:meth:`repro.engine.jobs.JobSpec.fingerprint`); values are the job
payloads (``CharacterizationResult``, ``AttackOutcome``,
``OverheadReport`` — anything picklable).

Two layers:

* an in-process LRU dict with a hard ``max_entries`` bound — this is the
  replacement for the old module-global ``_CHARACTERIZATION_CACHE`` that
  leaked across tests and could never be cleared or bounded;
* an optional on-disk layer (``directory`` argument, or the
  ``REPRO_CACHE_DIR`` environment variable) that persists results across
  processes, so repeated CLI invocations share sweeps.  It is a
  :class:`~repro.registry.store.ResultStore`: payload pickles stored
  under their sha256, indexed by fingerprint.

A torn or tampered disk entry (a killed writer, or a chaos injection,
see :class:`repro.engine.resilience.ChaosPolicy`) is *detected*, not
silently loaded: the store sets the damaged blob aside as
``<sha>.corrupt``, the lookup counts it in ``stats.corrupt`` and reports
a miss, and the recomputed result heals the entry on its next ``put``.

A cache hit on the in-memory layer returns the *same object* — callers
that relied on ``characterization(model) is characterization(model)``
keep that identity.  Disk hits return an equal, freshly unpickled copy
and are promoted into memory.
"""

from __future__ import annotations

import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from repro.errors import ConfigurationError, RegistryIntegrityError
from repro.registry.store import ResultStore, encode_object

#: Default in-memory entry bound; full three-model campaigns use ~30.
DEFAULT_MAX_ENTRIES = 128

#: Environment variable naming the persistent cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_SENTINEL = object()


@dataclass
class CacheStats:
    """Counters describing cache effectiveness for one session."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    evictions: int = 0
    stores: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict:
        """JSON-safe dump for bench artifacts and ``repro campaign``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }


@dataclass
class ResultCache:
    """Bounded LRU mapping job fingerprints to result payloads."""

    max_entries: int = DEFAULT_MAX_ENTRIES
    directory: Optional[Union[str, Path]] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ConfigurationError("max_entries must be at least 1")
        #: The on-disk layer, or ``None`` for a memory-only cache.
        self.store: Optional[ResultStore] = None
        if self.directory is not None:
            self.directory = Path(self.directory)
            self.store = ResultStore(self.directory)
        self._memory: "OrderedDict[str, Any]" = OrderedDict()

    @classmethod
    def from_env(cls, *, max_entries: int = DEFAULT_MAX_ENTRIES) -> "ResultCache":
        """A cache following ``REPRO_CACHE_DIR``."""
        return cls(
            max_entries=max_entries, directory=os.environ.get(CACHE_DIR_ENV) or None
        )

    def _load_disk(self, fingerprint: str) -> Optional[bytes]:
        """The verified pickle bytes on disk, else ``None`` (corrupt counted)."""
        if self.store is None:
            return None
        try:
            return self.store.get(fingerprint)
        except RegistryIntegrityError:
            self.stats.corrupt += 1
            return None

    # -- lookup ------------------------------------------------------------------

    def get(self, fingerprint: str, default: Any = None) -> Any:
        """The cached payload for a fingerprint, or ``default``."""
        value = self._memory.get(fingerprint, _SENTINEL)
        if value is not _SENTINEL:
            self._memory.move_to_end(fingerprint)
            self.stats.hits += 1
            return value
        blob = self._load_disk(fingerprint)
        if blob is not None:
            value = pickle.loads(blob)
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._store_memory(fingerprint, value)
            return value
        self.stats.misses += 1
        return default

    def __contains__(self, fingerprint: str) -> bool:
        # Verify rather than test the index, so a torn on-disk entry is
        # not reported present and then missed by get().
        return fingerprint in self._memory or self._load_disk(fingerprint) is not None

    def __len__(self) -> int:
        return len(self._memory)

    # -- storage ---------------------------------------------------------------

    def _store_memory(self, fingerprint: str, payload: Any) -> None:
        self._memory[fingerprint] = payload
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def put(self, fingerprint: str, payload: Any, *, blob: Optional[bytes] = None) -> None:
        """Store a payload under its fingerprint (memory + disk).

        ``blob`` is the payload's :func:`~repro.registry.store.encode_object`
        bytes when the caller already has them, saving a second pickle.
        """
        self._store_memory(fingerprint, payload)
        self.stats.stores += 1
        if self.store is not None and fingerprint not in self.store:
            self.store.put(fingerprint, blob if blob is not None else encode_object(payload))

    def clear(self) -> None:
        """Drop every entry, memory and disk (including quarantined blobs)."""
        self._memory.clear()
        if self.store is not None:
            self.store.clear()
