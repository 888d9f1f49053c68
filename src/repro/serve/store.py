"""The coordinator's fleet-wide dedup store.

It is :class:`repro.registry.store.ResultStore`, the one fingerprint →
payload store; when any client re-submits a job whose fingerprint is
already indexed, the coordinator answers from it instead of leasing the
job out, and the client records the result with origin ``remote-cache``.
"""

# Re-exported under this module path because the perfbench tracer patches
# ``repro.serve.store.ResultStore.put/get``.
from repro.registry.store import INDEX_NAME, ResultStore, ResultStoreStats

__all__ = ["INDEX_NAME", "ResultStore", "ResultStoreStats"]
