"""Per-layer metrics of a traced run.

Self times come from the client thread's spans (so that, with
``bench.unattributed_s``, they add up to the traced round's wall time);
work counts come from the session's telemetry counters and the
coordinator's ``serve.*`` counters; the serve-side waits and wire sizes
come from observers on the coordinator's request handlers.  Every value
is a per-traced-round mean unless it is a ratio or a median.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List, Sequence

from tracer import Span, Tracer, inclusive_times, layer_self_times

LAYERS_PATH = Path(__file__).resolve().with_name("layers.json")

#: Layers whose self time the client thread accounts for.
SELF_LAYERS = (
    "experiments",
    "engine",
    "registry",
    "serve",
    "attacks.imul",
    "attacks.plundervolt",
    "attacks.v0ltpwn",
    "attacks.aes",
    "attacks.rsa",
    "sgx",
    "explore",
    "faults",
    "core",
    "kernel",
    "vector",
)

#: Per-layer counts read from the session's telemetry counters.
COUNTERS = {
    "engine.jobs": "engine.jobs_executed",
    "engine.retries": "engine.retries",
    "faults.windows": "faults.windows",
    "faults.injected": "faults.injected",
    "faults.crashes": "faults.crashes",
    "core.polling.polls": "countermeasure.polls",
    "core.polling.detections": "countermeasure.detections",
    "core.polling.core_checks": "countermeasure.core_checks",
    "kernel.sim.events": "sim.events_processed",
    "kernel.msr.reads": "msr.reads",
    "kernel.msr.writes": "msr.writes",
    "cpu.ocm.transactions": "ocm.transactions",
    "cpu.pstate.transitions": "pstate.transitions",
    "registry.objects_written": "registry.objects_written",
    "registry.bytes_written": "registry.bytes_written",
    "serve.degraded_batches": "serve.degraded_batches",
    "explore.points_probed": "explore.points_probed",
}

HANDLERS = {
    "jobs": "Coordinator.handle_submit",
    "lease": "Coordinator.handle_lease",
    "heartbeat": "Coordinator.handle_heartbeat",
    "collect": "Coordinator.handle_collect",
    "result": "Coordinator.handle_result",
}


def per_layer_names() -> List[str]:
    return [row["name"] for row in json.loads(LAYERS_PATH.read_text())["per_layer"]]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class Probes:
    """Observers for what spans cannot show: wire sizes, queue waits, keys."""

    COLLECTED = ("wire_bytes", "leases", "empty_leases", "lease_waits", "collect_waits", "keys")

    def __init__(self, tracer: Tracer) -> None:
        # Handlers run on the coordinator's request threads concurrently.
        self._lock = threading.Lock()
        self._submitted: Dict[str, float] = {}
        self._done: Dict[str, float] = {}
        self.reset()
        for name, observer in (
            ("Coordinator.handle_submit", self._submit),
            ("Coordinator.handle_lease", self._lease),
            ("Coordinator.handle_heartbeat", self._message),
            ("Coordinator.handle_collect", self._collect),
            ("Coordinator.handle_result", self._result),
            ("RSAKey.generate", self._keygen),
        ):
            tracer.observers[name].append(self._locked(observer))

    def _locked(self, observer):
        def call(args, kwargs, result):
            with self._lock:
                observer(args, kwargs, result)

        return call

    def reset(self) -> Dict[str, object]:
        """Start a new round; returns what the last one collected."""
        with self._lock:
            collected = {name: getattr(self, name, 0) for name in self.COLLECTED}
            self.wire_bytes = 0
            self.leases = 0
            self.empty_leases = 0
            self.lease_waits: List[float] = []
            self.collect_waits: List[float] = []
            self.keys = set()
        return collected

    def _size(self, message, reply) -> None:
        from repro.serve import protocol

        self.wire_bytes += len(protocol.dumps_message(message)) + len(
            protocol.dumps_message(reply[0])
        )

    def _message(self, args, kwargs, reply) -> None:
        self._size(args[1], reply)

    def _submit(self, args, kwargs, reply) -> None:
        self._size(args[1], reply)
        now = time.perf_counter()
        for fingerprint in reply[0]["accepted"]:
            self._submitted.setdefault(fingerprint, now)

    def _lease(self, args, kwargs, reply) -> None:
        self._size(args[1], reply)
        now = time.perf_counter()
        self.leases += 1
        jobs = reply[0]["jobs"]
        if not jobs:
            self.empty_leases += 1
        for job in jobs:
            submitted = self._submitted.pop(job["fingerprint"], None)
            if submitted is not None:
                self.lease_waits.append(now - submitted)

    def _result(self, args, kwargs, reply) -> None:
        self._size(args[2], reply)
        if args[2].get("status") == "ok":
            self._done.setdefault(args[1], time.perf_counter())

    def _collect(self, args, kwargs, reply) -> None:
        self._size(args[1], reply)
        now = time.perf_counter()
        for fingerprint in reply[0]["done"]:
            done = self._done.pop(fingerprint, None)
            if done is not None:
                self.collect_waits.append(now - done)

    def _keygen(self, args, kwargs, _key) -> None:
        bits = args[1] if len(args) > 1 else kwargs.get("bits", 512)
        self.keys.add((bits, kwargs.get("seed")))


def round_metrics(
    spans: List[Span], counts: Dict[str, int], probed: Dict, thread: int, wall_s: float
) -> Dict[str, float]:
    """One traced round's per-layer values (before averaging)."""
    values: Dict[str, float] = {}
    self_times = layer_self_times(spans, thread)
    for layer in SELF_LAYERS:
        values[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    values["bench.unattributed_s"] = wall_s - sum(self_times.values())
    seconds, calls = inclusive_times(spans)
    values["engine.job_s"] = seconds.get("execute_job", 0.0)
    values["attacks.aes.encryptions"] = counts.get("attacks.aes.encryptions", 0)
    values["attacks.rsa.keygens"] = calls.get("RSAKey.generate", 0)
    values["attacks.rsa.keygen_s"] = seconds.get("RSAKey.generate", 0.0)
    values["attacks.rsa.keygens_per_key"] = (
        values["attacks.rsa.keygens"] / len(probed["keys"]) if probed["keys"] else 0.0
    )
    values["attacks.rsa.sign_s"] = seconds.get("RSACRTSigner.sign", 0.0)
    values["attacks.bellcore_s"] = seconds.get("bellcore_extract", 0.0)
    values["explore.trace_s"] = seconds.get("trace_victim", 0.0)
    values["explore.replay_s"] = seconds.get("replay_with_fault", 0.0)
    values["explore.replays"] = calls.get("replay_with_fault", 0)
    values["faults.modexps"] = calls.get("BigIntALU.modexp", 0)
    values["core.characterization_s"] = seconds.get(
        "CharacterizationFramework.run_row_batch", 0.0
    ) + seconds.get("CharacterizationFramework.run_row", 0.0)
    values["vector.rows"] = calls.get("run_row_batch", 0)
    for kind, name in HANDLERS.items():
        values[f"serve.requests.{kind}"] = calls.get(name, 0)
    values["serve.handler_s"] = sum(seconds.get(name, 0.0) for name in HANDLERS.values())
    values["serve.store_s"] = seconds.get("ResultStore.put", 0.0) + seconds.get(
        "ResultStore.get", 0.0
    )
    values["serve.wire_bytes"] = probed["wire_bytes"]
    return values


def summarize(
    traced: Sequence,
    round_values: Sequence[Dict[str, float]],
    probed: Sequence[Dict],
    *,
    untraced_wall_s: float,  # mean wall of the untraced rounds
    import_s: float,
    attempted: int,
    failed: int,
) -> Dict[str, float]:
    """Every per-layer metric, averaged over the traced rounds."""
    n = len(traced)
    metrics: Dict[str, float] = {
        name: sum(values[name] for values in round_values) / n for name in round_values[0]
    }

    def total(counter: str) -> float:
        return sum(r.counters.get(counter, 0) for r in traced)

    for name, counter in COUNTERS.items():
        metrics[name] = total(counter) / n
    metrics["explore.prune_ratio"] = total("explore.prune_ratio") / n
    hits, misses = total("engine.cache_hits"), total("engine.cache_misses")
    metrics["engine.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    deduped, submitted = total("serve.jobs.deduped"), total("serve.jobs.submitted")
    metrics["serve.dedup_hit_ratio"] = (
        deduped / (deduped + submitted) if deduped + submitted else 0.0
    )
    leases = sum(p["leases"] for p in probed)
    metrics["serve.empty_lease_ratio"] = (
        sum(p["empty_leases"] for p in probed) / leases if leases else 0.0
    )
    metrics["serve.lease_wait_p50_s"] = median([w for p in probed for w in p["lease_waits"]])
    metrics["serve.collect_wait_p50_s"] = median(
        [w for p in probed for w in p["collect_waits"]]
    )
    metrics["serve.dedup_latency_p50_s"] = median(
        [latency for r in traced for latency in r.dedup_latencies]
    )
    events = metrics["kernel.sim.events"]
    metrics["kernel.host_us_per_event"] = (
        metrics["kernel.self_s"] * 1e6 / events if events else 0.0
    )
    metrics["bench.trace_overhead_ratio"] = (
        statistics.mean(r.wall_s for r in traced) / untraced_wall_s - 1.0
    )
    metrics["bench.failure_ratio"] = failed / attempted if attempted else 0.0
    metrics["cli.import_s"] = import_s
    return {name: metrics.get(name, 0.0) for name in per_layer_names()}
