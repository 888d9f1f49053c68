"""The benchmark's three workloads: one seeded, closed-loop client each.

Each workload object owns its temporary state (registry, coordinator,
worker) under a work directory inside the checkout, runs one untimed
warm-up round in :meth:`setup`, and then runs rounds on the round seeds
the workload seed selects.  The matrix workloads go through their seed
pool in whole passes, each begun by :meth:`begin_pass` on fresh
temporary state, so every run covers the same inputs.  A round returns
a :class:`Round` with its wall time, the executed-job landing latencies
taken from the executor's progress callback, the deterministic session
counters, and the outcome of its correctness checks.

Round seeds come from fixed pools with committed digests
(``digests.json``), so every timed round is checked byte for byte; the
workload seed picks where in the pool a run starts.  Warm-up rounds use
a seed no timed round uses, so nothing timed is precomputed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import checks
import repro
from repro import experiments
from repro.cpu.models import model_by_codename
from repro.engine import (
    EngineSession,
    Quarantined,
    RetryPolicy,
    SerialExecutor,
    reset_session,
    set_session,
)
from repro.engine.cache import ResultCache
from repro.errors import ReproError
from repro.explore import DEFAULT_FAULT_MODELS, ExplorePlan, canonical_json, coverage_holds
from repro.registry.registry import RunRegistry
from repro.serve import Coordinator, RemoteExecutor
from repro.serve import protocol

#: Round seeds (``repro campaign --seed``) of the matrix workloads.  A
#: run goes through its whole pool, in order from where the workload seed
#: points, as many times as ``--seconds`` need, and stops only at the end
#: of a pass: every run covers the same inputs in another order.  The
#: cell-latency percentiles depend on the seeds a run draws, and a subset
#: would move them by a quarter from run to run.  The coordinator queues
#: a batch in fingerprint order, so one seed's fleet p50 lies anywhere
#: from 0.3 to 1.6 s: ``fleet-campaign`` pools half as many seeds again,
#: which smooths its latency distribution around the p50.
CAMPAIGN_SEEDS: Tuple[int, ...] = tuple(range(1000, 1012))
FLEET_SEEDS: Tuple[int, ...] = tuple(range(1000, 1018))
CAMPAIGN_WARMUP_SEED = 999

#: ``explore-rsa512``: the CLI's default plan on Sky Lake with a 512-bit
#: key.  The key is fixed (``ExplorePlan``'s default key seed, the key the
#: 3076-injection figure refers to): per-job key generation dominates the
#: map and its cost differs by up to 1.8x between keys, and one map fills
#: a run, so a key drawn per seed would swamp the run-to-run spread.  The
#: round seed drives the plan seed (point probes, and the characterization
#: the protected map deploys) and the signed message.
EXPLORE_CPU = "Sky Lake"
EXPLORE_KEY_BITS = 512
EXPLORE_KEY_SEED = 42
EXPLORE_SEEDS: Tuple[int, ...] = tuple(range(100, 108))
#: The warm-up map uses a different (128-bit) key and an unused seed.
EXPLORE_WARMUP_SEED = 99
EXPLORE_WARMUP_KEY_BITS = 128
EXPLORE_WARMUP_KEY_SEED = 7


def round_seeds(pool: Sequence[int], workload_seed: int) -> List[int]:
    """The pool in order from where ``workload_seed`` points."""
    start = workload_seed % len(pool)
    return [pool[(start + i) % len(pool)] for i in range(len(pool))]


def explore_message(seed: int) -> int:
    """The message the explore victim signs in round ``seed``."""
    return random.Random(seed).getrandbits(32) | 1


def explore_plan(seed: int) -> ExplorePlan:
    """Round ``seed``'s plan: ``repro explore run``'s default grid (every
    6th table frequency, -40..-280 mV) and fault models."""
    warmup = seed == EXPLORE_WARMUP_SEED
    table = model_by_codename(EXPLORE_CPU).frequency_table
    return ExplorePlan(
        codename=EXPLORE_CPU,
        frequencies_ghz=tuple(list(table.frequencies_ghz())[::6]),
        offsets_mv=tuple(range(-40, -281, -40)),
        fault_models=DEFAULT_FAULT_MODELS,
        key_bits=EXPLORE_WARMUP_KEY_BITS if warmup else EXPLORE_KEY_BITS,
        key_seed=EXPLORE_WARMUP_KEY_SEED if warmup else EXPLORE_KEY_SEED,
        message=explore_message(seed),
        seed=seed,
    )


def serial_cells(seed: int) -> Dict[str, str]:
    """Digest per cell of one serially executed matrix (no timing)."""
    session = set_session(
        EngineSession(executor=SerialExecutor(), cache=ResultCache(), registry=None)
    )
    jobs = experiments.prevention_jobs(seed=seed)
    return {
        checks.cell_key(job): checks.sha256(checks.outcome_json(outcome))
        for job, outcome in zip(jobs, session.run_jobs(jobs))
    }


def open_map_json(seed: int) -> str:
    """Canonical JSON of one serially executed open explore map (no timing)."""
    session = set_session(
        EngineSession(executor=SerialExecutor(), cache=ResultCache(), registry=None)
    )
    return canonical_json(session.explore(explore_plan(seed)))


def _dir_bytes(root: Path) -> int:
    total = 0
    for directory, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    return total


@dataclass
class Round:
    """What one round did, as the benchmark measured and checked it."""

    seed: int
    wall_s: float
    #: Throughput numerator and the wall time it accrued over.
    items: int
    item_wall_s: float
    #: Batch submission -> landing, for executed jobs / dedup reads.
    latencies: List[float] = field(default_factory=list)
    dedup_latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Deterministic work counts and other per-layer inputs.
    counters: Dict[str, float] = field(default_factory=dict)


class _Landings:
    """Executor mixin: time each landing from its batch's submission."""

    def _init_landings(self) -> None:
        #: (seconds since batch submission, fingerprint, origin)
        self.landings: List[Tuple[float, str, Optional[str]]] = []
        self.degraded_batches = 0

    def run_jobs(self, jobs, *, progress=None, span_context=None):
        submitted = perf_counter()
        degraded = self.stats.degraded

        def note(done, result):
            self.landings.append(
                (perf_counter() - submitted, result.fingerprint, getattr(result, "origin", None))
            )
            if progress is not None:
                progress(done, result)

        try:
            return super().run_jobs(jobs, progress=note, span_context=span_context)
        finally:
            if self.stats.degraded > degraded:
                self.degraded_batches += 1


class TimedSerialExecutor(_Landings, SerialExecutor):
    def __init__(self) -> None:
        super().__init__(policy=RetryPolicy.from_env())
        self._init_landings()


class TimedRemoteExecutor(_Landings, RemoteExecutor):
    def __init__(self, url: str) -> None:
        super().__init__(url, policy=RetryPolicy.from_env())
        self._init_landings()


# -- campaign ------------------------------------------------------------------


class CampaignWorkload:
    """The Sec. 4.3 matrix, one ``repro campaign --seed s`` per round."""

    name = "campaign"
    seeds = CAMPAIGN_SEEDS
    #: Runs go through ``seeds`` in whole passes (see :meth:`begin_pass`).
    cycle = True
    warmup_seed = CAMPAIGN_WARMUP_SEED
    #: A round can be repeated with tracing on for the overhead ratio.
    repeatable = True

    def __init__(self, workdir: Path) -> None:
        self.workdir = Path(workdir)
        self.digests = checks.load_digests()["campaign"]
        self.registry: Optional[RunRegistry] = None
        self.trace_registry: Optional[RunRegistry] = None
        self.traced = False
        self.passes = 0

    def setup(self, *, traced: bool = False) -> List[Round]:
        """Set up and warm the first pass; returns the warm-up rounds."""
        self.traced = traced
        return self.begin_pass()

    def begin_pass(self) -> List[Round]:
        """Temp registry and one warm-up round; returns the warm-up rounds.

        Every pass through the seed pool starts on a fresh registry, so
        no pass finds blobs an earlier one wrote.  A traced run repeats
        each round seed with tracing on, so traced rounds get a registry
        of their own, warmed the same way.
        """
        self.passes += 1
        self.registry = RunRegistry(self.workdir / f"registry-{self.passes}")
        warmups = [self.run_round(self.warmup_seed)]
        if self.traced and self.repeatable:
            self.trace_registry = RunRegistry(self.workdir / f"registry-traced-{self.passes}")
            warmups.append(self.run_round(self.warmup_seed, traced=True))
        return warmups

    def close(self) -> None:
        reset_session()

    def executor(self):
        return TimedSerialExecutor()

    def matrix(self, seed: int) -> Tuple[list, List[int]]:
        """The round's jobs and the seed each one belongs to."""
        jobs = experiments.prevention_jobs(seed=seed)
        return jobs, [seed] * len(jobs)

    def _extra_counters(self) -> Dict[str, float]:
        return {}

    def run_round(self, seed: int, *, traced: bool = False) -> Round:
        registry = (traced and self.trace_registry) or self.registry
        writes_before = registry.store.stats.writes
        bytes_before = _dir_bytes(registry.store.objects_root)
        extra_before = self._extra_counters()
        started = perf_counter()
        executor = self.executor()
        session = set_session(
            EngineSession(executor=executor, cache=ResultCache.from_env(), registry=registry)
        )
        jobs, job_seeds = self.matrix(seed)
        outcomes = session.run_jobs(jobs)
        session.record_run()
        wall = perf_counter() - started

        result = Round(seed=seed, wall_s=wall, items=len(jobs), item_wall_s=wall)
        self._check_cells(result, jobs, job_seeds, outcomes)
        cells = {job.fingerprint() for job in jobs}
        for latency, fingerprint, origin in executor.landings:
            if fingerprint not in cells:
                continue
            if origin == protocol.ORIGIN_REMOTE_CACHE:
                result.dedup_latencies.append(latency)
            else:
                result.latencies.append(latency)
        result.attempted = len(jobs)
        result.failed += executor.degraded_batches
        counters: Dict[str, float] = dict(session.counters())
        counters["registry.objects_written"] = registry.store.stats.writes - writes_before
        counters["registry.bytes_written"] = (
            _dir_bytes(registry.store.objects_root) - bytes_before
        )
        counters["serve.degraded_batches"] = executor.degraded_batches
        for name, value in self._extra_counters().items():
            counters[name] = value - extra_before.get(name, 0)
        result.counters = counters
        return result

    def _check_cells(self, result: Round, jobs, job_seeds, outcomes) -> None:
        for job, seed, outcome in zip(jobs, job_seeds, outcomes):
            key = checks.cell_key(job)
            if isinstance(outcome, Quarantined):
                result.failed += 1
                result.problems.append(f"seed {seed} {key}: quarantined")
                continue
            problems = []
            expected = self.digests.get(str(seed), {}).get(key)
            if checks.sha256(checks.outcome_json(outcome)) != expected:
                problems.append(f"seed {seed} {key}: digest mismatch")
            if job.protected and outcome.faults_observed != 0:
                problems.append(f"seed {seed} {key}: protected cell faulted")
            result.failed += bool(problems)
            result.problems += problems


# -- fleet-campaign ------------------------------------------------------------


class FleetWorkload(CampaignWorkload):
    """The same matrix through a coordinator and one ``repro work`` agent.

    Each round submits the round seed's matrix together with the
    previous round's, so half the cells are dedup reads from the
    coordinator's store and half are executed by the worker.  Each pass
    through the seed pool gets a coordinator with an empty store on the
    same port, so the worker stays attached and no seed is served from
    an earlier pass.
    """

    name = "fleet-campaign"
    seeds = FLEET_SEEDS
    #: Repeating a seed within a pass would turn every cell into a dedup read.
    repeatable = False

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        #: Where a traced worker writes its spans when it is stopped.
        self.worker_spans = self.workdir / "worker-spans.json"
        self.coordinator: Optional[Coordinator] = None
        self.worker: Optional[subprocess.Popen] = None
        self.previous = self.warmup_seed

    def setup(self, *, traced: bool = False) -> List[Round]:
        self.coordinator = Coordinator(self.workdir / "store-1", port=0).start()
        command = [
            sys.executable,
            str(Path(__file__).resolve().with_name("fleet_worker.py")),
            "--coordinator",
            self.coordinator.url,
        ]
        if traced:
            command += ["--trace-out", str(self.worker_spans)]
        # The worker imports the same program and benchmark code as this process.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parent.parent), str(Path(__file__).resolve().parent)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        with open(self.workdir / "worker.log", "wb") as log:
            self.worker = subprocess.Popen(
                command, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT
            )
        deadline = time.monotonic() + 60.0
        while not self.coordinator.status_snapshot()["workers"]:
            if self.worker.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "fleet worker never attached; see "
                    f"{self.workdir / 'worker.log'}"
                )
            time.sleep(0.01)
        return super().setup(traced=traced)

    def begin_pass(self) -> List[Round]:
        if self.passes:
            port = self.coordinator.port
            self.coordinator.stop()
            self.coordinator = Coordinator(
                self.workdir / f"store-{self.passes + 1}", port=port
            ).start()
        # The warm-up seed is the first round's dedup half in every pass.
        self.previous = self.warmup_seed
        return super().begin_pass()

    def close(self) -> None:
        try:
            if self.worker is not None and self.worker.poll() is None:
                self.worker.terminate()
                try:
                    self.worker.wait(timeout=20.0)
                except subprocess.TimeoutExpired:
                    self.worker.kill()
                    self.worker.wait()
        finally:
            if self.coordinator is not None:
                self.coordinator.stop()
            super().close()

    def executor(self):
        return TimedRemoteExecutor(self.coordinator.url)

    def matrix(self, seed: int) -> Tuple[list, List[int]]:
        jobs = experiments.prevention_jobs(seed=seed)
        seeds = [seed] * len(jobs)
        if self.previous != seed:
            previous = experiments.prevention_jobs(seed=self.previous)
            jobs += previous
            seeds += [self.previous] * len(previous)
        self.previous = seed
        return jobs, seeds

    def _extra_counters(self) -> Dict[str, float]:
        registry = self.coordinator.registry
        return {
            name: registry.counter(name).value
            for name in ("serve.jobs.deduped", "serve.jobs.submitted")
        }


# -- explore-rsa512 ------------------------------------------------------------


class ExploreWorkload:
    """The open 512-bit explore map, then the protected map for the same plan."""

    name = "explore-rsa512"
    seeds = EXPLORE_SEEDS
    cycle = False
    warmup_seed = EXPLORE_WARMUP_SEED
    repeatable = True

    def __init__(self, workdir: Path) -> None:
        self.workdir = Path(workdir)
        self.digests = checks.load_digests()["explore"]

    def setup(self, *, traced: bool = False) -> List[Round]:
        return [self.run_round(self.warmup_seed)]

    def close(self) -> None:
        reset_session()

    def run_round(self, seed: int, *, traced: bool = False) -> Round:
        plan = explore_plan(seed)
        open_executor = TimedSerialExecutor()
        session = set_session(
            EngineSession(executor=open_executor, cache=ResultCache.from_env(), registry=None)
        )
        started = perf_counter()
        try:
            open_map = session.explore(plan)
        except ReproError as error:
            return self._failed(seed, started, f"open map: {error}")
        open_s = perf_counter() - started
        counters = dict(session.counters())

        protected_executor = TimedSerialExecutor()
        session = set_session(
            EngineSession(executor=protected_executor, cache=ResultCache.from_env(), registry=None)
        )
        protected_started = perf_counter()
        try:
            unsafe = session.characterize(EXPLORE_CPU, seed=plan.seed).unsafe_states
            protected_map = session.explore(
                dataclasses.replace(
                    plan,
                    protect=True,
                    unsafe_json=json.dumps(unsafe.to_dict(), sort_keys=True),
                )
            )
        except ReproError as error:
            return self._failed(seed, started, f"protected map: {error}")
        protected_s = perf_counter() - protected_started
        for name, value in session.counters().items():
            counters[name] = counters.get(name, 0) + value

        stats = open_map["stats"]
        result = Round(
            seed=seed,
            wall_s=open_s + protected_s,
            items=stats["injections_enumerated"],
            item_wall_s=open_s,
            latencies=[latency for latency, _fp, _origin in open_executor.landings],
        )
        result.attempted = len(open_executor.landings) + len(protected_executor.landings)
        digest = checks.sha256(canonical_json(open_map))
        if digest != self.digests.get(str(seed)):
            result.failed += 1
            result.problems.append(f"seed {seed}: open map digest mismatch")
        if not coverage_holds(open_map, protected_map):
            result.failed += 1
            result.problems.append(
                f"seed {seed}: protected map has "
                f"{protected_map['summary']['exploitable_points']} exploitable points"
            )
        enumerated = stats["points_enumerated"] + stats["injections_enumerated"]
        pruned = (
            stats["points_pruned_safe"]
            + stats["injections_pruned_masked"]
            + stats["injections_pruned_equivalent"]
        )
        counters["explore.prune_ratio"] = pruned / enumerated
        counters["explore.points_probed"] = stats["points_probed"]
        counters["explore.open_map_s"] = open_s
        counters["explore.protected_map_s"] = protected_s
        result.counters = counters
        return result

    @staticmethod
    def _failed(seed: int, started: float, problem: str) -> Round:
        wall = perf_counter() - started
        return Round(
            seed=seed, wall_s=wall, items=0, item_wall_s=wall,
            attempted=1, failed=1, problems=[problem],
        )


WORKLOADS = {
    CampaignWorkload.name: CampaignWorkload,
    FleetWorkload.name: FleetWorkload,
    ExploreWorkload.name: ExploreWorkload,
}
