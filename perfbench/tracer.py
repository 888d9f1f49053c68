"""Span wrappers around the public entry points of the ``src/repro`` layers.

The benchmark owns these wrappers; the program is not modified.  A
:class:`Tracer` patches each boundary listed in :data:`BOUNDARIES` (the
defining module, plus every loaded ``repro`` module that bound the same
object by name), records one span per call in memory, and restores the
originals on :meth:`Tracer.uninstall`.  Boundaries are placed where a
layer hands work to another, never on per-word arithmetic such as
``gmul`` or ``modmul``; the one per-block function counted here
(``_encrypt_with_schedule``) is counted, not timed.

A span records its name, layer, start, end, parent and the id of the
cell it belongs to (the job fingerprint prefix of the enclosing
``execute_job`` call, else the round label).  Self time is a span's
duration minus the time its direct child spans cover; the per-thread
span stack makes that exact within one thread.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path) of every timed boundary.  The layer is
#: the ``src/repro`` package the code lives in; attack entry points are
#: split per attack so each attack's self time is visible.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("experiments", "repro.experiments", "prevention_jobs"),
    ("engine", "repro.engine.session", "EngineSession.run_jobs"),
    ("engine", "repro.engine.session", "EngineSession.characterize"),
    ("engine", "repro.engine.session", "EngineSession.explore"),
    ("engine", "repro.engine.jobs", "execute_job"),
    ("registry", "repro.registry.registry", "RunRegistry.stage_result"),
    ("registry", "repro.registry.registry", "RunRegistry.record_run"),
    ("registry", "repro.registry.registry", "RunRegistry.record_spans"),
    ("serve", "repro.serve.client", "RemoteExecutor.run_jobs"),
    ("serve", "repro.serve.client", "Transport.request"),
    ("serve.handler", "repro.serve.coordinator", "Coordinator.handle_submit"),
    ("serve.handler", "repro.serve.coordinator", "Coordinator.handle_lease"),
    ("serve.handler", "repro.serve.coordinator", "Coordinator.handle_heartbeat"),
    ("serve.handler", "repro.serve.coordinator", "Coordinator.handle_collect"),
    ("serve.handler", "repro.serve.coordinator", "Coordinator.handle_result"),
    ("serve.store", "repro.serve.store", "ResultStore.put"),
    ("serve.store", "repro.serve.store", "ResultStore.get"),
    ("attacks.imul", "repro.attacks.plundervolt", "ImulCampaign.mount"),
    ("attacks.plundervolt", "repro.attacks.plundervolt", "PlundervoltAttack.mount"),
    ("attacks.v0ltpwn", "repro.attacks.v0ltpwn", "V0ltpwnAttack.mount"),
    ("attacks.aes", "repro.attacks.aes_dfa", "AESDFAAttack.mount"),
    ("attacks.rsa", "repro.attacks.rsa_crt", "RSAKey.generate"),
    ("attacks.rsa", "repro.attacks.rsa_crt", "RSACRTSigner.sign"),
    ("attacks.rsa", "repro.attacks.rsa_crt", "bellcore_extract"),
    ("sgx", "repro.sgx.enclave", "Enclave.ecall"),
    ("explore", "repro.explore.runner", "run_explore"),
    ("explore", "repro.explore.victim", "trace_victim"),
    ("explore", "repro.explore.victim", "replay_with_fault"),
    ("explore", "repro.explore.plan", "prune_points"),
    ("explore", "repro.explore.plan", "enumerate_injections"),
    ("explore", "repro.explore.emap", "build_map"),
    ("faults", "repro.faults.alu", "BigIntALU.modexp"),
    ("faults", "repro.faults.imul", "ImulLoop.run"),
    ("faults", "repro.faults.workloads", "InstructionWorkload.execute"),
    ("core", "repro.core.characterization", "CharacterizationFramework.run_row"),
    ("core", "repro.core.characterization", "CharacterizationFramework.run_row_batch"),
    ("kernel", "repro.kernel.sim", "Simulator.run_until"),
    ("kernel", "repro.kernel.sim", "Simulator.run"),
    ("kernel", "repro.kernel.sim", "Simulator.run_while"),
    ("vector", "repro.vector.characterization", "run_row_batch"),
    ("vector", "repro.vector.kernels", "explore_feasibility_grid"),
)

#: Calls counted without a span: (counter name, module, attribute path).
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("attacks.aes.encryptions", "repro.attacks.aes", "_encrypt_with_schedule"),
)

#: Layers whose spans run on the coordinator's request threads.  They
#: overlap the client thread's wait, so they are reported apart and left
#: out of the self-time sum that accounts for the client's wall time.
OFF_THREAD_LAYERS = ("serve.handler", "serve.store")

#: The span that starts a new cell id for everything beneath it.
CELL_BOUNDARY = "execute_job"

#: Span record layout: (name, layer, start, end, self, parent, cell, thread).
Span = Tuple[str, str, float, float, float, int, str, int]


class _Frame:
    __slots__ = ("index", "children", "cell")

    def __init__(self, index: int, cell: str) -> None:
        self.index = index
        self.children = 0.0
        self.cell = cell


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    ``delays`` (layer -> seconds) sleeps inside every span of that layer;
    the self-tests use it to check that an injected cost lands in that
    layer's self time and nowhere else.  ``observers`` (span name ->
    callbacks) see each call's ``(args, kwargs, result)`` after its span
    has ended, for measurements a span alone cannot give.
    """

    def __init__(self, *, delays: Optional[Dict[str, float]] = None) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.delays = dict(delays or {})
        self.observers: Dict[str, List[Callable]] = defaultdict(list)
        self.enabled = False
        self.round_label = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, layer: str, func: Callable) -> Callable:
        tracer = self
        delay = self.delays.get(layer, 0.0)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            cell = parent.cell if parent is not None else tracer.round_label
            if name == CELL_BOUNDARY:
                cell = (args[0] if args else kwargs["job"]).fingerprint()[:12]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)  # reserved; filled on exit
            frame = _Frame(index, cell)
            stack.append(frame)
            start = time.perf_counter()
            try:
                if delay:
                    time.sleep(delay)
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent.children += duration
                tracer.spans[index] = (
                    name,
                    layer,
                    start,
                    end,
                    duration - frame.children,
                    parent.index if parent is not None else -1,
                    cell,
                    threading.get_ident(),
                )
            for observer in tracer.observers.get(name, ()):
                observer(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _counter(self, name: str, func: Callable) -> Callable:
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts[name] += 1
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    # -- patching --------------------------------------------------------------

    def _patch(self, module_name: str, path: str, make: Callable) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)
        if owner_name:
            return
        # Module-level functions are also bound by name in the modules
        # (and package namespaces) that imported them.
        for other in list(sys.modules.values()):
            if other is module or not getattr(other, "__name__", "").startswith("repro"):
                continue
            if other.__dict__.get(attr) is raw:
                self._patches.append((other, attr, raw))
                setattr(other, attr, replacement)

    def install(self) -> "Tracer":
        """Patch every boundary (idempotent per tracer)."""
        if self._patches:
            return self
        for layer, module_name, path in BOUNDARIES:
            self._patch(
                module_name,
                path,
                lambda func, name=path, layer=layer: self._span(name, layer, func),
            )
        for counter, module_name, path in COUNTED:
            self._patch(
                module_name, path, lambda func, counter=counter: self._counter(counter, func)
            )
        self.enabled = True
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        self.enabled = False
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- reading ---------------------------------------------------------------

    def completed(self, since: int = 0) -> List[Span]:
        """Finished spans recorded at or after index ``since``."""
        return [span for span in self.spans[since:] if span is not None]


def chrome_events(spans, *, pid: int, origin: float) -> List[Dict[str, Any]]:
    """Spans (as :attr:`Tracer.spans` holds them) as Chrome trace events.

    ``origin`` is a ``perf_counter`` reading; it is the system-wide
    monotonic clock on Linux, so spans of several processes share it.
    """
    events = []
    for index, span in enumerate(spans):
        if span is None:  # still open when the run ended
            continue
        name, layer, start, end, _self, parent, cell, thread = span
        events.append(
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": thread,
                "args": {"span": index, "parent": parent, "cell": cell},
            }
        )
    return events


def layer_self_times(spans: List[Span], thread: int) -> Dict[str, float]:
    """Self seconds per layer over the spans one thread recorded."""
    totals: Dict[str, float] = defaultdict(float)
    for name, layer, _start, _end, self_s, _parent, _cell, tid in spans:
        if tid == thread and layer not in OFF_THREAD_LAYERS:
            totals[layer] += self_s
    return dict(totals)


def inclusive_times(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Inclusive seconds and call counts per span name."""
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for name, _layer, start, end, *_rest in spans:
        seconds[name] += end - start
        calls[name] += 1
    return dict(seconds), dict(calls)


def write_chrome_trace(path: Path, events: List[Dict[str, Any]]) -> Path:
    """Write ``events`` as one Chrome trace file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    tmp.replace(path)
    return path
