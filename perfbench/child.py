"""One measured workload process (started by ``run.py``).

Prints ``READY`` as soon as the workload can submit its first timed job
(the parent times launch -> ``READY`` as the set-up time), then runs
rounds and prints one ``RESULT <json>`` line.  With ``--setup-only`` it
exits after ``READY``.

Untraced (``--trace 0``): rounds run on the workload's round seeds until
``--seconds`` have passed and at least :data:`MIN_LATENCY_SAMPLES`
latencies were taken; a cycling workload then finishes its pass.
Traced (``--trace 1``): each round seed runs once untraced and once
traced (fleet-campaign alternates instead, since its store would serve
a repeated seed from dedup), the traced rounds feed the per-layer
metrics, and the spans are written as a Chrome trace.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (listed in .gitignore).
WORK_ROOT = ROOT / ".perfbench"

#: Enough latency samples that ten lie beyond the p90.
MIN_LATENCY_SAMPLES = 100


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(rounds) -> dict:
    latencies = [latency for r in rounds for latency in r.latencies]
    return {
        "throughput_per_s": sum(r.items for r in rounds) / sum(r.item_wall_s for r in rounds),
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_p90_s": percentile(latencies, 0.9),
        "round_s": statistics.median(r.wall_s for r in rounds),
        "samples": {"rounds": len(rounds), "latencies": len(latencies)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    started = perf_counter()
    import repro.cli  # noqa: F401  (the CLI's import cost is part of set-up)

    import_s = perf_counter() - started
    # As `repro --log-level error`: the countermeasure logs every
    # remediation as a warning, thousands per round.
    logging.getLogger("repro").setLevel(logging.ERROR)

    import workloads
    from perlayer import Probes, round_metrics, summarize
    from tracer import Tracer, chrome_events, write_chrome_trace

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    traced = bool(args.trace)
    trace_path = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer = probes = None
    if traced:
        tracer = Tracer()
        probes = Probes(tracer)
    workload = workloads.WORKLOADS[args.workload](workdir)
    worker_spans = getattr(workload, "worker_spans", None)
    warmups, rounds, baseline, traced_rounds, round_values, probed = [], [], [], [], [], []

    def run_traced(seed: int) -> None:
        tracer.round_label = f"round-{seed}"
        first = len(tracer.spans)
        tracer.install()
        try:
            result = workload.run_round(seed, traced=True)
        finally:
            tracer.uninstall()
        counts = dict(tracer.counts)
        tracer.counts.clear()
        collected = probes.reset()
        traced_rounds.append(result)
        probed.append(collected)
        round_values.append(
            round_metrics(tracer.completed(first), counts, collected, main_thread, result.wall_s)
        )

    try:
        warmups = workload.setup(traced=traced)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        deadline = perf_counter() + args.seconds
        main_thread = threading.get_ident()
        seeds = workloads.round_seeds(workload.seeds, args.seed)

        def finished() -> bool:
            if perf_counter() < deadline:
                return False
            if traced:
                return bool(traced_rounds)
            return sum(len(r.latencies) for r in rounds) >= MIN_LATENCY_SAMPLES

        index = 0
        while True:
            if index:
                warmups += workload.begin_pass()
            for seed in seeds:
                if not traced:
                    rounds.append(workload.run_round(seed))
                else:
                    # Untraced and traced rounds pair up on one seed; where a
                    # repeat would be served from dedup they alternate.
                    if workload.repeatable or index % 2 == 0:
                        baseline.append(workload.run_round(seed))
                    if workload.repeatable or index % 2 == 1:
                        run_traced(seed)
                index += 1
                # Timed rounds end only with a whole pass of a cycling
                # workload, so every run covers its seeds equally often.
                if (traced or not workload.cycle) and finished():
                    break
            if finished() or not workload.cycle:
                break
    finally:
        workload.close()
        worker = (
            json.loads(worker_spans.read_text())
            if worker_spans is not None and worker_spans.exists()
            else None
        )
        shutil.rmtree(workdir, ignore_errors=True)

    # Warm-up outputs are checked too; only their timing is left out.
    everything = warmups + rounds + baseline + traced_rounds
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    report = {
        "attempted": attempted,
        "failed": failed,
        "problems": [problem for r in everything for problem in r.problems],
        "peak_rss_mb": peak_rss_mb(),
    }
    if traced:
        report["per_layer"] = summarize(
            traced_rounds,
            round_values,
            probed,
            untraced_wall_s=statistics.mean(r.wall_s for r in baseline),
            import_s=import_s,
            attempted=attempted,
            failed=failed,
        )
        events = chrome_events(tracer.spans, pid=os.getpid(), origin=started)
        if worker is not None:
            events += chrome_events(worker["spans"], pid=worker["pid"], origin=started)
        report["trace"] = str(write_chrome_trace(trace_path, events))
    else:
        report["end_to_end"] = end_to_end(rounds)
    print("RESULT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
