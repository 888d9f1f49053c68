"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {campaign,fleet-campaign,explore-rsa512} \\
        --seed N --seconds S --trace {0,1}

Runs from the root of a checkout (it builds nothing: the program is the
pure-Python package under ``src/``).  ``--trace 0`` measures the
end-to-end metrics with tracing off: three fresh interpreters set the
workload up (the median launch-to-ready time is ``setup_s``) and the
last one runs timed rounds for ``--seconds``.  ``--trace 1`` runs the
per-layer breakdown instead (see ``child.py``) and writes a Chrome
trace under ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
are a human-readable table with sample counts.  The exit code is 0 only
if every round's outputs matched the committed digests and the paper's
claims (protected cells fault-free, protected explore map at 0).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "fleet-campaign", "explore-rsa512")
#: Launches per untraced run whose set-up time is measured.
SETUP_SAMPLES = 3
#: Every run must end well inside three minutes.
BUDGET_S = 170.0

class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    """The program's environment: ``src`` importable, no ``REPRO_*`` overrides."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def launch(args, deadline: float, *, setup_only: bool) -> tuple:
    """Run one child; returns (launch-to-READY seconds, RESULT dict or None)."""
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    lines = []
    started = perf_counter()
    # Its own process group, so a stuck child goes down with its worker.
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )

    def read() -> None:
        for line in proc.stdout:
            lines.append((perf_counter(), line.rstrip("\n")))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        code = proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise ChildFailed(f"{args.workload} did not finish within the time budget")
    finally:
        reader.join(timeout=10.0)
    ready = [stamp for stamp, line in lines if line == "READY"]
    results = [line[len("RESULT "):] for _stamp, line in lines if line.startswith("RESULT ")]
    if code != 0 or not ready or (not setup_only and not results):
        raise ChildFailed(f"{args.workload} child exited with code {code}")
    return ready[0] - started, (json.loads(results[-1]) if results else None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = perf_counter() + BUDGET_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(launch(args, deadline, setup_only=True)[0])
        setup_s, report = launch(args, deadline, setup_only=False)
        setups.append(setup_s)
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3

    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = report["per_layer"]
        print(f"{args.workload} per-layer (traced rounds; Chrome trace: {report['trace']})")
    else:
        e2e = report["end_to_end"]
        values = {name: e2e[name] for name in ("throughput_per_s", "latency_p50_s", "latency_p90_s", "round_s")}
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = own_rss_mb + report["peak_rss_mb"]
        samples = e2e["samples"]
        print(
            f"{args.workload} seed {args.seed}: {samples['rounds']} rounds, "
            f"{samples['latencies']} latency samples, {len(setups)} set-ups"
        )
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")
    correct = not report["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in values.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
