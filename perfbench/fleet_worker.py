"""Fleet worker of the ``fleet-campaign`` workload.

Runs exactly what ``repro work --coordinator URL`` runs (a
:class:`~repro.serve.WorkerAgent` with the default capacity), optionally
under the benchmark's span wrappers.  SIGTERM ends it; with
``--trace-out`` the recorded spans are written there on the way out.

    PYTHONPATH=src python3 perfbench/fleet_worker.py --coordinator URL [--trace-out PATH]
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--coordinator", required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    from repro.serve import WorkerAgent

    from tracer import Tracer

    logging.getLogger("repro").setLevel(logging.ERROR)
    tracer = Tracer().install() if args.trace_out is not None else None
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        WorkerAgent(args.coordinator).run()
    except SystemExit:
        pass
    finally:
        if tracer is not None:
            tracer.enabled = False
            args.trace_out.write_text(
                json.dumps({"pid": os.getpid(), "spans": tracer.spans})
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
