"""Self-tests of the benchmark: ``PYTHONPATH=src python3 -m pytest perfbench/tests``."""

import logging
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]
logging.getLogger("repro").setLevel(logging.ERROR)
