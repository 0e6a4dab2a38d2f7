"""Cold-start probe for setup_s: import einext, build one workload's inputs, print "ready".

Usage: python3 perfbench/probe.py <workload> <seed>   (run from the checkout root)
"""

import sys
from pathlib import Path

root = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(root / "src"))

import einext  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), root)
sys.stdout.write("ready\n")
sys.stdout.flush()
