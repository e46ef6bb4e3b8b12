"""Set-up of one workload in a fresh interpreter, for ``setup_s``.

Usage: python3 perfbench/setup_probe.py <workload>

Imports the package and the workload, runs its warm-up, then prints
``ready``.  The parent times process start to that line.
"""

import importlib
import sys

from common import use_source_tree
from workloads import MODULES

use_source_tree()
importlib.import_module(MODULES[sys.argv[1]]).warm_up()
print("ready", flush=True)
