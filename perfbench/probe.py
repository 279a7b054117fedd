"""Set-up probe: import soficlab, load and validate the given configs, print "ready".

Usage: python3 perfbench/probe.py <repository root> [config.json ...]
The benchmark times this process from launch to the "ready" line.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(sys.argv[1]) / "src"))

from soficlab.cli import main  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    for config in sys.argv[2:]:
        if main(["validate", config]) != 0:
            sys.exit(1)
print("ready", flush=True)
