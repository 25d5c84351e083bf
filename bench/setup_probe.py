"""Set-up time of one fresh interpreter: import polyassoc, finish one warm-up request.

Usage: python3 setup_probe.py SRC_DIR ARGV_JSON
Prints the elapsed seconds and the median time of the speed probe run right
after it; exits 1 if the warm-up request fails.
"""

import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from polyassoc.cli import main  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[2]))
elapsed = time.perf_counter() - t0

import speed  # noqa: E402  (imported after the timed part)

probes = sorted(speed.probe() for _ in range(5))
print(repr(elapsed), repr(probes[2]))
sys.exit(1 if code else 0)
