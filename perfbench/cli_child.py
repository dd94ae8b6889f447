"""Traced stand-in for ``python -m ghzgraphs``.

Runs ``ghzgraphs.cli.main`` on its arguments with stdout untouched and
writes, as the last line of stderr, a JSON object with the seconds spent
importing ``ghzgraphs.cli`` and inside ``main``.
"""

import sys
import time

t0 = time.perf_counter()
from ghzgraphs import cli  # noqa: E402  (the import is what is timed)

t1 = time.perf_counter()
code = cli.main(sys.argv[1:])
sys.stdout.flush()
t2 = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"import_s": t1 - t0, "command_s": t2 - t1}), file=sys.stderr)
sys.exit(code)
