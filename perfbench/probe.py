"""Set-up probe: a fresh interpreter imports chirpqfi.cli and runs one scenario.

    python3 probe.py <src> <cli argv...>

Imports nothing of its own before chirpqfi, so ``python3 -X importtime``
attributes every module to the chirpqfi layer that first needs it.  Prints
one JSON line; ``ready`` is ``time.perf_counter()`` after the warm-up
scenario, on the CLOCK_MONOTONIC time base that the parent shares.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import chirpqfi.cli  # noqa: E402

t1 = time.perf_counter()
rc = chirpqfi.cli.main(sys.argv[2:])
t2 = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"ready": t2, "import_s": t1 - t0, "warmup_s": t2 - t1, "rc": rc}))
