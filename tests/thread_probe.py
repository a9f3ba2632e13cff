"""Threads that run identity checks at different precisions get the bytes of
a serial run.

    PYTHONPATH=src python tests/thread_probe.py --seconds 3

For each of recurrence-chains, half-to-full-lattice and product-chain in
turn, one thread at 256 bits and one at 1024 loop run_suite("0.7", ctx,
only=[id]) for the given seconds, and each compares the JSON of each run
with what the same call gave before any thread started.  A function that set
mpmath's global precision would hand the other thread's arithmetic its
precision when its block exits.  Prints the runs and the differing runs of
each id and precision, and exits 1 when any run differs.
"""
from __future__ import annotations

import argparse
import json
import sys
import threading
import time

from qortho import PrecisionContext, run_suite


def _bytes(q: str, ctx: PrecisionContext, identity_id: str) -> str:
    return json.dumps([r.to_dict(ctx.digits) for r in run_suite(q, ctx, only=[identity_id])])


def probe(identity_id: str, q: str, bits: list[int], seconds: float) -> list[tuple[int, int]]:
    """[(runs, differing runs)] of one thread per entry of bits, each
    looping the check for `seconds` against its serial bytes."""
    # tol 2^-200 at 256 bits, the CLI's default, and 2^-800 at 1024
    contexts = [PrecisionContext.create(bits=b, tol_exp=200 * b // 256) for b in bits]
    serial = [_bytes(q, ctx, identity_id) for ctx in contexts]
    counts = [[0, 0] for _ in contexts]
    stop = time.monotonic() + seconds

    def loop(i: int) -> None:
        while time.monotonic() < stop:
            differs = _bytes(q, contexts[i], identity_id) != serial[i]
            counts[i][0] += 1
            counts[i][1] += differs

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(contexts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)   # switch threads often, so the checks interleave
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 600)
    finally:
        sys.setswitchinterval(interval)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a probe thread did not finish")
    return [tuple(c) for c in counts]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=3.0, help="per id")
    args = parser.parse_args(argv)
    bits, differing = [256, 1024], 0
    for identity_id in ("recurrence-chains", "half-to-full-lattice", "product-chain"):
        for b, (runs, bad) in zip(bits, probe(identity_id, "0.7", bits, args.seconds)):
            print("%-32s %5d bits: %6d runs, %6d differ from the serial bytes"
                  % (identity_id, b, runs, bad))
            differing += bad
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
