"""A fresh process that stops at its first simulated interaction.

Usage: ``python3 setup_probe.py PROTOCOL N SEED``.  Imports the program,
builds the protocol and its predicate, runs ``simulate`` for a single
interaction and prints ``time.monotonic()`` (a system-wide clock), so the
parent can time process start to first interaction.
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    protocol, n, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    from repro.engine.simulator import simulate
    from repro.experiments.registry import resolve_protocol

    entry = resolve_protocol(protocol)
    simulate(
        entry.build(n, {}),
        n,
        seed=seed,
        backend="batch",
        convergence=entry.convergence(n, {}),
        max_interactions=1,
    )
    print(time.monotonic(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
