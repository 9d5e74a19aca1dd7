"""``repro-worker`` with its lease and result-push round trips timed.

Usage: ``python3 traced_worker.py OUT.json <repro-worker arguments>``.
Runs the worker's own ``main`` with ``ReproClient.lease`` (granted leases
only) and ``ReproClient.push_result`` wrapped, and on SIGTERM writes
``{"lease": [seconds, ...], "push": [seconds, ...]}`` to ``OUT.json``.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from typing import Any, Callable, Dict, List


def main() -> int:
    out_path, worker_args = sys.argv[1], sys.argv[2:]
    from repro.server import worker
    from repro.server.client import ReproClient

    rtts: Dict[str, List[float]] = {"lease": [], "push": []}

    def timed(name: str, method: Callable[..., Any]) -> Callable[..., Any]:
        def call(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            result = method(*args, **kwargs)
            if result is not None:  # an empty lease poll is not a round trip of the job
                rtts[name].append(time.perf_counter() - started)
            return result

        return call

    ReproClient.lease = timed("lease", ReproClient.lease)
    ReproClient.push_result = timed("push", ReproClient.push_result)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        return worker.main(worker_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(rtts, handle)


if __name__ == "__main__":
    sys.exit(main())
