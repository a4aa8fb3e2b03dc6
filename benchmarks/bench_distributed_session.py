#!/usr/bin/env python3
"""Distributed serving: end-to-end node runs.

Runs the full 2-server multi-client session (K = 2 provers, p128-sim —
identical code paths to production groups) as separate OS processes
over both ``MultiprocessTransport`` and ``SocketTransport`` and records
wall time, exact front-end wire bytes and the
byte-identical-to-in-process check.  Emits ``BENCH_distributed.json``.

Sharded verification (``ShardWorker``) is measured by
``benchmarks/bench_sharded_session.py``.

Usage:
    python benchmarks/bench_distributed_session.py          # nb = 512
    REPRO_DIST_NB=1024 python benchmarks/bench_distributed_session.py
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api.queries import CountQuery  # noqa: E402
from repro.bench.format import print_table  # noqa: E402
from repro.bench.runner import write_bench_json  # noqa: E402
from repro.net.serve import run_distributed_session  # noqa: E402

GROUP = "p128-sim"


def bench_end_to_end(nb: int) -> list[dict]:
    query = CountQuery(epsilon=1.0, delta=2**-10)
    values = [i % 2 for i in range(8)]
    rows = []
    for transport in ("multiprocess", "socket"):
        outcome = run_distributed_session(
            query,
            values,
            transport=transport,
            num_servers=2,
            group=GROUP,
            nb_override=nb,
            seed="bench-e2e",
        )
        rows.append(
            {
                "axis": "end-to-end",
                "mode": transport,
                "nb": outcome["nb"],
                "provers": outcome["num_servers"],
                "group": GROUP,
                "cpu_count": os.cpu_count() or 1,
                "seconds": outcome["elapsed_s"],
                "accepted": outcome["accepted"],
                "byte_identical": outcome["byte_identical"],
                "frontend_bytes_sent": outcome["frontend_bytes_sent"],
                "frontend_bytes_received": outcome["frontend_bytes_received"],
            }
        )
    return rows


def main() -> int:
    rows = bench_end_to_end(int(os.environ.get("REPRO_DIST_NB", "512")))
    write_bench_json("distributed", rows)
    print_table(rows, title="== end-to-end distributed sessions ==")
    if not all(row["byte_identical"] for row in rows):
        print("FAIL: distributed release not byte-identical", file=sys.stderr)
        return 1
    print("OK: distributed releases byte-identical to in-process Session")
    return 0


if __name__ == "__main__":
    sys.exit(main())
