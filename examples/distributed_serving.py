#!/usr/bin/env python3
"""Distributed serving: the same session in-process, on threads, and as
separate OS processes — with byte-identical releases.

The `repro.net` node layer splits ΠBin into its real deployment roles: a
client population submitting wire-encoded enrollments, K prover servers,
and an analyst front-end driving the unchanged protocol engine over a
transport.  Under a seeded RNG every substrate produces the *same bytes*
— the protocol is the protocol, only the plumbing changes.

Run:  python examples/distributed_serving.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import CountQuery, Session  # noqa: E402
from repro.crypto.serialization import decode_message, encode_message  # noqa: E402
from repro.net.serve import run_distributed_session  # noqa: E402
from repro.utils.rng import SeededRNG  # noqa: E402

SEED = "distributed-example"
VALUES = [1, 0, 1, 1, 0, 1, 0, 1]  # five opted in


def main() -> None:
    # The reference: an ordinary in-process session.
    session = Session(
        CountQuery(epsilon=1.0, delta=2**-10),
        num_provers=2,
        group="p64-sim",
        nb_override=32,
        rng=SeededRNG(SEED),
    )
    session.submit(VALUES)
    reference = session.release().release
    reference_bytes = encode_message(reference)
    print(f"in-process release:   estimate={reference.estimate[0]:+.1f}, "
          f"{len(reference_bytes)} wire bytes")

    # The same session as communicating nodes, two substrates.
    for transport in ("memory", "multiprocess"):
        outcome = run_distributed_session(
            CountQuery(epsilon=1.0, delta=2**-10),
            VALUES,
            transport=transport,
            num_servers=2,
            group="p64-sim",
            nb_override=32,
            seed=SEED,
            verify_equivalence=False,
        )
        distributed_bytes = encode_message(outcome["release"])
        match = distributed_bytes == reference_bytes
        print(f"{transport:12s} release: estimate={outcome['estimate'][0]:+.1f}, "
              f"front-end traffic {outcome['frontend_bytes_received']}B in / "
              f"{outcome['frontend_bytes_sent']}B out, byte-identical={match}")
        assert match, f"{transport} release diverged from the in-process path"

    # The release frame itself is a public, self-describing artifact: any
    # third party can decode it and re-read the audit record.
    replayed = decode_message(session.params.group, reference_bytes)
    assert replayed == reference
    assert replayed.audit.all_provers_honest()
    print("release frame decodes identically; audit: all provers honest")


if __name__ == "__main__":
    main()
