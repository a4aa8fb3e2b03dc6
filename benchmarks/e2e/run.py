#!/usr/bin/env python3
"""The end-to-end benchmark declared in ``BENCHMARK.json``.

    python benchmarks/e2e/run.py --seed bench                 # all workloads, tracing off
    python benchmarks/e2e/run.py --seed bench --trace 1       # the per-layer pass
    python benchmarks/e2e/run.py --workload curve-release --seed 7 --seconds 10 --trace 0
    python benchmarks/e2e/run.py --sets 2                     # repeatability check
    python benchmarks/e2e/run.py --compare out/set1 out/set2

One workload runs in this process through four stages — generate (inputs
from the seed), set-up (timed: import ``repro``, build parameters, start
services, one warm-up op), measure (ops until ``--seconds`` elapsed) and
check (untimed) — prints every metric as ``workload metric value unit``
and, as its last line of output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Several workloads each run in
a fresh subprocess of this same command.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DEFAULT_SEED = "bench"
SETUP_SAMPLES = 5  # this process's own set-up plus fresh subprocesses
FLEET_PULSE_S = 0.3  # fleet-closed: period of the client probe's timer thread
MAX_OP_ERRORS = 5  # stop a measured region whose ops keep raising
# End-to-end metrics that are counts of bytes: they repeat exactly under
# a seed (fleet reply lines carry float timings, so not there).
EXACT_COUNTS = ("wire_bytes_per_session", "client_upload_bytes")


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def host_metadata() -> dict:
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1min": load1,
        "noisy_host": load1 > nproc / 2,
    }


# Host-speed yardstick ---------------------------------------------------------
#
# This host is a shared VM: steal time and cache/SMT contention come and
# go in phases of seconds to minutes and slow *everything* by up to 2x,
# which no amount of sampling inside one run averages out.  Where ops run
# one after another, every timed sample is therefore scaled by how fast
# the host ran a fixed reference kernel just before and after it:
# reported seconds are wall seconds on a host that runs the kernel in
# exactly REFERENCE_NOMINAL_S (what a quiet host of this class takes).
# The kernel is the kind of work the program does — big-integer modular
# arithmetic and SHA-512 — and never changes, so it measures the host,
# not the program.  Raw samples and scale factors are both kept in --out.

REFERENCE_NOMINAL_S = 0.010
_REFERENCE_MODULUS = (1 << 255) - 19
_REFERENCE_BLOCK = b"\x5a" * 4096


def reference_kernel() -> float:
    """Seconds this host takes for the fixed yardstick work, now."""
    start = time.perf_counter()
    x = 3
    for _ in range(12000):
        x = (x * x + 12345) % _REFERENCE_MODULUS
    digest = hashlib.sha512()
    for _ in range(600):
        digest.update(_REFERENCE_BLOCK)
    digest.digest()
    return time.perf_counter() - start


def host_scale(samples: int = 5) -> float:
    """Factor that turns seconds measured now into reported seconds."""
    return REFERENCE_NOMINAL_S / typical([reference_kernel() for _ in range(samples)])


# Process accounting -----------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _live_cpu(pid: int) -> float:
    """user+sys seconds of a running child, threads included."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def cpu_seconds(pids) -> tuple[float, float]:
    """(this process, its children): reaped children from rusage, the
    still-running ones in ``pids`` from /proc."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime,
        reaped.ru_utime + reaped.ru_stime + sum(_live_cpu(pid) for pid in pids),
    )


def peak_rss_mb(pids) -> float:
    """Largest resident set of this process, any reaped child, or any
    running child in ``pids`` (ru_maxrss and VmHWM are both in KiB)."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            pass
    return peak / 1024.0


# Stages -----------------------------------------------------------------------


def do_setup(name: str, seed: str, smoke: bool):
    """The timed set-up stage; returns (workload, {"raw_s", "scale"}).
    ``repro`` is first imported here, by ``workloads``."""
    start = time.perf_counter()
    import workloads

    workload = workloads.build(name, seed, smoke)
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise
    raw = time.perf_counter() - start
    return workload, {"raw_s": raw, "scale": host_scale()}


def fresh_setup(name: str, seed: str, smoke: bool) -> dict:
    """Set-up sample of a fresh interpreter (``--setup-only`` subprocess)."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name, "--seed", seed]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_region(workload, seconds: float, tracer=None, first: int = 0) -> dict:
    """Run ops for ``seconds`` (at least one); returns the raw region.

    One honest client's ``submit`` is timed between ops, so the
    client-cost samples are spread over the same seconds as the ops.
    """
    pids = workload.live_pids()
    cpu_before = cpu_seconds(pids)
    start = time.perf_counter()
    region = {
        "latencies": [], "scales": [], "busy_s": 0.0, "cpu": [], "probe": [], "probe_scales": [],
        "records": [], "errors": [], "ledgers": [], "counters": [], "spans": None,
    }
    if workload.spec.kind == "fleet":
        # Ops overlap and keep both cores busy: there is no gap to run
        # the yardstick in and no single op it would belong to, and run
        # beside the region it times its own wait for a core.  So this
        # workload reports raw seconds (measured: lower quartiles steadier
        # raw than scaled by a yardstick before, after or beside the
        # region).  The client probe runs on a timer thread (~0.1 % duty),
        # so its samples are spread over the same seconds as the ops.
        stop = threading.Event()

        def pulse() -> None:
            for index in itertools.count():
                region["probe"].append(workload.probe_client(index))
                region["probe_scales"].append(1.0)
                if stop.wait(FLEET_PULSE_S):
                    return

        timer = threading.Thread(target=pulse, name="client-probe")
        gateway_before = workload.gateway_counters()
        timer.start()
        try:
            samples = workload.run(seconds=seconds, first=first)
        finally:
            stop.set()
            timer.join()
        gateway_after = workload.gateway_counters()
        region["gateway"] = {key: gateway_after[key] - gateway_before[key] for key in gateway_after}
        region["records"] = samples
        region["latencies"] = [sample["end"] - sample["start"] for sample in samples]
        region["scales"] = [1.0] * len(samples)
        if samples:  # busy from the first send to the last reply
            region["busy_s"] = max(sample["end"] for sample in samples) - min(
                sample["start"] for sample in samples
            )
    else:
        deadline = start + seconds
        index = first
        yard_before = reference_kernel()
        while True:
            if tracer is not None:
                tracer.begin_op()
            own_before = sum(cpu_seconds(()))
            try:
                elapsed, record = workload.op(index)
            except Exception:  # an op that raises is a failed op, not a crashed benchmark
                region["errors"].append(traceback.format_exc())
                if tracer is not None:
                    tracer.end_op()
                if len(region["errors"]) >= MAX_OP_ERRORS:
                    break
            else:
                own = sum(cpu_seconds(())) - own_before
                if tracer is not None:
                    ledger, counters, spans = tracer.end_op()
                    region["ledgers"].append(ledger)
                    region["counters"].append(counters)
                    if region["spans"] is None:
                        region["spans"] = spans
                yard_after = reference_kernel()
                scale = REFERENCE_NOMINAL_S / ((yard_before + yard_after) / 2)
                region["busy_s"] += elapsed * scale
                region["latencies"].append(elapsed)
                region["scales"].append(scale)
                region["cpu"].append(own)
                region["records"].append(record)
                region["probe"].append(workload.probe_client(index))
                region["probe_scales"].append(REFERENCE_NOMINAL_S / yard_after)
                yard_before = yard_after
            index += 1
            if time.perf_counter() >= deadline:
                break
    cpu_after = cpu_seconds(pids)
    region["cpu_self_s"] = cpu_after[0] - cpu_before[0]
    region["cpu_children_s"] = cpu_after[1] - cpu_before[1]
    region["attempted"] = len(region["latencies"]) + len(region["errors"])
    return region


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def typical(values) -> float:
    """The lower quartile.  Identical ops on a shared host differ only by
    what the host adds (steal, cache and SMT contention), and it only
    ever adds; the lower quartile is the location estimate that noise
    moves least while still resting on a quarter of the samples."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    # Inclusive: with a handful of samples the default method extrapolates
    # below the smallest one, even below zero.
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def scaled(values, scales) -> list[float]:
    return [value * scale for value, scale in zip(values, scales)]


def end_to_end_metrics(workload, region, failed: int, setup_samples, upload: int) -> dict:
    """Timings are lower quartiles of host-scaled samples (see
    ``typical`` and the yardstick note above); counts are medians."""
    attempted = region["attempted"]
    scales = region["scales"]
    if workload.spec.kind == "fleet":
        # Ops overlap, so CPU cannot be split per op: the region's total.
        wire = region["gateway"]["bytes"] / max(1, len(scales))
        cpu = (region["cpu_self_s"] + region["cpu_children_s"]) / attempted
    else:
        wire = median([record["wire_bytes"] for record in region["records"]])
        cpu = typical(scaled(region["cpu"], scales))
    return {
        "setup_s": median([sample["raw_s"] * sample["scale"] for sample in setup_samples]),
        "session_s": typical(scaled(region["latencies"], scales)),
        "sessions_per_s": (attempted - failed) / region["busy_s"],
        "cpu_s_per_session": cpu,
        "peak_rss_mb": region["peak_rss_mb"],
        "wire_bytes_per_session": wire,
        "client_submit_ms": typical(scaled(region["probe"], region["probe_scales"])) * 1e3,
        "client_upload_bytes": upload,
        "correct_share": (attempted - failed) / attempted,
    }


def per_layer_metrics(workload, untraced, traced, reference) -> dict:
    """The ledger of the traced region; see README.md for each line."""
    from repro.loadgen import percentile
    from tracer import CONTAINERS

    spec = workload.spec
    ledgers, counters, scales = traced["ledgers"], traced["counters"], traced["scales"]
    ops = max(1, traced["attempted"])
    records = traced["records"]

    # Medians over the traced ops; seconds are host-scaled op by op.
    def line(name, field="self_s"):
        return median(
            [
                ledger.get(name, {}).get(field, 0) * (1 if field == "calls" else scale)
                for ledger, scale in zip(ledgers, scales)
            ]
        )

    def counter(key):
        return median(
            [count.get(key, 0) * (scale if key.endswith("_s") else 1) for count, scale in zip(counters, scales)]
        )

    def recorded(key):
        return median([record.get(key, 0) for record in records]) if spec.kind == "distributed" else 0

    unattributed = [
        1.0 - sum(entry["self_s"] for name, entry in ledger.items() if name not in CONTAINERS) / wall
        for ledger, wall in zip(ledgers, traced["latencies"])
    ]
    validated = line("core.verifier.validate_clients", "calls") > 0
    # Bytes that left the process: accounted bus bytes in-process, the
    # analyst transport's distributed, none for a replay or the callers.
    sent = {"session": median([r.get("wire_bytes", 0) for r in records]), "distributed": recorded("bytes_sent")}.get(
        spec.kind, 0
    )
    encode_bytes = counter("crypto.serialization.encode_bytes")
    multiprocess = spec.kind in ("distributed", "fleet")
    session_s = typical(scaled(traced["latencies"], scales))
    metrics = {
        "core.client.submit_s": line("core.client.submit"),
        "core.client.submit_calls": line("core.client.submit", "calls"),
        "core.prover.commit_coins_s": line("core.prover.commit_coins"),
        "core.prover.share_check_s": line("core.prover.share_check"),
        "core.prover.output_s": line("core.prover.output"),
        "core.prover.coins": counter("core.prover.coins"),
        "core.verifier.validate_clients_s": line("core.verifier.validate_clients"),
        "core.verifier.verify_coins_s": line("core.verifier.verify_coins"),
        "core.verifier.line12_s": line("core.verifier.line12"),
        "core.verifier.line13_s": line("core.verifier.line13"),
        "core.verifier.sequential_client_checks": counter("core.verifier.sequential_client_checks"),
        "core.verifier.batch_hit_share": (
            1.0 - counter("core.verifier.sequential_client_checks") / spec.clients if validated else 0.0
        ),
        "crypto.sigma.prove_s": line("crypto.sigma.prove"),
        "crypto.sigma.verify_s": line("crypto.sigma.verify"),
        "crypto.sigma.proofs": counter("crypto.sigma.proofs"),
        "crypto.multiexp.s": line("crypto.multiexp"),
        "crypto.multiexp.calls": line("crypto.multiexp", "calls"),
        "crypto.multiexp.terms": counter("crypto.multiexp.terms"),
        "crypto.pedersen.commit_s": line("crypto.pedersen.commit"),
        "crypto.pedersen.commit_calls": line("crypto.pedersen.commit", "calls"),
        "crypto.fiat_shamir.s": line("crypto.fiat_shamir"),
        "crypto.fiat_shamir.challenges": counter("crypto.fiat_shamir.challenges"),
        "crypto.fiat_shamir.absorbed_bytes": counter("crypto.fiat_shamir.absorbed_bytes"),
        "crypto.serialization.encode_s": line("crypto.serialization.encode"),
        "crypto.serialization.encode_calls": counter("crypto.serialization.encode_calls"),
        "crypto.serialization.encode_bytes": encode_bytes,
        "crypto.serialization.decode_s": line("crypto.serialization.decode"),
        "crypto.serialization.decode_calls": counter("crypto.serialization.decode_calls"),
        "crypto.serialization.reencode_ratio": encode_bytes / sent if sent else 0.0,
        "utils.rng.s": line("utils.rng"),
        "utils.rng.draws": counter("utils.rng.draws"),
        "mpc.morra.run_s": line("mpc.morra.run"),
        "mpc.morra.bits": counter("mpc.morra.bits"),
        "api.engine.unattributed_share": median(unattributed) if unattributed else 1.0,
        "net.transport.send_s": line("net.transport.send"),
        "net.transport.recv_wait_s": line("net.transport.recv_wait"),
        "net.transport.frames": recorded("frames"),
        "net.transport.bytes_sent": recorded("bytes_sent"),
        "net.transport.bytes_received": recorded("bytes_received"),
        "net.nodes.rpc_calls": line("net.nodes.rpc", "calls"),
        "net.nodes.rpc_wait_s": line("net.nodes.rpc", "total_s"),
        "net.nodes.spawn_teardown_s": (
            session_s - line("net.nodes.analyst_run", "total_s") if spec.kind == "distributed" else 0.0
        ),
        "net.serve.overhead_ratio": session_s / reference if multiprocess else 1.0,
        "net.shard.bytes_sent_per_coin": recorded("bytes_sent") / (2 * spec.nb * max(1, spec.bins)),
        "net.shard.children_cpu_s": traced["cpu_children_s"] / ops if spec.shards else 0.0,
        "proc.self_cpu_s": traced["cpu_self_s"] / ops,
        "proc.children_cpu_s": traced["cpu_children_s"] / ops,
        "trace.overhead_share": session_s / typical(scaled(untraced["latencies"], untraced["scales"])) - 1.0,
    }
    for phase in ("enroll", "validate", "commit_coins", "morra", "adjust", "release"):
        metrics[f"api.engine.phase.{phase}_s"] = counter(f"api.engine.phase.{phase}_s")
    fleet = dict.fromkeys(
        ("service_s", "queue_wait_s", "latency_p90_s", "stolen", "restarts", "frontend_imbalance", "children_cpu_s"), 0.0
    )
    gateway = {"admitted": 0, "rejected": 0, "bytes": 0.0}
    if spec.kind == "fleet":
        replies = [(sample["end"] - sample["start"], sample["reply"]) for sample in records]
        served = [(latency, reply) for latency, reply in replies if reply.get("elapsed_s") is not None]
        per_frontend: dict = {}
        for _, reply in served:
            per_frontend[reply["frontend"]] = per_frontend.get(reply["frontend"], 0) + 1
        fleet = {
            "service_s": median([reply["elapsed_s"] for _, reply in served]),
            "queue_wait_s": median([latency - reply["elapsed_s"] for latency, reply in served]),
            "latency_p90_s": percentile(sorted(latency for latency, _ in replies), 0.90) or 0.0,
            "stolen": workload.dispatcher.stolen,
            "restarts": sum(workload.dispatcher.restarts.values()),
            "frontend_imbalance": (
                max(per_frontend.values()) / min(per_frontend.values()) if per_frontend else 0.0
            ),
            "children_cpu_s": traced["cpu_children_s"] / ops,
        }
        gateway = dict(traced["gateway"], bytes=traced["gateway"]["bytes"] / ops)
    metrics.update({f"net.fleet.{key}": value for key, value in fleet.items()})
    metrics.update({f"net.gateway.{key}": value for key, value in gateway.items()})
    return metrics


def check_golden(name: str, seed: str, smoke: bool, observed: dict) -> list:
    """Compare exact values against golden.json when it was taken with
    this seed at full size; a key the pass did not observe is skipped."""
    with open(HERE / "golden.json", encoding="utf-8") as handle:
        golden = json.load(handle)
    if smoke or seed != golden["seed"]:
        return []
    expected = golden["workloads"].get(name, {})
    return [
        (None, f"golden {key}: observed {observed[key]!r}, golden.json has {value!r}")
        for key, value in expected.items()
        if key in observed and observed[key] != value
    ]


def run_one(name: str, args) -> int:
    """All four stages of one workload in this process; returns exit code."""
    declared = load_declared()
    host = host_metadata()
    if host["noisy_host"]:
        print(f"# noisy_host: 1-min loadavg {host['loadavg_1min']:.2f} > nproc/2", flush=True)
    workload, own_setup = do_setup(name, args.seed, args.smoke)
    try:
        workload.prepare()
        upload = workload.upload_bytes()
        pids = workload.live_pids()
        if args.trace:
            from tracer import Tracer

            # A third of the time untraced, for trace.overhead_share.
            untraced = run_region(workload, args.seconds / 3)
            tracer = Tracer()
            tracer.install()
            traced = run_region(workload, args.seconds * 2 / 3, tracer, first=untraced["attempted"])
            reference = None
            if workload.spec.kind in ("distributed", "fleet"):
                tracer.active = True  # the in-process base of overhead_ratio is traced too
                reference = min(workload.reference_ops(3)) * host_scale()
                tracer.active = False
            regions = [untraced, traced]
        else:
            regions = [run_region(workload, args.seconds)]
        regions[-1]["peak_rss_mb"] = peak_rss_mb(pids)

        errors = [error for region in regions for error in region["errors"]]
        if not all(region["records"] for region in regions):
            raise SystemExit(f"{name}: a measured region completed no op\n" + "\n".join(errors))
        records = [record for region in regions for record in region["records"]]
        failures = [(None, error.strip().splitlines()[-1]) for error in errors]
        failures += workload.check(records)
        observed = {"release_sha256": workload.release_digest(records)}
        if args.trace:
            table = declared["per_layer"]
            metrics = per_layer_metrics(workload, untraced, traced, reference)
            for key in ("crypto.fiat_shamir.absorbed_bytes", "utils.rng.draws"):
                observed[key] = metrics[key]
            setup_samples = [own_setup]
        else:
            observed["client_upload_bytes"] = upload
            if workload.spec.kind != "fleet":
                observed["wire_bytes_per_session"] = median([r["wire_bytes"] for r in records])
        # Medians of whole numbers, as whole numbers (golden.json pins them).
        observed = {k: int(v) if isinstance(v, float) and v.is_integer() else v for k, v in observed.items()}
        failures += check_golden(name, args.seed, args.smoke, observed)

        attempted = sum(region["attempted"] for region in regions)
        failed = len({op for op, _ in failures if op is not None}) + len(errors)
        failed = min(attempted, failed or (1 if failures else 0))
        if not args.trace:
            table = declared["end_to_end"]
            # Fresh interpreters, after the measured region so they are
            # not among the children whose CPU and memory it accounts.
            setup_samples = [own_setup] + [
                fresh_setup(name, args.seed, args.smoke)
                for _ in range(0 if args.smoke else SETUP_SAMPLES - 1)
            ]
            metrics = end_to_end_metrics(workload, regions[0], failed, setup_samples, upload)
    finally:
        workload.close()

    undeclared = sorted(set(metrics) ^ {row["name"] for row in table})
    if undeclared:
        raise SystemExit(f"metrics computed and metrics declared in BENCHMARK.json differ: {undeclared}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {row["name"]: {"value": metrics[row["name"]], "unit": row["unit"]} for row in table},
    }
    write_raw(name, args, result, host, failures, observed, regions, setup_samples)

    for _, message in failures:
        print(f"# FAILED {name}: {message}", flush=True)
    samples = len(regions[-1]["latencies"])
    for row in table:
        count = len(setup_samples) if row["name"] == "setup_s" else samples
        print(f"{name} {row['name']} {metrics[row['name']]:.6g} {row['unit']} n={count}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def write_raw(name, args, result, host, failures, observed, regions, setup_samples) -> None:
    """Raw per-op samples, host metadata and (traced) the first traced
    op's spans as JSON lines, under ``--out``."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    raw = dict(
        result,
        workload=name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        smoke=args.smoke,
        host=host,
        failures=[message for _, message in failures],
        observed=observed,
        samples={
            "setup_s": setup_samples,
            "client_submit_s": [region["probe"] for region in regions],
            "session_s": [region["latencies"] for region in regions],
            "session_scale": [region["scales"] for region in regions],
            "cpu_s": [region["cpu"] for region in regions],
        },
    )
    if "gateway" in regions[0]:
        raw["ops"] = [sample for region in regions for sample in region["records"]]
        raw["gateway"] = [region["gateway"] for region in regions]
    stem = f"{name}.trace" if args.trace else name
    with open(out / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(raw, handle)
        handle.write("\n")
    spans = regions[-1]["spans"]
    if spans is not None:
        op = regions[0]["attempted"]
        with open(out / f"{name}.spans.jsonl", "w", encoding="utf-8") as handle:
            for index, (span, start, end, parent) in enumerate(spans):
                row = {"id": index, "name": span, "start": start, "end": end, "parent": parent, "op": op}
                handle.write(json.dumps(row) + "\n")


# Several workloads, sets, comparison ------------------------------------------


def run_set(names, args, out: Path) -> int:
    """Each workload in a fresh subprocess of this command."""
    status = 0
    for name in names:
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", name, "--seed", args.seed, "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out),
        ]
        if args.smoke:
            command.append("--smoke")
        status |= subprocess.run(command, timeout=900).returncode
    return status


def compare(dir_a: Path, dir_b: Path, symmetric: bool) -> int:
    """Print both values, the relative difference and the bound for every
    workload x end-to-end metric; non-zero exit if any row is not ``ok``.

    ``B`` is judged against ``A``: worse by more than the bound is a
    regression.  With ``symmetric`` (two sets of the same code) a
    difference either way beyond the bound means the benchmark did not
    resolve that timing: it is printed as ``unresolved``, not passed.
    Byte counts must be identical.
    """
    declared = load_declared()
    status = 0
    print("workload metric A B worse_by bound verdict")
    for workload in (row["name"] for row in declared["workloads"]):
        paths = [Path(d) / f"{workload}.json" for d in (dir_a, dir_b)]
        if not all(path.exists() for path in paths):
            continue
        a, b = (json.loads(path.read_text(encoding="utf-8")) for path in paths)
        for row in declared["end_to_end"]:
            name = row["name"]
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            worse = (vb - va) / va if row["better"] == "lower" else (va - vb) / va
            exact = name in EXACT_COUNTS and name in a["observed"]
            if exact:
                verdict = "ok" if va == vb else "FAIL"
            elif symmetric:
                verdict = "ok" if abs(worse) <= row["bound"] else "unresolved"
            else:
                verdict = "ok" if worse <= row["bound"] else "FAIL"
            if not a["correct"] or not b["correct"]:
                verdict = "FAIL"
            if verdict != "ok":
                status = 1
            print(f"{workload} {name} {va:.6g} {vb:.6g} {worse:+.2%} {row['bound']:.0%} {verdict}")
    return status


def write_golden(directory: Path, seed: str) -> int:
    """Pin the exact values the runs in ``directory`` observed."""
    golden: dict = {"seed": seed, "workloads": {}}
    for path in sorted(directory.glob("*.json")):
        raw = json.loads(path.read_text(encoding="utf-8"))
        if raw["seed"] != seed or raw["smoke"] or not raw["correct"]:
            raise SystemExit(f"{path}: not a correct full-size run under seed {seed!r}")
        golden["workloads"].setdefault(raw["workload"], {}).update(raw["observed"])
    with open(HERE / "golden.json", "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    declared = load_declared()
    names = [row["name"] for row in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; default: all")
    parser.add_argument("--seed", default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "out"), help="raw samples and host metadata")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (the tier-1 smoke test)")
    parser.add_argument("--sets", type=int, default=1, help="run the whole set N times and compare")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --out directories")
    parser.add_argument("--write-golden", metavar="DIR", help="rewrite golden.json from a run's --out directory")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]), symmetric=False)
    if args.write_golden:
        return write_golden(Path(args.write_golden), args.seed)
    selected = args.workload or names
    if args.setup_only:
        workload, sample = do_setup(selected[0], args.seed, args.smoke)
        workload.close()
        print(json.dumps(sample))
        return 0
    if args.sets > 1:
        status = 0
        for number in range(1, args.sets + 1):
            status |= run_set(selected, args, Path(args.out) / f"set{number}")
        for number in range(2, args.sets + 1):
            status |= compare(Path(args.out) / "set1", Path(args.out) / f"set{number}", symmetric=True)
        return status
    if len(selected) == 1:
        return run_one(selected[0], args)
    return run_set(selected, args, Path(args.out))


if __name__ == "__main__":
    sys.exit(main())
