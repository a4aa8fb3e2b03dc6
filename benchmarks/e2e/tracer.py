"""Outside-in tracer: spans around the layers' public callables.

The program under test is never edited.  :class:`Tracer` replaces public
functions and methods of ``repro`` with timing wrappers at run time
(module globals are rebound wherever a module imported the function by
name; methods are rebound on their class) and records one span per call:
``(name, start, end, parent)``, the parent being the index of the span
that was open when the call began.  A span's *name* is the ledger line it
is charged to, so many callables share one name (every ``Transcript``
method is ``crypto.fiat_shamir``).

Self time is a span's duration minus the time its child spans cover.
Nested spans of one name therefore sum to the exclusive time spent in
that layer, and the ledger lines of an op sum to at most its wall time.
*Container* spans (``api.engine.*``, ``net.nodes.analyst_run``) only give
structure: their self time is glue no layer owns and stays unattributed.

Only the thread that installed the tracer records; forked children carry
the wrappers but are switched off (their cost is accounted in CPU
seconds by the runner).
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import threading
import time

__all__ = ["Tracer", "TARGETS", "CONTAINERS"]


# Counters: callables ``(counters, args, kwargs, result)`` run after a
# wrapped call returns.  ``args[0]`` is ``self`` for methods.


def _add(key, amount=1):
    def count(counters, args, kwargs, result):
        counters[key] = counters.get(key, 0) + amount

    return count


def _coins(counters, args, kwargs, message):
    rows = message.commitments
    counters["core.prover.coins"] = counters.get("core.prover.coins", 0) + sum(
        len(row) for row in rows
    )


def _multiexp_terms(counters, args, kwargs, result):
    counters["crypto.multiexp.terms"] = counters.get("crypto.multiexp.terms", 0) + len(
        args[1]
    )


def _absorb(size):
    """Label + payload bytes handed to one public ``Transcript`` call."""

    def count(counters, args, kwargs, result):
        counters["crypto.fiat_shamir.absorbed_bytes"] = counters.get(
            "crypto.fiat_shamir.absorbed_bytes", 0
        ) + size(*args[1:], **kwargs)

    return count


def _int_size(label, value, width=None):
    return len(label) + (width if width is not None else max(1, (value.bit_length() + 7) // 8))


def _elements_size(label, elements):
    return sum(
        len(f"{label}[{i}]") + len(element.to_bytes())
        for i, element in enumerate(elements)
    )


def _challenge(counters, args, kwargs, result):
    counters["crypto.fiat_shamir.challenges"] = (
        counters.get("crypto.fiat_shamir.challenges", 0) + 1
    )
    # The extracted digest is folded back into the state under its label.
    counters["crypto.fiat_shamir.absorbed_bytes"] = (
        counters.get("crypto.fiat_shamir.absorbed_bytes", 0) + len(args[1]) + len(result)
    )


def _encoded(counters, args, kwargs, frame):
    counters["crypto.serialization.encode_bytes"] = counters.get(
        "crypto.serialization.encode_bytes", 0
    ) + len(frame)
    counters["crypto.serialization.encode_calls"] = (
        counters.get("crypto.serialization.encode_calls", 0) + 1
    )


def _morra_bits(counters, args, kwargs, result):
    count = args[2] if len(args) > 2 else kwargs["count"]
    counters["mpc.morra.bits"] = counters.get("mpc.morra.bits", 0) + count


def _phases(counters, args, kwargs, engine_result):
    for stage, seconds in engine_result.timer.stages.items():
        if stage.startswith("phase:"):
            key = "api.engine.phase." + stage[6:].replace("-", "_") + "_s"
            counters[key] = counters.get(key, 0.0) + seconds


_T = "repro.crypto.fiat_shamir"
_S = "repro.crypto.serialization"
_W = "repro.net.wire"
_V = "repro.core.verifier"
_P = "repro.core.prover"
_R = "repro.utils.rng"
_B = "repro.crypto.sigma.batch"
_N = "repro.net.nodes"

# (span name, module, qualified name, counter or None)
TARGETS = [
    ("core.client.submit", "repro.core.client", "Client.submit", None),
    ("core.client.submit", "repro.core.client", "NonBinaryClient.submit", None),
    ("core.client.submit", "repro.core.client", "InconsistentShareClient.submit", None),
    ("core.prover.commit_coins", _P, "Prover.commit_coins", _coins),
    ("core.prover.commit_coins", _P, "Prover.commit_coin_chunk", _coins),
    ("core.prover.share_check", _P, "Prover.receive_client_share", None),
    ("core.prover.output", _P, "Prover.compute_output", None),
    ("core.prover.output", _P, "Prover.finish_output", None),
    ("core.verifier.validate_clients", _V, "PublicVerifier.validate_clients", None),
    (
        "core.verifier.validate_clients",
        _V,
        "PublicVerifier.validate_client",
        _add("core.verifier.sequential_client_checks"),
    ),
    ("core.verifier.verify_coins", _V, "PublicVerifier.verify_all_coin_commitments", None),
    ("core.verifier.verify_coins", _V, "PublicVerifier.verify_coin_commitments", None),
    ("core.verifier.verify_coins", _V, "PublicVerifier.verify_coin_chunk", None),
    ("core.verifier.verify_coins", _V, "PublicVerifier.finish_coin_stream", None),
    ("core.verifier.line12", _V, "PublicVerifier.apply_public_bits", None),
    ("core.verifier.line12", _V, "PublicVerifier.apply_public_bits_chunk", None),
    ("core.verifier.line13", _V, "PublicVerifier.fold_client_commitments", None),
    ("core.verifier.line13", _V, "PublicVerifier.check_prover_output", None),
    ("core.verifier.line13", _V, "PublicVerifier.check_prover_output_folded", None),
    ("crypto.sigma.prove", "repro.crypto.sigma.or_bit", "prove_bit", _add("crypto.sigma.proofs")),
    ("crypto.sigma.prove", "repro.crypto.sigma.or_bit", "prove_bits", None),
    ("crypto.sigma.prove", "repro.crypto.sigma.onehot", "prove_one_hot", None),
    ("crypto.sigma.prove", "repro.crypto.sigma.bitvec", "prove_bit_vector", None),
    ("crypto.sigma.verify", "repro.crypto.sigma.or_bit", "verify_bit", _add("crypto.sigma.proofs")),
    ("crypto.sigma.verify", "repro.crypto.sigma.or_bit", "verify_bits", None),
    ("crypto.sigma.verify", "repro.crypto.sigma.onehot", "verify_one_hot", None),
    ("crypto.sigma.verify", "repro.crypto.sigma.bitvec", "verify_bit_vector", None),
    ("crypto.sigma.verify", _B, "SigmaBatch.add_bit_proof", _add("crypto.sigma.proofs")),
    ("crypto.sigma.verify", _B, "SigmaBatch.add_bit_proofs", None),
    ("crypto.sigma.verify", _B, "SigmaBatch.add_one_hot", None),
    ("crypto.sigma.verify", _B, "SigmaBatch.add_bit_vector", None),
    ("crypto.sigma.verify", _B, "SigmaBatch.merge", None),
    ("crypto.sigma.verify", _B, "SigmaBatch.verify", None),
    ("crypto.sigma.verify", _B, "batch_verify_bits", None),
    ("crypto.sigma.verify", _B, "batch_verify_one_hot", None),
    ("crypto.multiexp", "repro.crypto.multiexp", "multi_exponentiation", _multiexp_terms),
    ("crypto.pedersen.commit", "repro.crypto.pedersen", "PedersenParams.commit", None),
    ("crypto.pedersen.commit", "repro.crypto.pedersen", "PedersenParams.commit_many", None),
    ("crypto.pedersen.commit", "repro.crypto.pedersen", "PedersenParams.commit_fresh", None),
    ("crypto.pedersen.commit", "repro.crypto.pedersen", "PedersenParams.commit_vector", None),
    ("crypto.fiat_shamir", _T, "Transcript.__init__", _absorb(lambda domain: 6 + len(domain))),
    ("crypto.fiat_shamir", _T, "Transcript.append_bytes", _absorb(lambda label, payload: len(label) + len(payload))),
    ("crypto.fiat_shamir", _T, "Transcript.append_int", _absorb(_int_size)),
    ("crypto.fiat_shamir", _T, "Transcript.append_element", _absorb(lambda label, element: len(label) + len(element.to_bytes()))),
    ("crypto.fiat_shamir", _T, "Transcript.append_elements", _absorb(_elements_size)),
    ("crypto.fiat_shamir", _T, "Transcript.append_str", _absorb(lambda label, text: len(label) + len(text.encode()))),
    ("crypto.fiat_shamir", _T, "Transcript.challenge_bytes", _challenge),
    ("crypto.fiat_shamir", _T, "Transcript.challenge_scalar", None),
    ("crypto.fiat_shamir", _T, "Transcript.fork", _absorb(lambda label: 4 + len(label))),
    ("crypto.fiat_shamir", _T, "Transcript.clone", None),
    ("crypto.serialization.encode", _S, "encode_message", _encoded),
    ("crypto.serialization.encode", _S, "encode_message_cached", None),
    ("crypto.serialization.encode", _S, "wire_size", None),
    ("crypto.serialization.encode", _S, "encode_commitment", None),
    ("crypto.serialization.encode", _S, "encode_commitments", None),
    ("crypto.serialization.encode", _S, "encode_bit_proof", None),
    ("crypto.serialization.encode", _S, "encode_one_hot_proof", None),
    ("crypto.serialization.encode", _S, "encode_bit_vector_proof", None),
    ("crypto.serialization.encode", _S, "encode_validity_proof", None),
    ("crypto.serialization.encode", "repro.utils.encoding", "encode_length_prefixed", None),
    ("crypto.serialization.encode", _W, "encode_params", None),
    ("crypto.serialization.encode", _W, "encode_plan", None),
    ("crypto.serialization.encode", _W, "encode_enrollment", None),
    ("crypto.serialization.encode", _W, "encode_control", None),
    ("crypto.serialization.encode", _W, "encode_rpc", None),
    ("crypto.serialization.encode", _W, "encode_reply", None),
    ("crypto.serialization.encode", _W, "encode_str_list", None),
    ("crypto.serialization.encode", _W, "encode_bytes_list", None),
    ("crypto.serialization.encode", _W, "encode_int_list", None),
    ("crypto.serialization.encode", _W, "encode_bit_matrix", None),
    ("crypto.serialization.decode", _S, "decode_message", _add("crypto.serialization.decode_calls")),
    ("crypto.serialization.decode", _S, "decode_commitment", None),
    ("crypto.serialization.decode", _S, "decode_bit_proof", None),
    ("crypto.serialization.decode", _S, "decode_one_hot_proof", None),
    ("crypto.serialization.decode", _S, "decode_bit_vector_proof", None),
    ("crypto.serialization.decode", _S, "decode_validity_proof", None),
    ("crypto.serialization.decode", "repro.utils.encoding", "decode_length_prefixed", None),
    ("crypto.serialization.decode", _W, "decode_params", None),
    ("crypto.serialization.decode", _W, "decode_plan", None),
    ("crypto.serialization.decode", _W, "decode_enrollment", None),
    ("crypto.serialization.decode", _W, "split_enrollment", None),
    ("crypto.serialization.decode", _W, "decode_control", None),
    ("crypto.serialization.decode", _W, "decode_rpc", None),
    ("crypto.serialization.decode", _W, "decode_reply", None),
    ("crypto.serialization.decode", _W, "decode_str_list", None),
    ("crypto.serialization.decode", _W, "decode_bytes_list", None),
    ("crypto.serialization.decode", _W, "decode_int_list", None),
    ("crypto.serialization.decode", _W, "decode_bit_matrix", None),
    ("utils.rng", _R, "SeededRNG.random_bytes", _add("utils.rng.draws")),
    ("utils.rng", _R, "SystemRNG.random_bytes", _add("utils.rng.draws")),
    ("utils.rng", _R, "SeededRNG.fork", None),
    ("utils.rng", _R, "RNG.randbits", None),
    ("utils.rng", _R, "RNG.randbelow", None),
    ("utils.rng", _R, "RNG.randrange", None),
    ("utils.rng", _R, "RNG.field_element", None),
    ("utils.rng", _R, "RNG.nonzero_field_element", None),
    ("utils.rng", _R, "RNG.coin", None),
    ("utils.rng", _R, "RNG.shuffle", None),
    ("mpc.morra.run", "repro.mpc.morra", "run_morra_batch", _morra_bits),
    ("net.transport.send", "repro.net.transport", "Transport.send", None),
    ("net.transport.recv_wait", "repro.net.transport", "Transport.recv", None),
    ("net.nodes.rpc", _N, "RemoteProver.receive_client_share", None),
    ("net.nodes.rpc", _N, "RemoteProver.absorb_validated_clients", None),
    ("net.nodes.rpc", _N, "RemoteProver.commit_coins", None),
    ("net.nodes.rpc", _N, "RemoteProver.begin_coin_stream", None),
    ("net.nodes.rpc", _N, "RemoteProver.commit_coin_chunk", None),
    ("net.nodes.rpc", _N, "RemoteProver.absorb_public_bits", None),
    ("net.nodes.rpc", _N, "RemoteProver.compute_output", None),
    ("net.nodes.rpc", _N, "RemoteProver.finish_output", None),
    ("net.nodes.rpc", _N, "RemoteProver.sample_values", None),
    ("net.nodes.rpc", _N, "RemoteProver.commitments", None),
    ("net.nodes.rpc", _N, "RemoteProver.reveal", None),
    ("api.engine.submit", "repro.api.engine", "ProtocolEngine.submit_clients", None),
    ("api.engine.submit", "repro.api.engine", "ProtocolEngine.submit_prepared", None),
    ("api.engine.run_release", "repro.api.engine", "ProtocolEngine.run_release", _phases),
    ("net.nodes.analyst_run", _N, "AnalystNode.run", None),
    ("net.nodes.analyst_run", "repro.net.shard", "ShardedAnalyst.run", None),
]

# Spans that give structure only; their self time is nobody's ledger line.
CONTAINERS = frozenset(
    {"api.engine.submit", "api.engine.run_release", "net.nodes.analyst_run"}
)


class Tracer:
    """Records spans of the installing thread; see the module docstring."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list = []  # (name, start, end, parent index)
        self.counters: dict = {}
        self._stack: list[int] = []
        self._owner = threading.get_ident()

    # Installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target.  A missing target is an error: a renamed
        public callable must be re-pointed here, not silently untraced."""
        for name, module_name, qualname, counter in TARGETS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name)
                original = inspect.getattr_static(owner, attr)
                if isinstance(original, (staticmethod, classmethod)):
                    raise TypeError(f"{module_name}.{qualname}: wrap plain methods only")
                setattr(owner, attr, self._wrap(original, name, counter))
            else:
                original = getattr(module, qualname)
                wrapped = self._wrap(original, name, counter)
                # Rebind everywhere the function was imported by name.
                for loaded in list(sys.modules.values()):
                    if loaded is None or not getattr(loaded, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapped)
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.active = False

    def _wrap(self, fn, name, counter):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter
        get_ident = threading.get_ident
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active or get_ident() != tracer._owner:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(counters, args, kwargs, result)
            return result

        return traced

    # Per-op ledger ----------------------------------------------------------

    def begin_op(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()
        self.active = True

    def end_op(self) -> tuple[dict, dict, list]:
        """Stop recording; returns ``(ledger, counters, spans)`` of the op.

        ``ledger[name]`` is ``{"self_s", "total_s", "calls"}``: exclusive
        seconds, inclusive seconds of outermost spans, and entries into
        the layer (spans whose parent has another name).
        """
        self.active = False
        spans = list(self.spans)
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        ledger: dict = {}
        for index, (name, start, end, parent) in enumerate(spans):
            line = ledger.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            line["self_s"] += (end - start) - covered[index]
            if parent < 0 or spans[parent][0] != name:
                line["calls"] += 1
                line["total_s"] += end - start
        return ledger, dict(self.counters), spans
