"""Run reports: JSON-serializable public summaries."""

import json

from repro.api import CountQuery, ProtocolEngine, Session
from repro.core.client import Client
from repro.core.params import setup
from repro.core.prover import OutputTamperingProver
from repro.core.report import render_report, run_report
from repro.utils.rng import SeededRNG

GROUP = "p64-sim"


def run_once(seed="rep"):
    session = Session(
        CountQuery(1.0, 2**-10), group=GROUP, nb_override=8, rng=SeededRNG(seed)
    )
    session.submit([1, 0, 1])
    return session.params, session.release()[0].engine_result


class TestRunReport:
    def test_schema_and_fields(self):
        params, result = run_once()
        report = run_report(params, result)
        assert report["schema"] == "repro.run-report.v1"
        assert report["parameters"]["nb"] == 8
        assert report["release"]["accepted"] is True
        assert len(report["audit"]["clients"]) == 3
        assert report["costs"]["network_messages"] > 0

    def test_json_serializable(self):
        params, result = run_once(seed="js")
        text = render_report(params, result)
        parsed = json.loads(text)
        assert parsed["release"]["raw"] == list(result.release.raw)

    def test_estimate_consistent(self):
        params, result = run_once(seed="est")
        report = run_report(params, result)
        raw = report["release"]["raw"][0]
        est = report["release"]["estimate"][0]
        assert est == raw - report["release"]["noise_mean_removed"]

    def test_cheater_visible_in_report(self):
        params = setup(1.0, 2**-10, num_provers=1, group=GROUP, nb_override=8)
        cheater = OutputTamperingProver("prover-0", params, SeededRNG("c"), bias=3)
        engine = ProtocolEngine(params, provers=[cheater], rng=SeededRNG("r"))
        engine.submit_clients([Client("client-0", [1], SeededRNG("c0"))])
        result = engine.run_release()
        report = run_report(params, result)
        assert report["release"]["accepted"] is False
        assert report["audit"]["provers"]["prover-0"] == "failed-final-check"

    def test_report_contains_only_public_data(self):
        """No share values, openings, or coin values anywhere."""
        params, result = run_once(seed="pub")
        text = render_report(params, result)
        for secret_marker in ("opening", "randomness", "share_value", "coin_value"):
            assert secret_marker not in text
