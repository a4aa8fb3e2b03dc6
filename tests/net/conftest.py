"""Fixtures shared by the serving-layer tests.

Each fixture changes what the peers of chosen sessions do, keyed by the
session's seed, through :func:`_before_each_peer`: ``roles.run_role`` is
patched in this process, so a fleet front-end forked afterwards inherits
the patch, and a test reads nothing of any front-end's state.
"""

import multiprocessing
import threading
import time

import pytest

from repro.net import roles
from repro.net.nodes import ServerNode


def _before_each_peer(monkeypatch, hook) -> None:
    """Run ``hook(role, name, seed)`` on each peer's own thread or process
    before the peer starts."""
    real_run_role = roles.run_role

    def run_role(role, name, transport, **kwargs):
        hook(role, name, kwargs.get("seed"))
        return real_run_role(role, name, transport, **kwargs)

    monkeypatch.setattr(roles, "run_role", run_role)


@pytest.fixture
def session_started(monkeypatch):
    """``session_started(*seeds)`` → one event per seed, set once that
    session's clients peer starts: a set event proves the session was
    placed and is in flight."""

    def signal(*seeds):
        context = multiprocessing.get_context("fork")
        started = {seed: context.Event() for seed in seeds}

        def hook(role, name, seed):
            if name == "clients" and seed in started:
                started[seed].set()

        _before_each_peer(monkeypatch, hook)
        return started

    return signal


@pytest.fixture
def slow_replies(monkeypatch):
    """``slow_replies(seconds, *seeds)``: the servers of each named
    session sleep ``seconds`` before every RPC reply — a slow prover, so
    that the session is still in flight when the test acts on it."""
    peer = threading.local()
    real_reply = ServerNode._reply

    def reply(self, frame):
        time.sleep(getattr(peer, "delay", 0.0))
        real_reply(self, frame)

    monkeypatch.setattr(ServerNode, "_reply", reply)

    def slow(seconds, *seeds):
        def hook(role, name, seed):
            if seed in seeds:
                peer.delay = seconds

        _before_each_peer(monkeypatch, hook)

    return slow
