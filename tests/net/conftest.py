"""Fixtures shared by the serving-layer tests."""

import multiprocessing

import pytest

from repro.net import roles


@pytest.fixture
def session_started(monkeypatch):
    """``session_started(*seeds)`` → one event per seed, set once that
    session's clients peer starts.

    ``roles.run_role`` is patched in this process, so the fleet's forked
    front-ends inherit it; a set event proves the session was placed and
    is in flight, without reading any front-end's state.
    """
    real_run_role = roles.run_role
    started: dict = {}

    def run_role(role, name, transport, **kwargs):
        if name == "clients" and kwargs.get("seed") in started:
            started[kwargs["seed"]].set()
        return real_run_role(role, name, transport, **kwargs)

    def signal(*seeds):
        context = multiprocessing.get_context("fork")
        started.update((seed, context.Event()) for seed in seeds)
        monkeypatch.setattr(roles, "run_role", run_role)
        return {seed: started[seed] for seed in seeds}

    return signal
