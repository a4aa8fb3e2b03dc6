"""REP001 clean: the caller hands over what the function depends on."""

import os
from pathlib import Path


def tuning_file(directory):
    return Path(directory) / "tuning.json"


def select(n, bits, *, native_pow):
    return "naive" if n * bits < 64 or native_pow else "pippenger"


def core_count():
    return os.cpu_count() or 1  # a host fact, but not a caller-set switch


def environ_is_just_a_name(environ):
    return environ.get("x")  # a parameter, not os.environ
