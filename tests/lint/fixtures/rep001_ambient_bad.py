"""REP001 true positives: results that depend on where the process runs."""

import os
import pathlib
from os import environ, getenv
from pathlib import Path


def tuning_file():
    return Path(os.environ.get("TUNING_DIR", ".")) / "tuning.json"  # line 10


def switched_off():
    return os.getenv("TUNING", "1") == "0"  # line 14


def search_path():
    return [Path.cwd(), pathlib.Path.cwd(), os.getcwd()]  # line 18: three


def imported_names():
    return getenv("TUNING") or environ["TUNING"]  # line 22: both imported forms


def switch_it_off():
    os.environ["TUNING"] = "0"  # line 26: writing it is no better
