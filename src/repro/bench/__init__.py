"""Experiment drivers regenerating every table and figure of the paper.

Each ``run_*`` function returns structured rows (plain dicts) and the
formatting layer prints them paper-style; the CLI (``python -m repro
<experiment>``) is the human entry point and nothing is written to disk.
The pytest-benchmark suite in ``benchmarks/`` wraps the same primitives.
Serving numbers come from the named benchmark (``benchmarks/e2e``), not
from here.  See DESIGN.md for the experiment index.
"""

from repro.bench.format import format_table, print_table
from repro.bench.runner import (
    run_table1,
    run_fig3,
    run_fig4,
    run_table2,
    run_micro,
    run_err,
    run_comm,
    run_attacks,
    run_separation,
    run_multiexp,
    EXPERIMENTS,
)

__all__ = [
    "format_table",
    "print_table",
    "run_table1",
    "run_fig3",
    "run_fig4",
    "run_table2",
    "run_micro",
    "run_err",
    "run_comm",
    "run_attacks",
    "run_separation",
    "run_multiexp",
    "EXPERIMENTS",
]
