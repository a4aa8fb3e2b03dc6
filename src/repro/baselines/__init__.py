"""Baseline systems the paper compares against.

* :mod:`repro.baselines.trusted_curator` — classical non-verifiable DP
  release (Section 6's "the non-verifiable protocol simply involves
  summing over n inputs [and] sampling one draw of Binomial noise").
* :mod:`repro.baselines.sketch` — the BGI16-style linear sketch used by
  PRIO/Poplar for client validation *without public-key crypto*; fast but
  vulnerable to the Figure 1 attacks.
* :mod:`repro.baselines.prio` — a PRIO-style 2-server aggregate system:
  secret-shared one-hot inputs, sketch validation, per-server DP noise.
"""

from repro.baselines.trusted_curator import NonVerifiableCurator, MaliciousCurator
from repro.baselines.sketch import OneHotSketch, SketchClientPackage
from repro.baselines.prio import PrioSystem, PrioServer, CorruptPrioServer

__all__ = [
    "NonVerifiableCurator",
    "MaliciousCurator",
    "OneHotSketch",
    "SketchClientPackage",
    "PrioSystem",
    "PrioServer",
    "CorruptPrioServer",
]
