"""Timing helpers for the experiment drivers.

The paper reports wall-clock latency per protocol *stage* (Table 1 columns:
Σ-proof, Σ-verification, Morra, Aggregation, Check).  :class:`StageTimer`
accumulates named stages across a protocol run so the experiment drivers
can print the same rows.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["StageTimer"]


@dataclass
class StageTimer:
    """Named accumulating timers, one per protocol stage."""

    stages: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - start

    def add(self, name: str, seconds: float) -> None:
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def merge(self, other: "StageTimer") -> None:
        for name, seconds in other.stages.items():
            self.add(name, seconds)

    def milliseconds(self) -> dict[str, float]:
        return {name: seconds * 1e3 for name, seconds in self.stages.items()}

    def total(self) -> float:
        return sum(self.stages.values())
