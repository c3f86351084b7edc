"""JSON report schema shared by all CLI commands.

Verdict fields are tri-state: true, false, or a "budget_exceeded:<kind>"
string.  The results section is deterministic for fixed seed and budgets;
timings live outside it so reports can be compared byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .config import Budgets
from .hall import HallClassSet

SCHEMA_VERSION = "1"


@dataclass
class Report:
    command: str
    input: dict
    pi: str | None
    seed: int
    budgets: dict
    results: dict
    timings: dict = field(default_factory=dict)
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "input": self.input,
            "pi": self.pi,
            "seed": self.seed,
            "budgets": self.budgets,
            "results": self.results,
            "timings": self.timings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)


def make_report(command: str, input_desc: dict, pi, seed: int,
                budgets: Budgets, results: dict,
                timings: dict | None = None) -> Report:
    return Report(command=command, input=input_desc,
                  pi=None if pi is None else pi.key(), seed=seed,
                  budgets=asdict(budgets), results=results,
                  timings=timings or {})


def class_summaries(classes: HallClassSet) -> list[dict]:
    """Serializable invariants of the Hall class representatives."""
    out = []
    for rep, size in zip(classes.class_reps, classes.class_sizes):
        out.append({
            "order": rep.order(),
            "orbit_sizes": list(rep.orbit_sizes()),
            "class_size": size,
            "generators": [list(g.images) for g in rep.generators],
        })
    return out
