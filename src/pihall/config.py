"""Budget configuration shared across searches and enumerations."""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Budgets:
    """Limits that turn expensive instances into clean errors.

    Exceeding a budget is always reported distinctly from a negative
    answer, so callers can surface a tri-state verdict."""

    node_budget: int = 2_000_000        # backtrack search nodes
    order_budget: int = 1_000_000       # exhaustive enumeration (oracle)
    coset_degree_budget: int = 100_000  # index bound for coset actions
    element_action_budget: int = 10_000 # section size for element actions

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 1:
                raise ValueError(f"{f.name} must be at least 1, got {value}")


DEFAULT_BUDGETS = Budgets()
