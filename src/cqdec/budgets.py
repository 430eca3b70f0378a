"""Enumeration and dimension budgets.

Hard caps with explicit errors instead of silent truncation.  ``dim_limit``
bounds the composite dimension d**n for anything that materializes dense
operators or state vectors; ``set_limit`` bounds enumerated set sizes
(typical sequences, conditional label sequences, codeword counts, and the
total number of (sequence, label) pairs feeding an operator sum);
``work_limit`` bounds the element count of dense intermediate matrices
and the numbers a plan's Monte Carlo chain memo stores.

Environment variables CQDEC_DIM_BUDGET, CQDEC_SET_BUDGET and
CQDEC_WORK_BUDGET override the defaults; each must be an integer >= 1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ConfigError

DEFAULT_DIM_LIMIT = 4096
DEFAULT_SET_LIMIT = 2**20
DEFAULT_WORK_LIMIT = 2**24

_ENV_KEYS = {
    "dim_limit": "CQDEC_DIM_BUDGET",
    "set_limit": "CQDEC_SET_BUDGET",
    "work_limit": "CQDEC_WORK_BUDGET",
}


@dataclass(frozen=True)
class Budgets:
    dim_limit: int = DEFAULT_DIM_LIMIT
    set_limit: int = DEFAULT_SET_LIMIT
    work_limit: int = DEFAULT_WORK_LIMIT

    def with_env_overrides(self) -> "Budgets":
        """Return a copy with any CQDEC_*_BUDGET environment overrides applied."""
        values = {}
        for field, env in _ENV_KEYS.items():
            raw = os.environ.get(env)
            if raw is not None:
                try:
                    values[field] = int(raw)
                except ValueError:
                    raise ConfigError(f"{env} must be an integer, got {raw!r}") from None
                if values[field] < 1:
                    raise ConfigError(f"{env} must be >= 1, got {raw!r}")
        if not values:
            return self
        merged = {f: getattr(self, f) for f in _ENV_KEYS}
        merged.update(values)
        return Budgets(**merged)


DEFAULT_BUDGETS = Budgets()
