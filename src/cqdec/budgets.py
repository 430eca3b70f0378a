"""Resource budgets: the one place where an amount meets its limit.

Hard caps with explicit errors instead of silent truncation.  Every guard
states its amounts to ``Budgets.require``, which compares each with its
limit and raises ResourceBudgetError with the budget's name as the reason
(the ``skip:<reason>`` of a CSV row).  What each budget counts, one line
per guarded amount:

- set: codebook size ceil(2^(nR))  (codebook.sample_codebook)
- set: typical set size  (typicality.classical_typical_set)
- set: (sequence, label) pairs of a block of sequences  (typicality.conditional_labels)
- dim: d^n of the typical model  (typicality.build_typical_model)
- dim: d^n of the PGM  (pgm.pgm_error_probability)
- work: plan blocks, dim_H x the tested label sequences  (decoder.build_plan)
- work: POVM accumulation, dim_H^2  (decoder.build_povm)
- work: mixture block, dim_H^2  (decoder.verify_mixture_identity)
- work: class operator, (d^m)^2 for the widest letter class  (decoder.verify_mixture_identity)
- work: dense rho_tilde accumulator, dim_H^2  (typicality.build_rho_tilde)
- work: oracle outputs, (d^n)^2  (decoder.check_oracle_budget)
- work: PGM mixture, (d^n)^2  (pgm.pgm_error_probability)
- work: PGM factors, d^n x sum_s K_s  (pgm.pgm_error_probability)

Every d^n index is int64, so the dim budget never admits more than 2^63,
whatever ``dim_limit`` says.  ``fit`` sizes what work_limit bounds besides:
the Monte Carlo memo's slots and the rho_tilde and mixture-identity chunks.

A config's dim_budget, set_budget and work_budget keys replace the
defaults, and the environment variables CQDEC_DIM_BUDGET, CQDEC_SET_BUDGET
and CQDEC_WORK_BUDGET replace both; each must be an integer >= 1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .config import ExperimentConfig
from .errors import ConfigError, ResourceBudgetError

DEFAULT_DIM_LIMIT = 4096
DEFAULT_SET_LIMIT = 2**20
DEFAULT_WORK_LIMIT = 2**24
_INDEX_DIM_CAP = 2**63  # d^n indices 0 .. d^n - 1 fit int64

# each limit's config key and environment override
_SOURCES = {
    "dim_limit": ("dim_budget", "CQDEC_DIM_BUDGET"),
    "set_limit": ("set_budget", "CQDEC_SET_BUDGET"),
    "work_limit": ("work_budget", "CQDEC_WORK_BUDGET"),
}


@dataclass(frozen=True)
class Budgets:
    dim_limit: int = DEFAULT_DIM_LIMIT
    set_limit: int = DEFAULT_SET_LIMIT
    work_limit: int = DEFAULT_WORK_LIMIT

    @classmethod
    def resolve(cls, cfg: ExperimentConfig) -> "Budgets":
        """The budgets of an experiment config: its keys over the defaults, the environment over both."""
        values = {}
        for field, (key, env) in _SOURCES.items():
            raw = os.environ.get(env)
            if raw is None:
                value = getattr(cfg, key)
            else:
                try:
                    value = int(raw)
                except ValueError:
                    raise ConfigError(f"{env} must be an integer, got {raw!r}") from None
                if value < 1:
                    raise ConfigError(f"{env} must be >= 1, got {raw!r}")
            if value is not None:
                values[field] = value
        return cls(**values)

    def require(self, what: str, *, dim: int = 0, set: int = 0, work: int = 0) -> None:
        """Raise ResourceBudgetError(reason) for the first amount over its limit: dim, set, work."""
        for reason, amount, limit in (
            ("dim", dim, min(self.dim_limit, _INDEX_DIM_CAP)),
            ("set", set, self.set_limit),
            ("work", work, self.work_limit),
        ):
            if amount > limit:
                raise ResourceBudgetError(
                    f"{what}: {amount} over {reason} budget {limit}", reason=reason
                )

    def fit(self, per_item: int) -> int:
        """How many items of ``per_item`` numbers work_limit holds; at least 1."""
        return max(1, self.work_limit // max(per_item, 1))


DEFAULT_BUDGETS = Budgets()
