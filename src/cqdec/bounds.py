"""Finite-n evaluation of every analytic bound in the error analysis.

All checks are soft: they return records with both sides of each inequality
and a flag, never raise on violation, so parameter sweeps can chart where
finite-n behavior departs from the asymptotic statements.  Exponentials are
handled in log2 space to survive large n.

The amplitude lower bound is instantiated with the typicality loss actually
achieved by the restricted operator, epsilon_tilde = 1 - Tr rho_tilde (the
value for which the chain of inequalities is a theorem at every finite n);
the report also carries epsilon_bar = 1 - Tr rho_bar for reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CQChannel, holevo_chi
from .decoder import average_amplitude_powers
from .errors import ValidationError
from .linalg import exp2
from .typicality import MaskedHermitian, TypicalModel

_SOFT_TOL = 1e-9


@dataclass(frozen=True)
class BoundCheck:
    """One inequality instance: lhs <= rhs expected, ok records whether it held."""

    name: str
    index: int
    lhs: float
    rhs: float
    ok: bool


@dataclass(frozen=True)
class GammaBound:
    """Exact gamma = 2^(2 n delta) [(1 + zeta)^m - 1] and its first-order form."""

    gamma: float
    lower_bound: float
    approximation: float
    zeta: float


@dataclass(frozen=True)
class BoundReport:
    n: int
    delta: float
    s_rho: float
    epsilon_bar: float
    epsilon_tilde: float
    checks: tuple[BoundCheck, ...]

    @property
    def violations(self) -> tuple[BoundCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    @property
    def ok(self) -> bool:
        return not self.violations


def trace_power_bound_log2(n: int, s_rho: float, delta: float, j: int) -> float:
    """log2 of the bound on Tr rho_tilde^j."""
    return n * (s_rho * (1 - j) + delta * (1 + j))


def check_trace_power_bounds(
    rho_tilde: MaskedHermitian, n: int, delta: float, s_rho: float, j_max: int = 6
) -> list[BoundCheck]:
    """Tr rho_tilde^j against 2^(n [S (1-j) + delta (1+j)]) for j = 1..j_max; inf past floats."""
    if j_max < 2:
        raise ValidationError("j_max must be >= 2")
    lam = rho_tilde.eigenvalues()
    checks = []
    for j in range(1, j_max + 1):
        lhs = float(np.sum(lam**j)) if lam.size else 0.0
        rhs = exp2(trace_power_bound_log2(n, s_rho, delta, j))
        checks.append(
            BoundCheck(name="trace_power", index=j, lhs=lhs, rhs=rhs, ok=lhs <= rhs + _SOFT_TOL)
        )
    return checks


def gamma_lower_bound(
    n: int, delta: float, epsilon_achieved: float, s_rho: float, m: int
) -> GammaBound:
    """Exact gamma and the lower bound 1 - epsilon - gamma for m chain steps.

    Requires S(rho) > delta (otherwise zeta >= 1 and the asymptotic reasoning
    collapses).  The first-order approximation m * zeta * 2^(2 n delta) is
    returned alongside for comparison.
    """
    if m < 0:
        raise ValidationError("m must be >= 0")
    if s_rho <= delta:
        raise ValidationError(f"need S(rho) > delta, got S={s_rho}, delta={delta}")
    zeta = 2.0 ** (n * (delta - s_rho))
    prefactor = 2.0 ** (2 * n * delta)
    gamma = prefactor * math.expm1(m * math.log1p(zeta))
    approx = prefactor * m * zeta
    return GammaBound(
        gamma=gamma,
        lower_bound=1.0 - epsilon_achieved - gamma,
        approximation=approx,
        zeta=zeta,
    )


def check_amplitude_lower_bound(
    model: TypicalModel, rho_tilde: MaskedHermitian, m_grid
) -> BoundReport:
    """Measured average amplitudes against 1 - epsilon_tilde - gamma(m)."""
    m_grid = sorted(set(int(m) for m in m_grid))
    if m_grid and m_grid[0] < 0:
        raise ValidationError("m values must be >= 0")
    eps_tilde = 1.0 - rho_tilde.trace()
    eps_bar = 1.0 - model.trace_bar
    measured = average_amplitude_powers(rho_tilde, m_grid[-1]) if m_grid else np.empty(0)
    checks = []
    for m in m_grid:
        gb = gamma_lower_bound(model.n, model.delta, eps_tilde, model.s_rho, m)
        lhs = gb.lower_bound
        rhs = float(measured[m])
        checks.append(
            BoundCheck(
                name="amplitude_lower",
                index=m,
                lhs=lhs,
                rhs=rhs,
                ok=rhs >= lhs - _SOFT_TOL,
            )
        )
    return BoundReport(
        n=model.n,
        delta=model.delta,
        s_rho=model.s_rho,
        epsilon_bar=eps_bar,
        epsilon_tilde=eps_tilde,
        checks=tuple(checks),
    )


def rate_condition(ch: CQChannel, rate: float, delta: float) -> float:
    """Margin chi - delta - R; positive is required for the vanishing-error regime."""
    return holevo_chi(ch) - delta - rate
