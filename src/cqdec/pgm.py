"""Pretty-Good-Measurement baseline over codeword output states.

G_s = Sigma^(-1/2) q_s rho_s Sigma^(-1/2) with Sigma the uniform mixture of
the codeword outputs and q_s = 1/N; the inverse square root is taken on the
support of Sigma (relative eigenvalue cutoff 1e-12) and the kernel becomes an
explicit residual element so the set is complete.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .channel import CQChannel
from .codebook import Codebook
from .decoder import product_output_state
from .errors import ResourceBudgetError

_SUPPORT_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class PGMSet:
    elements: tuple[np.ndarray, ...]
    residual: np.ndarray
    outputs: tuple[np.ndarray, ...]

    def success_probabilities(self) -> np.ndarray:
        """Tr(G_s rho_s) for every message, as vdot(G_s, rho_s) since G_s is Hermitian."""
        return np.array(
            [float(np.vdot(g, rho).real) for g, rho in zip(self.elements, self.outputs)]
        )


def build_pgm(ch: CQChannel, codebook: Codebook, budgets: Budgets = DEFAULT_BUDGETS) -> PGMSet:
    dim = ch.letter_dim**codebook.n
    if dim > budgets.dim_limit:
        raise ResourceBudgetError(
            f"composite dimension {dim} exceeds dim budget {budgets.dim_limit}", reason="dim"
        )
    if dim * dim > budgets.work_limit:
        raise ResourceBudgetError(
            f"dense {dim}x{dim} PGM construction exceeds work budget", reason="work"
        )
    n_msg = codebook.num_messages
    if n_msg * dim * dim > budgets.work_limit:
        raise ResourceBudgetError(
            f"{n_msg} dense {dim}x{dim} outputs and elements exceed work budget", reason="work"
        )
    outputs = tuple(product_output_state(ch, w) for w in codebook.codewords)
    sigma = sum(outputs) / n_msg
    sigma = 0.5 * (sigma + sigma.conj().T)
    vals, vecs = np.linalg.eigh(sigma)
    cutoff = _SUPPORT_CUTOFF * vals.max()
    inv_sqrt = np.where(vals > cutoff, 1.0 / np.sqrt(np.clip(vals, cutoff, None)), 0.0)
    sigma_inv_half = (vecs * inv_sqrt) @ vecs.conj().T
    support = (vecs * (vals > cutoff)) @ vecs.conj().T
    elements = []
    for rho in outputs:
        g = sigma_inv_half @ (rho / n_msg) @ sigma_inv_half
        elements.append(0.5 * (g + g.conj().T))
    residual = np.eye(dim, dtype=complex) - support
    residual = 0.5 * (residual + residual.conj().T)
    return PGMSet(elements=tuple(elements), residual=residual, outputs=outputs)


def pgm_error_probability(
    ch: CQChannel, codebook: Codebook, budgets: Budgets = DEFAULT_BUDGETS
) -> float:
    """1 - average success probability of the square-root measurement."""
    pgm = build_pgm(ch, codebook, budgets)
    return float(1.0 - pgm.success_probabilities().mean())
