"""Pretty-Good-Measurement baseline over codeword output states.

Codeword s's output is rho_s = A_s A_s^dagger for its d^n x K_s Kronecker
factor A_s, the product of the letters' coords[j][:, :support] sqrt(probs).
With A = [A_1 ... A_N] / sqrt(N), Sigma = A A^dagger and Y = Lambda^(-1/4)
V^dagger A on the support of Sigma (relative eigenvalue cutoff 1e-12), the
square-root measurement G_s = Sigma^(-1/2) rho_s Sigma^(-1/2) / N succeeds
with average probability sum_s ||Y_s^dagger Y_s||_F^2 (Hausladen, Jozsa,
Schumacher, Westmoreland & Wootters, PRA 54, 1869, 1996), so no per-message
d^n x d^n output or element is formed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .channel import CQChannel
from .codebook import Codebook
from .linalg import digit_table, product_entries

_SUPPORT_CUTOFF = 1e-12


def pgm_error_probability(
    ch: CQChannel, codebook: Codebook, budgets: Budgets = DEFAULT_BUDGETS
) -> float:
    """1 - average success probability of the square-root measurement.

    The letters' factors sit side by side in one table, so A is one
    product_entries call whose column digits index that table.
    """
    d, n, n_msg = ch.letter_dim, codebook.n, codebook.num_messages
    dim = d**n
    supports = [sp.support for sp in ch.letters]
    widths = [math.prod(supports[j] for j in word) for word in codebook.codewords]
    # one work count covers the d^n x d^n mixture and the d^n x K factor matrix
    budgets.require(
        f"PGM of a {dim}x{dim} mixture and {dim}x{sum(widths)} factors",
        dim=dim, work=dim * max(dim, sum(widths)),
    )
    table = np.concatenate(
        [u[:, :sp.support] * np.sqrt(sp.probs) for u, sp in zip(ch.coords, ch.letters)], axis=1
    )
    offsets = np.cumsum([0] + supports)
    cols = np.array(
        [[offsets[j] + k for j, k in zip(word, labels)]
         for word in codebook.codewords
         for labels in itertools.product(*(range(supports[j]) for j in word))]
    )
    a = product_entries([table] * n, digit_table(d, n), cols)
    sigma = a @ a.conj().T
    sigma /= n_msg
    vals, vecs = np.linalg.eigh(sigma)  # reads one triangle: Hermitian by construction
    keep = vals > _SUPPORT_CUTOFF * vals.max()
    y = (vecs[:, keep].conj().T @ a) * (vals[keep] ** -0.25 / math.sqrt(n_msg))[:, None]
    blocks = np.split(y, np.cumsum(widths)[:-1], axis=1)
    success = sum(float(np.linalg.norm(ys.conj().T @ ys)) ** 2 for ys in blocks)
    return max(0.0, 1.0 - success)  # a success above 1 is roundoff
