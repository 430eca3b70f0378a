"""Random codebooks of typical input sequences at a target rate.

Codewords are sampled i.i.d. from the letter prior with rejection of
non-typical sequences, so repeated codewords are possible by default (that is
what the random-coding average is over).  A ``distinct`` mode rejects
collisions for small-n experiments where they would dominate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .channel import CQChannel
from .errors import ValidationError
from .typicality import is_typical_sequence, typical_set_size

_SNAP = 1e-9


def codeword_count(n: int, rate: float) -> int:
    """ceil(2^(nR)), snapping values within 1e-9 of an integer first."""
    x = 2.0 ** (n * rate)
    nearest = round(x)
    if abs(x - nearest) < _SNAP * max(1.0, nearest):
        return int(nearest)
    return int(math.ceil(x))


@dataclass(frozen=True)
class Codebook:
    n: int
    rate: float
    seed: int
    delta_source: float
    distinct: bool
    codewords: tuple[tuple[int, ...], ...]

    @property
    def num_messages(self) -> int:
        return len(self.codewords)


def sample_codebook(
    ch: CQChannel,
    n: int,
    rate: float,
    delta_source: float,
    seed: int,
    distinct: bool = False,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> Codebook:
    """Draw ceil(2^(nR)) typical codewords, deterministically in ``seed``."""
    # 2^(nR) overflows a float from nR = 1024, a count past any set budget
    target = codeword_count(n, rate) if n * rate < 1024 else math.inf
    budgets.require(f"codebook of 2^{n * rate:g} codewords", set=target)
    available = typical_set_size(ch.priors, n, delta_source)
    if available == 0:
        raise ValidationError(
            f"typical set at n={n}, delta_source={delta_source} is empty; "
            "increase delta_source or n"
        )
    if distinct and target > available:
        raise ValidationError(
            f"cannot draw {target} distinct codewords from a typical set of {available}"
        )
    # rng.choice(d, size=n, p=priors) reads n uniforms through this CDF, and a
    # block of rows reads the same stream.  A block has a row per missing
    # codeword, so it never overshoots the target
    cdf = ch.priors.cumsum()
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    words: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    # the typical set is nonempty, so rejection terminates with probability 1
    while len(words) < target:
        block = cdf.searchsorted(rng.random((target - len(words), n)), side="right")
        for seq in map(tuple, block[is_typical_sequence(ch.priors, block, delta_source)].tolist()):
            if distinct:
                if seq in seen:
                    continue
                seen.add(seq)
            words.append(seq)
    return Codebook(
        n=n,
        rate=rate,
        seed=seed,
        delta_source=delta_source,
        distinct=distinct,
        codewords=tuple(words),
    )
