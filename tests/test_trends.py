"""Deterministic exact-oracle trend checks at desk scale.

These complement the Monte Carlo capacity-trend criterion with assertions on
the exact POVM error, which is free of sampling noise: over-capacity rates
misdecode strictly more, and doubling the block length at a rate below
chi - delta strictly helps.
"""

import math

from cqdec.channel import builtin_channel
from cqdec.codebook import sample_codebook
from cqdec.decoder import build_plan, build_povm, exact_error_probability
from cqdec.experiments import point_seed
from cqdec.typicality import TypicalityParams

COS45 = math.cos(math.pi / 4)


def exact_err(ch, n, rate, delta, seed):
    cb = sample_codebook(ch, n, rate, delta, seed)
    plan = build_plan(cb, ch, TypicalityParams(n=n, delta=delta))
    return exact_error_probability(build_povm(plan)).p_err


def test_over_capacity_rate_is_strictly_worse():
    ch = builtin_channel("pure_pair", overlap=COS45)
    for n in (6, 8):
        seed = point_seed(7, n, 0)
        low = exact_err(ch, n, 0.3, 0.2, seed)
        high = exact_err(ch, n, 0.9, 0.2, seed)
        assert high > low + 0.01, (n, low, high)


def test_longer_blocks_strictly_help_below_capacity():
    ch = builtin_channel("pure_pair", overlap=COS45)
    short = exact_err(ch, 6, 0.3, 0.2, point_seed(7, 1, 0))
    long = exact_err(ch, 10, 0.3, 0.2, point_seed(7, 3, 0))
    assert long < short - 0.1, (short, long)
