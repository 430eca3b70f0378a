import math

import numpy as np
import pytest

from cqdec.budgets import Budgets
from cqdec.channel import builtin_channel, fixture_channels
from cqdec.codebook import Codebook, sample_codebook
from cqdec.errors import ResourceBudgetError
from cqdec.pgm import build_pgm, pgm_error_probability


def two_word_codebook(n, w0, w1):
    return Codebook(n=n, rate=0.5, seed=0, delta_source=2.0, distinct=True, codewords=(w0, w1))


class TestPGM:
    def test_orthogonal_codewords_error_free(self):
        ch = builtin_channel("classical_bit")
        cb = sample_codebook(ch, 4, 0.5, 2.0, seed=1, distinct=True)
        assert pgm_error_probability(ch, cb) == pytest.approx(0.0, abs=1e-10)

    def test_single_codeword(self):
        ch = builtin_channel("pure_pair", overlap=0.7)
        cb = sample_codebook(ch, 3, 0.0, 2.0, seed=2)
        assert pgm_error_probability(ch, cb) == pytest.approx(0.0, abs=1e-10)

    def test_two_pure_codewords_closed_form(self):
        # oracle: for two equiprobable pure states with overlap c the PGM is
        # the Helstrom measurement, error = (1 - sqrt(1 - c^2)) / 2
        for s in (0.3, 0.5, math.cos(math.pi / 4)):
            ch = builtin_channel("pure_pair", overlap=s)
            cb = two_word_codebook(2, (0, 0), (1, 1))
            c = s**2  # overlap of the two product outputs
            expected = 0.5 * (1.0 - math.sqrt(1.0 - c**2))
            assert pgm_error_probability(ch, cb) == pytest.approx(expected, abs=1e-10)

    def test_completeness_and_positivity(self):
        ch = builtin_channel("depolarized_pair", overlap=0.4, noise=0.3)
        cb = sample_codebook(ch, 4, 0.5, 2.0, seed=3)
        pgm = build_pgm(ch, cb)
        elements = [pgm.residual, *pgm.elements]
        assert np.abs(sum(elements) - np.eye(pgm.residual.shape[0])).max() < 1e-9
        assert min(float(np.linalg.eigvalsh(e).min()) for e in elements) >= -1e-10

    def test_duplicate_codewords_split_success(self):
        ch = builtin_channel("classical_bit")
        cb = Codebook(n=2, rate=0.5, seed=0, delta_source=2.0, distinct=False,
                      codewords=((0, 1), (0, 1)))
        pgm = build_pgm(ch, cb)
        probs = pgm.success_probabilities()
        # identical outputs: the PGM splits the shared state evenly
        assert np.allclose(probs, 0.5, atol=1e-10)

    @pytest.mark.parametrize("name", sorted(fixture_channels()))
    def test_success_probabilities_match_the_trace_of_the_product(self, name):
        # oracle: Tr(G_s rho_s) from the full d^n x d^n product
        ch = fixture_channels()[name]
        cb = sample_codebook(ch, 4, 0.5, 2.0, seed=4)
        pgm = build_pgm(ch, cb)
        dense = [float(np.trace(g @ rho).real) for g, rho in zip(pgm.elements, pgm.outputs)]
        assert np.abs(pgm.success_probabilities() - dense).max() <= 1e-12

    def test_codebook_wide_work_budget(self):
        # N dense d^n x d^n outputs and elements: 4 * 4^2 = 64 numbers each
        ch = builtin_channel("pure_pair", overlap=0.7)
        cb = Codebook(n=2, rate=1.0, seed=0, delta_source=2.0, distinct=False,
                      codewords=((0, 0), (0, 1), (1, 0), (1, 1)))
        assert len(build_pgm(ch, cb, Budgets(work_limit=64)).elements) == 4
        with pytest.raises(ResourceBudgetError) as exc:
            build_pgm(ch, cb, Budgets(work_limit=63))
        assert exc.value.reason == "work"
