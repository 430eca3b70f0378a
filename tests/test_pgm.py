"""The square-root measurement against its dense construction and the Helstrom bound.

dense_pgm builds the PGM the long way, with N dense d^n x d^n outputs and
elements G_s = Sigma^(-1/2) rho_s Sigma^(-1/2) / N and a residual on the
kernel of Sigma; pgm_error_probability must agree with it on fixture and
random qubit and qutrit channels.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqdec.budgets import Budgets
from cqdec.channel import builtin_channel
from cqdec.codebook import Codebook, sample_codebook
from cqdec.decoder import product_output_state
from cqdec.errors import ResourceBudgetError
from cqdec.pgm import pgm_error_probability

from conftest import channel_cases, fixture_channels

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def two_word_codebook(n, w0, w1):
    return Codebook(n=n, rate=0.5, seed=0, delta_source=2.0, distinct=True, codewords=(w0, w1))


def dense_pgm(ch, codebook):
    """Outputs, elements and residual of the PGM from N dense d^n x d^n outputs.

    The inverse square root of Sigma is taken on its support (relative
    eigenvalue cutoff 1e-12); the residual is the projector on its kernel.
    """
    dim = ch.letter_dim**codebook.n
    n_msg = codebook.num_messages
    outputs = [product_output_state(ch, w) for w in codebook.codewords]
    sigma = sum(outputs) / n_msg
    vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    cutoff = 1e-12 * vals.max()
    inv_sqrt = np.where(vals > cutoff, 1.0 / np.sqrt(np.clip(vals, cutoff, None)), 0.0)
    sigma_inv_half = (vecs * inv_sqrt) @ vecs.conj().T
    elements = []
    for rho in outputs:
        g = sigma_inv_half @ (rho / n_msg) @ sigma_inv_half
        elements.append(0.5 * (g + g.conj().T))
    residual = np.eye(dim) - (vecs * (vals > cutoff)) @ vecs.conj().T
    return outputs, elements, 0.5 * (residual + residual.conj().T)


def dense_pgm_error(ch, codebook):
    """1 - (1/N) sum_s Tr(G_s rho_s) from the full d^n x d^n product."""
    outputs, elements, _ = dense_pgm(ch, codebook)
    return 1.0 - float(np.mean([np.trace(g @ rho).real for g, rho in zip(elements, outputs)]))


@st.composite
def codebook_cases(draw, min_words=1, max_words=4):
    """A random channel and a codebook of a few random, possibly repeated, codewords."""
    ch, n = draw(channel_cases())
    words = draw(st.lists(st.lists(st.integers(0, ch.alphabet_size - 1), min_size=n, max_size=n),
                          min_size=min_words, max_size=max_words))
    return ch, Codebook(n=n, rate=0.0, seed=0, delta_source=2.0, distinct=False,
                        codewords=tuple(tuple(w) for w in words))


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
        # the dense reference is a POVM: its elements and residual sum to the
        # identity and none has a negative eigenvalue
        ch = builtin_channel("depolarized_pair", overlap=0.4, noise=0.3)
        cb = sample_codebook(ch, 4, 0.5, 2.0, seed=3)
        _, elements, residual = dense_pgm(ch, cb)
        elements = [residual, *elements]
        assert np.abs(sum(elements) - np.eye(residual.shape[0])).max() < 1e-9
        assert min(float(np.linalg.eigvalsh(e).min()) for e in elements) >= -1e-10

    def test_duplicate_codewords_split_success(self):
        # identical outputs: the PGM splits the shared state evenly
        ch = builtin_channel("classical_bit")
        cb = Codebook(n=2, rate=0.5, seed=0, delta_source=2.0, distinct=False,
                      codewords=((0, 1), (0, 1)))
        assert pgm_error_probability(ch, cb) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(fixture_channels()))
    def test_success_probabilities_match_the_trace_of_the_product(self, name):
        # oracle: Tr(G_s rho_s) from the full d^n x d^n product
        ch = fixture_channels()[name]
        cb = sample_codebook(ch, 4, 0.5, 2.0, seed=4)
        assert abs(pgm_error_probability(ch, cb) - dense_pgm_error(ch, cb)) <= 1e-12

    def test_codebook_wide_work_budget(self):
        # full-rank letters: K = 4 codewords x 4 columns and d^n = 4, so the
        # output factors need d^n K = 64 numbers and the mixture d^2n = 16
        ch = builtin_channel("depolarized_pair", overlap=0.4, noise=0.3)
        cb = Codebook(n=2, rate=1.0, seed=0, delta_source=2.0, distinct=False,
                      codewords=((0, 0), (0, 1), (1, 0), (1, 1)))
        assert pgm_error_probability(ch, cb, Budgets(work_limit=64)) == pytest.approx(
            dense_pgm_error(ch, cb), abs=1e-12)
        with pytest.raises(ResourceBudgetError) as exc:
            pgm_error_probability(ch, cb, Budgets(work_limit=63))
        assert exc.value.reason == "work"

    def test_mixture_and_dim_budgets(self):
        # one rank-one codeword: d^n K = 4, but the d^n x d^n mixture needs 16
        ch = builtin_channel("pure_pair", overlap=0.7)
        cb = Codebook(n=2, rate=0.0, seed=0, delta_source=2.0, distinct=False,
                      codewords=((0, 1),))
        assert pgm_error_probability(ch, cb, Budgets(work_limit=16)) == pytest.approx(
            0.0, abs=1e-12)
        with pytest.raises(ResourceBudgetError) as exc:
            pgm_error_probability(ch, cb, Budgets(work_limit=15))
        assert exc.value.reason == "work"
        with pytest.raises(ResourceBudgetError) as exc:
            pgm_error_probability(ch, cb, Budgets(dim_limit=3))
        assert exc.value.reason == "dim"


@SETTINGS
@given(codebook_cases())
def test_pgm_matches_the_dense_construction(case):
    ch, cb = case
    assert abs(pgm_error_probability(ch, cb) - dense_pgm_error(ch, cb)) <= 1e-12


@SETTINGS
@given(codebook_cases(min_words=2, max_words=2))
def test_pgm_error_is_never_below_the_helstrom_error(case):
    # two equiprobable messages: no measurement errs less than
    # (1 - ||rho_0 - rho_1||_1 / 2) / 2
    ch, cb = case
    rho0, rho1 = (product_output_state(ch, w) for w in cb.codewords)
    trace_norm = float(np.abs(np.linalg.eigvalsh(rho0 - rho1)).sum())
    assert pgm_error_probability(ch, cb) >= 0.5 * (1.0 - 0.5 * trace_norm) - 1e-12
