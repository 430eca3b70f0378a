import json
import math

import numpy as np
import pytest

from cqdec.channel import (
    builtin_channel,
    holevo_chi,
    make_channel,
    parse_channel_document,
)
from cqdec.config import parse_kv_text
from cqdec.errors import ConfigError, ValidationError

from conftest import fixture_channels, random_density, random_unitary


def binary_entropy(x: float) -> float:
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def overlapping_pair(s: float):
    psi0 = np.array([1.0, 0.0])
    psi1 = np.array([s, math.sqrt(1 - s**2)])
    return np.outer(psi0, psi0), np.outer(psi1, psi1)


def random_channel(rng, d: int, a: int):
    priors = rng.dirichlet(np.ones(a))
    while priors.min() < 1e-3:
        priors = rng.dirichlet(np.ones(a))
    outs = [random_density(rng, d) for _ in range(a)]
    return make_channel(priors, outs)


class TestMakeChannel:
    def test_single_letter(self):
        ch = make_channel([1.0], [np.eye(2) / 2])
        assert np.allclose(ch.avg_state, np.eye(2) / 2)
        assert ch.alphabet_size == 1

    def test_classical_bit(self):
        ch = make_channel([0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert np.allclose(ch.avg_state, np.eye(2) / 2)
        assert ch.is_classical

    def test_overlap_pair_spectrum(self):
        s = math.cos(math.pi / 4)
        ch = make_channel([0.5, 0.5], overlapping_pair(s))
        # oracle: analytic 2x2 eigenvalues (1 +- s)/2
        assert np.allclose(ch.avg_probs, [(1 + s) / 2, (1 - s) / 2], atol=1e-12)
        assert not ch.is_classical

    def test_average_consistency(self, rng):
        for _ in range(5):
            ch = random_channel(rng, 3, 3)
            avg = sum(p * m for p, m in zip(ch.priors, ch.outputs))
            assert np.abs(ch.avg_state - avg).max() < 1e-10

    def test_coords_unitary(self, rng):
        ch = random_channel(rng, 4, 2)
        for u in ch.coords:
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10

    def test_rejects_bad_inputs(self):
        good = np.eye(2) / 2
        with pytest.raises(ValidationError):
            make_channel([0.5, 0.5], [good])  # count mismatch
        with pytest.raises(ValidationError):
            make_channel([1.0, 0.0], [good, good])  # zero prior
        with pytest.raises(ValidationError):
            make_channel([0.6, 0.6], [good, good])  # sum != 1
        with pytest.raises(ValidationError):
            make_channel([1.0], [np.eye(2)])  # trace 2
        with pytest.raises(ValidationError):
            make_channel([1.0], [np.diag([1.5, -0.5])])  # not PSD
        with pytest.raises(ValidationError):
            make_channel([0.5, 0.5], [good, np.eye(3) / 3])  # dim mismatch


class TestHolevo:
    def test_identical_outputs(self):
        rho = np.diag([0.7, 0.3])
        ch = make_channel([0.5, 0.5], [rho, rho])
        assert holevo_chi(ch) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pair(self):
        ch = builtin_channel("pure_pair", overlap=0.0)
        assert holevo_chi(ch) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_pair_value(self):
        s = math.cos(math.pi / 4)
        ch = make_channel([0.5, 0.5], overlapping_pair(s))
        # oracle: S(rho) from the analytic eigenvalues; outputs are pure
        expected = binary_entropy((1 + s) / 2)
        assert holevo_chi(ch) == pytest.approx(expected, abs=1e-12)
        assert holevo_chi(ch) == pytest.approx(0.600876, abs=1e-5)

    def test_bounds_on_random_channels(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            a = int(rng.integers(2, 5))
            ch = random_channel(rng, d, a)
            chi = holevo_chi(ch)
            assert 0.0 <= chi <= ch.avg_entropy + 1e-12
            assert chi <= math.log2(d) + 1e-12

    def test_global_unitary_invariance(self, rng):
        ch = random_channel(rng, 3, 3)
        u = random_unitary(rng, 3)
        rotated = make_channel(ch.priors, [u @ m @ u.conj().T for m in ch.outputs])
        assert abs(holevo_chi(rotated) - holevo_chi(ch)) < 1e-9

    def test_merging_letters_reduces_chi(self, rng):
        for _ in range(10):
            ch = random_channel(rng, 3, 3)
            p = ch.priors
            merged_prior = p[1] + p[2]
            merged_out = (p[1] * ch.outputs[1] + p[2] * ch.outputs[2]) / merged_prior
            merged = make_channel([p[0], merged_prior], [ch.outputs[0], merged_out])
            assert holevo_chi(merged) <= holevo_chi(ch) + 1e-12


class TestBuiltins:
    def test_pure_pair_limits(self):
        assert holevo_chi(builtin_channel("pure_pair", overlap=0.0)) == pytest.approx(1.0)
        assert holevo_chi(builtin_channel("pure_pair", overlap=1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_depolarized_pair_value(self):
        ch = builtin_channel("depolarized_pair", overlap=0.0, noise=0.5)
        # oracle: rho_j = diag(0.75, 0.25), rho = I/2, so chi = 1 - h2(0.25)
        assert holevo_chi(ch) == pytest.approx(1.0 - binary_entropy(0.25), abs=1e-12)
        assert holevo_chi(ch) == pytest.approx(0.188722, abs=1e-6)

    def test_trine(self):
        ch = builtin_channel("trine")
        assert ch.alphabet_size == 3
        assert np.abs(ch.avg_state - np.eye(2) / 2).max() < 1e-12

    def test_classical_bit_flip(self):
        ch = builtin_channel("classical_bit", flip=0.1)
        assert holevo_chi(ch) == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-12)

    def test_unknown_name_and_params(self):
        with pytest.raises(ValidationError):
            builtin_channel("nope")
        with pytest.raises(ValidationError):
            builtin_channel("pure_pair", overlap=2.0)
        with pytest.raises(ValidationError):
            builtin_channel("pure_pair", overlap=0.5, bogus=1)
        with pytest.raises(ValidationError):
            builtin_channel("pure_pair")  # missing overlap

    def test_fixture_suite(self):
        fixtures = fixture_channels()
        assert set(fixtures) == {
            "classical_bit",
            "pure_pair_0",
            "pure_pair_05",
            "pure_pair_cos45",
            "depolarized_pair",
        }
        chis = sorted(holevo_chi(c) for c in fixtures.values())
        assert chis[0] == pytest.approx(0.188722, abs=1e-6)
        assert chis[-1] == pytest.approx(1.0, abs=1e-12)


class TestChannelFiles:
    def test_round_trip(self, rng):
        ch = random_channel(rng, 2, 3)
        outputs = [[[[float(e.real), float(e.imag)] for e in row] for row in m]
                   for m in ch.outputs]
        text = (f"letter_dim = {ch.letter_dim}\n"
                f"priors = {json.dumps([float(p) for p in ch.priors])}\n"
                f"outputs = {json.dumps(outputs)}\n")
        back = parse_channel_document(parse_kv_text(text))
        assert np.allclose(back.priors, ch.priors)
        for a, b in zip(back.outputs, ch.outputs):
            assert np.abs(a - b).max() < 1e-15

    def test_builtin_document(self):
        ch = parse_channel_document({"builtin": "pure_pair", "overlap": 0.5})
        assert holevo_chi(ch) > 0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_channel_document({"builtin": "trine", "bogus": 1})

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_channel_document({"letter_dim": 2, "priors": [1.0]})
