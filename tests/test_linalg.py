import math

import numpy as np
import pytest

from cqdec.errors import ValidationError
from cqdec.linalg import spectral_decompose

from conftest import (
    random_hermitian,
    random_state,
    random_unitary,
    shannon_entropy,
    von_neumann_entropy,
)


def binary_entropy(x: float) -> float:
    # independent closed form used as oracle for 2x2 spectra
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


class TestSpectralDecompose:
    def test_isotropic(self):
        dec = spectral_decompose(np.eye(2) / 2)
        assert np.allclose(dec.eigenvalues, [0.5, 0.5])

    def test_projector(self):
        dec = spectral_decompose(np.diag([1.0, 0.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 0.0])
        # first eigenvector is |0> up to phase
        assert abs(abs(dec.eigenvectors[0, 0]) - 1.0) < 1e-12

    def test_overlapping_pure_pair(self):
        # oracle: analytic 2x2 diagonalization gives eigenvalues (1 +- s)/2
        s = math.cos(math.pi / 4)
        psi0 = np.array([1.0, 0.0])
        psi1 = np.array([s, math.sqrt(1 - s**2)])
        rho = 0.5 * (np.outer(psi0, psi0) + np.outer(psi1, psi1))
        dec = spectral_decompose(rho)
        assert np.allclose(dec.eigenvalues, [(1 + s) / 2, (1 - s) / 2], atol=1e-12)
        assert abs(dec.eigenvalues[0] - 0.853553) < 1e-6
        assert abs(dec.eigenvalues[1] - 0.146447) < 1e-6

    def test_reconstruction_roundtrip(self, rng):
        for dim in (2, 5, 17, 64):
            a = random_hermitian(rng, dim)
            dec = spectral_decompose(a)
            v = dec.eigenvectors
            assert np.abs((v * dec.eigenvalues) @ v.conj().T - a).max() < 1e-10 * max(
                1, np.abs(a).max())
            assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.abs(gram - np.eye(dim)).max() < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEntropies:
    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-12

    def test_pure_state(self, rng):
        v = random_state(rng, 4)
        assert von_neumann_entropy(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-9)

    def test_two_level_spectrum(self):
        rho = np.diag([0.853553, 0.146447])
        assert von_neumann_entropy(rho) == pytest.approx(binary_entropy(0.853553), abs=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(0.600876, abs=2e-6)

    def test_unitary_invariance(self, rng):
        for dim in (2, 3, 8):
            v = rng.dirichlet(np.ones(dim))
            rho = np.diag(v).astype(complex)
            u = random_unitary(rng, dim)
            rotated = u @ rho @ u.conj().T
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-9

    def test_additivity_on_products(self, rng):
        for da, db in ((2, 2), (2, 4), (3, 8)):
            pa = rng.dirichlet(np.ones(da))
            pb = rng.dirichlet(np.ones(db))
            ua, ub = random_unitary(rng, da), random_unitary(rng, db)
            rho = ua @ np.diag(pa).astype(complex) @ ua.conj().T
            sig = ub @ np.diag(pb).astype(complex) @ ub.conj().T
            lhs = von_neumann_entropy(np.kron(rho, sig))
            rhs = von_neumann_entropy(rho) + von_neumann_entropy(sig)
            assert abs(lhs - rhs) < 1e-9

    def test_validation(self):
        with pytest.raises(ValidationError):
            von_neumann_entropy(np.eye(2))  # trace 2
        with pytest.raises(ValidationError):
            von_neumann_entropy(np.diag([1.5, -0.5]))

    def test_shannon(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
        assert shannon_entropy([1.0, 0.0]) == 0.0
        assert shannon_entropy([0.75, 0.25]) == pytest.approx(binary_entropy(0.75), abs=1e-12)
        assert shannon_entropy([0.75, 0.25]) == pytest.approx(0.811278, abs=1e-6)
        with pytest.raises(ValidationError):
            shannon_entropy([0.7, 0.7])
        with pytest.raises(ValidationError):
            shannon_entropy([1.2, -0.2])

