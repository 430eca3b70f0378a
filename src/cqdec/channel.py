"""Classical-quantum channel model: priors, output states, spectral caches.

A channel maps a classical letter j (drawn with prior p_j) to a density
matrix rho_j.  Construction eagerly diagonalizes every output and the
average state rho = sum_j p_j rho_j, and caches the change-of-basis
matrices between each output eigenbasis and the average-state eigenbasis;
everything downstream (typicality masks, decoding chains) works in the
average-state eigenbasis where the typical projector is diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import BUILTIN_PARAMS, as_number, as_numbers, builtin_params
from .errors import ConfigError, ValidationError
from .linalg import (
    TOL_EIG,
    TOL_HERM,
    TOL_TRACE,
    SpectralDecomposition,
    as_complex_matrix,
    check_hermitian,
    entropy_of_spectrum,
    spectral_decompose,
)

_PERMUTATION_TOL = 1e-12


@dataclass(frozen=True)
class LetterSpectrum:
    """Spectral cache for one output state.

    ``probs`` keeps only the nonzero eigenvalues (descending): a zero-weight
    eigenvector never occurs in a channel output and would only pollute label
    enumerations.  ``vectors`` is the full unitary eigenvector matrix, so the
    whole output space stays spanned.
    """

    probs: np.ndarray
    vectors: np.ndarray

    @property
    def support(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class CQChannel:
    letter_dim: int
    priors: np.ndarray
    outputs: tuple[np.ndarray, ...]
    letters: tuple[LetterSpectrum, ...]
    avg_state: np.ndarray
    avg_probs: np.ndarray
    coords: tuple[np.ndarray, ...]
    is_classical: bool

    @property
    def alphabet_size(self) -> int:
        return self.priors.shape[0]

    @property
    def avg_entropy(self) -> float:
        """S(rho) in bits."""
        return entropy_of_spectrum(self.avg_probs)

    @property
    def letter_entropies(self) -> np.ndarray:
        return np.array([entropy_of_spectrum(sp.probs) for sp in self.letters])

    @property
    def mean_letter_entropy(self) -> float:
        """sum_j p_j S(rho_j) in bits."""
        return float(self.priors @ self.letter_entropies)

    @cached_property
    def label_cdfs(self) -> tuple[list[float], ...]:
        """Each letter's spectral CDF, normalised as ``rng.choice`` builds it.

        ``cdf = probs.cumsum(); cdf /= cdf[-1]``, so the eigenlabel of a
        uniform u is the count of entries <= u, exactly ``rng.choice``'s draw.
        """
        cdfs = []
        for sp in self.letters:
            cdf = sp.probs.cumsum()
            cdf /= cdf[-1]
            cdfs.append(cdf.tolist())
        return tuple(cdfs)


def _validate_density_matrix(m: np.ndarray, name: str) -> SpectralDecomposition:
    check_hermitian(m, tol=TOL_HERM, name=name)
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TOL_TRACE:
        raise ValidationError(f"{name} must have unit trace, got {tr}")
    dec = spectral_decompose(m)
    if dec.eigenvalues.min() < -TOL_EIG:
        raise ValidationError(f"{name} is not PSD: eigenvalue {dec.eigenvalues.min():.3e}")
    return dec


def _coords_are_permutation(u: np.ndarray) -> bool:
    """True when every column of u has a single unit-modulus entry."""
    mags = np.abs(u)
    top = mags.max(axis=0)
    second = np.partition(mags, -2, axis=0)[-2, :] if u.shape[0] > 1 else np.zeros(u.shape[1])
    return bool(np.all(np.abs(top - 1.0) < 1e-9) and np.all(second < _PERMUTATION_TOL))


def make_channel(priors, outputs) -> CQChannel:
    """Validate and build a channel with all spectral caches populated."""
    p = np.asarray(priors, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValidationError("priors must be a nonempty vector")
    if p.min() <= 0:
        raise ValidationError("every letter must have a strictly positive prior")
    if abs(p.sum() - 1.0) > TOL_TRACE:
        raise ValidationError(f"priors must sum to 1, got {p.sum()!r}")
    if len(outputs) != p.size:
        raise ValidationError(f"{p.size} priors but {len(outputs)} output states")

    mats = tuple(as_complex_matrix(m) for m in outputs)
    d = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != d:
            raise ValidationError(f"output {i} has dim {m.shape[0]}, expected {d}")

    letter_specs = []
    for i, m in enumerate(mats):
        dec = _validate_density_matrix(m, f"output {i}")
        keep = dec.eigenvalues > 0
        letter_specs.append(
            LetterSpectrum(probs=dec.eigenvalues[keep].copy(), vectors=dec.eigenvectors)
        )

    avg = sum(pj * m for pj, m in zip(p, mats))
    avg = 0.5 * (avg + avg.conj().T)
    avg_dec = spectral_decompose(avg)

    v_avg = avg_dec.eigenvectors
    coords = tuple(v_avg.conj().T @ sp.vectors for sp in letter_specs)
    if not any(np.any(u.imag) for u in coords):
        # real coordinates keep every array built from them real
        coords = tuple(np.ascontiguousarray(u.real) for u in coords)
    classical = all(_coords_are_permutation(u) for u in coords)

    return CQChannel(
        letter_dim=d,
        priors=p,
        outputs=mats,
        letters=tuple(letter_specs),
        avg_state=avg,
        avg_probs=avg_dec.eigenvalues,
        coords=coords,
        is_classical=classical,
    )


def holevo_chi(ch: CQChannel) -> float:
    """Holevo quantity chi = S(rho) - sum_j p_j S(rho_j), in bits."""
    chi = ch.avg_entropy - ch.mean_letter_entropy
    if chi < 0:
        if chi < -1e-9:
            raise ValidationError(f"negative Holevo quantity {chi!r} (numerical failure)")
        chi = 0.0
    return chi


def _ket(d: int, k: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[k] = 1.0
    return v


def _pure_pair_states(overlap: float) -> tuple[np.ndarray, np.ndarray]:
    if not 0.0 <= overlap <= 1.0:
        raise ValidationError(f"overlap must be in [0, 1], got {overlap}")
    psi0 = _ket(2, 0)
    psi1 = overlap * _ket(2, 0) + math.sqrt(1.0 - overlap**2) * _ket(2, 1)
    return psi0, psi1


def builtin_channel(name: str, **params) -> CQChannel:
    """Named test channels.

    pure_pair(overlap):        two equiprobable pure states |0> and
                               overlap*|0> + sqrt(1-overlap^2)*|1>.
    classical_bit(flip):       two diagonal outputs of a binary symmetric
                               channel with flip probability ``flip`` (default 0).
    depolarized_pair(overlap, noise):
                               pure_pair states mixed with noise*I/2.
    trine:                     three equiprobable real qubit states 60 degrees apart.
    """
    def take(key, default=None, required=()):
        if key in params:
            return params.pop(key)
        if key in required:
            raise ValidationError(f"builtin '{name}' requires parameter '{key}'")
        return default

    if name == "pure_pair":
        s = float(take("overlap", required=("overlap",)))
        psi0, psi1 = _pure_pair_states(s)
        outs = [np.outer(psi0, psi0.conj()), np.outer(psi1, psi1.conj())]
        priors = [0.5, 0.5]
    elif name == "classical_bit":
        q = float(take("flip", 0.0))
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"flip must be in [0, 1], got {q}")
        outs = [np.diag([1.0 - q, q]).astype(complex), np.diag([q, 1.0 - q]).astype(complex)]
        priors = [0.5, 0.5]
    elif name == "depolarized_pair":
        s = float(take("overlap", required=("overlap",)))
        lam = float(take("noise", required=("noise",)))
        if not 0.0 <= lam <= 1.0:
            raise ValidationError(f"noise must be in [0, 1], got {lam}")
        psi0, psi1 = _pure_pair_states(s)
        eye = np.eye(2, dtype=complex)
        outs = [
            (1.0 - lam) * np.outer(v, v.conj()) + lam * eye / 2.0
            for v in (psi0, psi1)
        ]
        priors = [0.5, 0.5]
    elif name == "trine":
        angles = [0.0, math.pi / 3.0, 2.0 * math.pi / 3.0]
        states = [np.array([math.cos(t), math.sin(t)], dtype=complex) for t in angles]
        outs = [np.outer(v, v.conj()) for v in states]
        priors = [1.0 / 3.0] * 3
    else:
        raise ValidationError(f"unknown builtin channel '{name}'")

    if params:
        raise ValidationError(f"unknown parameters for builtin '{name}': {sorted(params)}")
    return make_channel(priors, outs)


_CHANNEL_FILE_KEYS = {"builtin", *BUILTIN_PARAMS, "letter_dim", "priors", "outputs"}


def _entry(e, name: str) -> complex:
    """A matrix entry: a number or an [re, im] pair of numbers."""
    if isinstance(e, list) and len(e) == 2:
        return complex(as_number(e[0], float, name), as_number(e[1], float, name))
    return complex(as_number(e, float, name))


def _matrix_from_entries(rows, name: str) -> np.ndarray:
    try:
        return np.array([[_entry(e, name) for e in row] for row in rows])
    except (TypeError, ValueError) as exc:  # not a list of rows, or ragged rows
        raise ConfigError(f"{name}: must be a list of rows of equal length") from exc


def parse_channel_document(doc: dict) -> CQChannel:
    """Build a channel from a parsed key-value document (see README schema)."""
    unknown = set(doc) - _CHANNEL_FILE_KEYS
    if unknown:
        raise ConfigError(f"unknown channel keys: {sorted(unknown)}")
    if "builtin" in doc:
        try:
            return builtin_channel(doc["builtin"], **builtin_params(doc))
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
    for key in ("letter_dim", "priors", "outputs"):
        if key not in doc:
            raise ConfigError(f"channel document missing key '{key}'")
    d = as_number(doc["letter_dim"], int, "letter_dim")
    if not isinstance(doc["outputs"], list):
        raise ConfigError("'outputs' must be a JSON list of matrices")
    outs = [_matrix_from_entries(rows, f"output {i}") for i, rows in enumerate(doc["outputs"])]
    for i, m in enumerate(outs):
        if m.shape != (d, d):
            raise ConfigError(f"output {i} has shape {m.shape}, expected ({d}, {d})")
    try:
        return make_channel(as_numbers(doc["priors"], float, "priors"), outs)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc

