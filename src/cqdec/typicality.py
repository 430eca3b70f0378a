"""Typical sets, the typical-subspace projector, and the operators rho_bar / rho_tilde.

Two flavors of typicality live here, each matching the clause it implements:

* the output projector P uses an entropy window on eigenvalue products of
  the n-fold average state (weak typicality): a product eigenvector with
  weight w is kept iff 2^(-n(S+delta)) <= w <= 2^(-n(S-delta));
* classical input sequences and conditional eigenlabel sequences use
  frequency windows (strong typicality) on letter / label counts.

Everything is expressed in the product eigenbasis of the average state, where
P is a diagonal 0/1 mask and applying it costs O(d^n) instead of a dense
matrix product.  Window boundaries are widened by 1e-9 so a degenerate
eigenvalue cluster is never split by roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .channel import CQChannel
from .errors import ResourceBudgetError, ValidationError
from .linalg import digit_table, product_entries

_WINDOW_WIDEN = 1e-9
_FREQ_WIDEN = 1e-12


@dataclass(frozen=True)
class TypicalityParams:
    """Knobs shared by every typicality construction.

    ``delta`` is used for the output entropy window and, unless overridden,
    for the source and conditional frequency windows as well.
    ``epsilon_target`` is only a reporting target for Tr rho_bar; nothing is
    asserted against it at finite n.
    """

    n: int
    delta: float
    delta_source: float | None = None
    delta_cond: float | None = None
    epsilon_target: float = 0.1

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        for name in ("delta", "delta_source", "delta_cond"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValidationError(f"{name} must be >= 0, got {value}")
        if not 0.0 < self.epsilon_target < 1.0:
            raise ValidationError("epsilon_target must be in (0, 1)")

    @property
    def source_delta(self) -> float:
        return self.delta if self.delta_source is None else self.delta_source

    @property
    def cond_delta(self) -> float:
        return self.delta if self.delta_cond is None else self.delta_cond


def is_typical_sequence(priors, seqs, delta_source: float) -> np.ndarray:
    """Frequency-typicality mask over the rows of a (k, n) block of letter sequences."""
    p = np.asarray(priors, dtype=float)
    seqs = np.asarray(seqs, dtype=int)
    counts = (seqs[:, :, None] == np.arange(p.size)).sum(axis=1)
    return np.all(np.abs(counts / seqs.shape[1] - p) <= delta_source + _FREQ_WIDEN, axis=1)


def _bounded_counts(targets, n_total: int, delta: float, size: int) -> list[tuple[int, ...]]:
    """Count vectors m (sum ``size``) with |m_k/n_total - targets_k| <= delta for every k.

    Vectors come out in lexicographic order.
    """
    bounds = []
    for t in targets:
        lo = math.ceil(n_total * (t - delta) - _FREQ_WIDEN * n_total)
        hi = math.floor(n_total * (t + delta) + _FREQ_WIDEN * n_total)
        bounds.append((max(lo, 0), min(hi, size)))
    out: list[tuple[int, ...]] = []

    def rec(k: int, remaining: int, acc: list[int]):
        if k == len(bounds) - 1:
            lo, hi = bounds[k]
            if lo <= remaining <= hi:
                out.append(tuple(acc + [remaining]))
            return
        lo, hi = bounds[k]
        for m in range(lo, min(hi, remaining) + 1):
            rec(k + 1, remaining - m, acc + [m])

    rec(0, size, [])
    return out


def _multinomial(n: int, counts) -> int:
    total = math.factorial(n)
    for c in counts:
        total //= math.factorial(c)
    return total


def _multiset_permutations(counts: list[int]):
    """All sequences with the given symbol counts, in lexicographic order."""
    total = sum(counts)
    seq: list[int] = []
    work = list(counts)

    def rec():
        if len(seq) == total:
            yield tuple(seq)
            return
        for sym in range(len(work)):
            if work[sym] > 0:
                work[sym] -= 1
                seq.append(sym)
                yield from rec()
                seq.pop()
                work[sym] += 1

    yield from rec()


@dataclass(frozen=True)
class TypicalSet:
    n: int
    delta_source: float
    priors: np.ndarray
    sequences: np.ndarray  # (count, n) int16, lexicographic
    total_prob: float

    @property
    def count(self) -> int:
        return self.sequences.shape[0]


def typical_set_size(priors, n: int, delta_source: float) -> int:
    """Cardinality of the frequency-typical set, without enumerating it."""
    p = np.asarray(priors, dtype=float)
    return sum(_multinomial(n, t) for t in _bounded_counts(p, n, delta_source, n))


def classical_typical_set(
    priors, n: int, delta_source: float, budgets: Budgets = DEFAULT_BUDGETS
) -> TypicalSet:
    """Exact enumeration of letter sequences with typical empirical frequencies."""
    p = np.asarray(priors, dtype=float)
    types = _bounded_counts(p, n, delta_source, n)
    size = sum(_multinomial(n, t) for t in types)
    if size > budgets.set_limit:
        raise ResourceBudgetError(
            f"typical set has {size} members, over set budget {budgets.set_limit}",
            reason="set",
        )
    seqs: list[tuple[int, ...]] = []
    for t in types:
        seqs.extend(_multiset_permutations(list(t)))
    seqs.sort()
    arr = np.array(seqs, dtype=np.int16).reshape(len(seqs), n)
    if len(seqs) == 0:
        arr = np.empty((0, n), dtype=np.int16)
        total = 0.0
    else:
        logs = np.log(p)[arr.astype(int)].sum(axis=1)
        total = float(np.exp(logs).sum())
    return TypicalSet(n=n, delta_source=delta_source, priors=p, sequences=arr, total_prob=total)


@dataclass(frozen=True)
class ConditionalTypicalSet:
    """Eigenlabel sequences spanning the conditional typical subspace of one codeword.

    ``labels[i]`` assigns, for every position, an eigenlabel of the output
    state at that position; ``probs[i]`` is the product of the matching
    conditional eigenvalues.
    """

    j_seq: tuple[int, ...]
    labels: np.ndarray  # (count, n) int16, lexicographic
    probs: np.ndarray
    delta_cond: float

    @property
    def count(self) -> int:
        return self.labels.shape[0]

    @property
    def total_prob(self) -> float:
        return float(self.probs.sum())


class _ClassBlockCache:
    """Per-(letter, class size) enumeration of admissible label subsequences.

    The frequency window |m_k/n - p_j * p_(k|j)| <= delta_cond depends only on
    the letter and on how many positions carry it, so blocks are shared across
    codewords of equal type, and so is each type's label table (see
    ``type_table``).
    """

    def __init__(self, ch: CQChannel, n_total: int, delta_cond: float):
        self.ch = ch
        self.n_total = n_total
        self.delta = delta_cond
        self._blocks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._counts: dict[tuple[int, int], int] = {}
        self._sizes: dict[tuple, int] = {}
        self._tables: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def count(self, letter: int, size: int) -> int:
        key = (letter, size)
        if key not in self._counts:
            self._counts[key] = sum(
                _multinomial(size, m) for m in self._count_vectors(letter, size)
            )
        return self._counts[key]

    def type_size(self, key: tuple) -> int:
        """Label sequences of a type: the product of its class block sizes."""
        if key not in self._sizes:
            self._sizes[key] = math.prod(self.count(j, m) for j, m in key)
        return self._sizes[key]

    def _count_vectors(self, letter: int, size: int) -> list[tuple[int, ...]]:
        targets = float(self.ch.priors[letter]) * self.ch.letters[letter].probs
        return _bounded_counts(targets, self.n_total, self.delta, size)

    def block(self, letter: int, size: int) -> tuple[np.ndarray, np.ndarray]:
        key = (letter, size)
        if key not in self._blocks:
            spectrum = self.ch.letters[letter]
            seqs: list[tuple[int, ...]] = []
            for m in self._count_vectors(letter, size):
                seqs.extend(_multiset_permutations(list(m)))
            seqs.sort()
            labels = (
                np.array(seqs, dtype=np.int16).reshape(len(seqs), size)
                if seqs
                else np.empty((0, size), dtype=np.int16)
            )
            if len(seqs):
                probs = np.prod(spectrum.probs[labels.astype(int)], axis=1)
            else:
                probs = np.empty(0)
            self._blocks[key] = (labels, probs)
        return self._blocks[key]

    def type_table(self, key: tuple) -> tuple[np.ndarray, np.ndarray]:
        """A type's label sequences and their probs, columns in class order.

        The rows run through the Cartesian product of the class blocks, the
        last class fastest.
        """
        if key not in self._tables:
            total = self.type_size(key)
            labels = np.empty((total, self.n_total), dtype=np.int16)
            probs = np.ones(total)
            reps_after, at = total, 0
            for j, m in key if total else ():
                blk, blk_probs = self.block(j, m)
                c = blk.shape[0]
                reps_after //= c
                idx = np.tile(np.repeat(np.arange(c), reps_after), total // (reps_after * c))
                labels[:, at:at + m] = blk[idx]
                probs *= blk_probs[idx]
                at += m
            self._tables[key] = (labels, probs)
        return self._tables[key]


def _letter_type(j_seq) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """A sequence's type, its (letter, class size) pairs by letter, and its class order.

    The class order lists the positions of each letter in turn, ascending.
    """
    arr = np.asarray(j_seq, dtype=int)
    key = tuple((j, c) for j, c in enumerate(np.bincount(arr).tolist()) if c)
    return key, np.argsort(arr, kind="stable")


def _assemble_labels(
    cache: _ClassBlockCache, key: tuple, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All admissible full label sequences for one codeword, and their probs.

    The table of the codeword's type ``key`` with its columns moved back to
    the codeword's positions, ``order`` its class order (see _letter_type).
    """
    table, probs = cache.type_table(key)
    labels = np.empty_like(table)
    labels[:, order] = table
    return labels, probs


def conditional_typical_outputs(
    ch: CQChannel,
    j_seq,
    delta_cond: float,
    budgets: Budgets = DEFAULT_BUDGETS,
    cache: _ClassBlockCache | None = None,
) -> ConditionalTypicalSet:
    """Eigenlabel sequences whose per-letter label counts are frequency-typical.

    The count window for label k of letter j is
    |m_jk/n - p_j * p_(k|j)| <= delta_cond, applied within the positions of
    ``j_seq`` that carry letter j (letters absent from ``j_seq`` impose no
    constraint).  Labels with zero conditional eigenvalue never appear.
    ``cache`` shares label tables between calls with the same channel, n and
    delta_cond; without it every call enumerates its own.
    """
    j_tuple = tuple(map(int, j_seq))
    if min(j_tuple, default=0) < 0 or max(j_tuple, default=0) >= ch.alphabet_size:
        raise ValidationError(f"letters must be in [0, {ch.alphabet_size})")
    if cache is None:
        cache = _ClassBlockCache(ch, len(j_tuple), delta_cond)
    elif cache.ch is not ch or cache.n_total != len(j_tuple) or cache.delta != delta_cond:
        raise ValidationError("cache was built for another channel, n or delta_cond")
    key, order = _letter_type(j_tuple)
    size = cache.type_size(key)
    if size > budgets.set_limit:
        raise ResourceBudgetError(
            f"conditional typical set has {size} members, over set budget {budgets.set_limit}",
            reason="set",
        )
    labels, probs = _assemble_labels(cache, key, order)
    count = labels.shape[0]
    order = np.lexsort(labels.T[::-1]) if count > 1 else np.arange(count)
    return ConditionalTypicalSet(
        j_seq=j_tuple, labels=labels[order], probs=probs[order], delta_cond=delta_cond
    )


@dataclass(frozen=True)
class TypicalModel:
    """Typical-subspace mask and the diagonal of rho_bar, in the product eigenbasis."""

    n: int
    letter_dim: int
    delta: float
    epsilon_target: float
    s_rho: float
    mask: np.ndarray  # bool over all d^n product eigenvectors
    masked_indices: np.ndarray
    masked_digits: np.ndarray  # (dim_H, n) eigenlabel digits of the kept basis vectors
    rho_bar_diag: np.ndarray
    trace_bar: float

    @property
    def dim_total(self) -> int:
        return self.letter_dim**self.n

    @property
    def dim_H(self) -> int:
        return int(self.masked_indices.shape[0])

    @property
    def meets_epsilon_target(self) -> bool:
        return self.trace_bar > 1.0 - self.epsilon_target

    @property
    def eigenvalue_cap(self) -> float:
        """2^(-n(S-delta)): the bound every eigenvalue of rho_bar must satisfy."""
        return 2.0 ** (-self.n * (self.s_rho - self.delta))

    @property
    def dim_cap(self) -> float:
        """2^(n(S+delta)): the bound on dim(H)."""
        return 2.0 ** (self.n * (self.s_rho + self.delta))


def build_typical_model(
    ch: CQChannel, params: TypicalityParams, budgets: Budgets = DEFAULT_BUDGETS
) -> TypicalModel:
    """Mask the product eigenbasis of the n-fold average state by the entropy window."""
    n, d = params.n, ch.letter_dim
    dim = d**n
    if dim > budgets.dim_limit:
        raise ResourceBudgetError(
            f"composite dimension {dim} exceeds dim budget {budgets.dim_limit}", reason="dim"
        )
    digits = digit_table(d, n)
    products = np.prod(ch.avg_probs[digits.astype(int)], axis=1)
    s_rho = ch.avg_entropy
    lo = -n * (s_rho + params.delta) - _WINDOW_WIDEN
    hi = -n * (s_rho - params.delta) + _WINDOW_WIDEN
    with np.errstate(divide="ignore"):
        logs = np.log2(products)
    mask = (logs >= lo) & (logs <= hi)
    masked_indices = np.nonzero(mask)[0]
    return TypicalModel(
        n=n,
        letter_dim=d,
        delta=params.delta,
        epsilon_target=params.epsilon_target,
        s_rho=s_rho,
        mask=mask,
        masked_indices=masked_indices,
        masked_digits=digits[mask],
        rho_bar_diag=products[mask],
        trace_bar=float(products[mask].sum()),
    )


@dataclass(frozen=True)
class MaskedHermitian:
    """Hermitian operator on the typical subspace, in the masked basis.

    Exactly one of ``diag`` / ``dense`` is set.  Classical channels produce
    diagonal operators, which keeps n = 12 instances cheap.
    """

    diag: np.ndarray | None = None
    dense: np.ndarray | None = None

    def __post_init__(self):
        if (self.diag is None) == (self.dense is None):
            raise ValidationError("exactly one of diag/dense must be given")

    @property
    def dim(self) -> int:
        return self.diag.shape[0] if self.diag is not None else self.dense.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self.diag is not None

    def as_dense(self) -> np.ndarray:
        if self.dense is not None:
            return self.dense
        return np.diag(self.diag.astype(complex))

    def trace(self) -> float:
        if self.diag is not None:
            return float(self.diag.sum())
        return float(np.trace(self.dense).real)

    def eigenvalues(self) -> np.ndarray:
        """Spectrum, descending."""
        if self.dim == 0:
            return np.empty(0)
        if self.diag is not None:
            return np.sort(self.diag)[::-1].copy()
        return np.linalg.eigvalsh(self.dense)[::-1].copy()


def build_rho_tilde(
    ch: CQChannel,
    params: TypicalityParams,
    model: TypicalModel,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> MaskedHermitian:
    """P (sum over typical inputs and conditional-typical outputs) P.

    The double sum runs over frequency-typical letter sequences and, per
    sequence, over its conditional-typical eigenlabel sequences, with weights
    p(sequence) * p(labels | sequence); the result is masked to the typical
    subspace and returned in the masked basis.
    """
    tset = classical_typical_set(ch.priors, params.n, params.source_delta, budgets)
    cache = _ClassBlockCache(ch, params.n, params.cond_delta)
    types = [_letter_type(row) for row in tset.sequences]
    counts = [cache.type_size(key) for key, _ in types]
    total_pairs = sum(counts)
    if total_pairs > budgets.set_limit:
        raise ResourceBudgetError(
            f"{total_pairs} (sequence, label) pairs exceed set budget {budgets.set_limit}",
            reason="set",
        )

    dim_h = model.dim_H
    n, d = params.n, ch.letter_dim
    seq_logp = np.log(ch.priors)
    if ch.is_classical:
        rowmaps = [np.abs(u).argmax(axis=0) for u in ch.coords]
        powers = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
        rank = np.full(model.dim_total, -1, dtype=np.int64)
        rank[model.masked_indices] = np.arange(dim_h)
        diag = np.zeros(dim_h)
        for row, kind, c in zip(tset.sequences, types, counts):
            if c == 0:
                continue
            labels, probs = _assemble_labels(cache, *kind)
            p_seq = math.exp(float(seq_logp[row.astype(int)].sum()))
            rows = np.empty(labels.shape, dtype=np.int64)
            for i in range(n):
                rows[:, i] = rowmaps[int(row[i])][labels[:, i].astype(int)]
            idx = rows @ powers
            r = rank[idx]
            keep = r >= 0
            np.add.at(diag, r[keep], p_seq * probs[keep])
        return MaskedHermitian(diag=diag)

    acc = np.zeros((dim_h, dim_h), dtype=complex)
    pending_cols: list[np.ndarray] = []
    pending_w: list[np.ndarray] = []
    pending_total = 0
    flush_at = max(1, budgets.work_limit // max(dim_h, 1))

    def flush():
        nonlocal pending_total
        if not pending_cols:
            return
        w = np.concatenate(pending_w)
        cols = np.concatenate(pending_cols, axis=1)
        acc[...] += (cols * w) @ cols.conj().T
        pending_cols.clear()
        pending_w.clear()
        pending_total = 0

    for row, kind, c in zip(tset.sequences, types, counts):
        if c == 0:
            continue
        if dim_h * c > budgets.work_limit:
            raise ResourceBudgetError(
                f"dense rho_tilde block of {dim_h}x{c} exceeds work budget",
                reason="work",
            )
        labels, probs = _assemble_labels(cache, *kind)
        p_seq = math.exp(float(seq_logp[row.astype(int)].sum()))
        cols = product_entries([ch.coords[int(j)] for j in row], model.masked_digits, labels)
        pending_cols.append(cols)
        pending_w.append(p_seq * probs)
        pending_total += labels.shape[0]
        if pending_total >= flush_at:
            flush()
    flush()
    acc = 0.5 * (acc + acc.conj().T)
    return MaskedHermitian(dense=acc)


def subordination_gap(rho_tilde: MaskedHermitian, model: TypicalModel) -> float:
    """Largest eigenvalue of rho_tilde - rho_bar; <= 0 certifies rho_tilde <= rho_bar."""
    if model.dim_H == 0:
        return 0.0
    if rho_tilde.is_diagonal:
        return float((rho_tilde.diag - model.rho_bar_diag).max())
    diff = rho_tilde.dense - np.diag(model.rho_bar_diag.astype(complex))
    return float(np.linalg.eigvalsh(diff).max())
