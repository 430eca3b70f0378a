"""Typical sets, the typical-subspace projector, and the operators rho_bar / rho_tilde.

Two flavors of typicality live here, each matching the clause it implements:

* the output projector P uses an entropy window on eigenvalue products of
  the n-fold average state (weak typicality): a product eigenvector with
  weight w is kept iff 2^(-n(S+delta)) <= w <= 2^(-n(S-delta));
* classical input sequences and conditional eigenlabel sequences use
  frequency windows (strong typicality) on letter / label counts: one
  count-bounds computation serves both, enumerated by _window_sequences,
  counted by _window_size and read by is_typical_sequence.

All three are unions of type classes, so one enumerator, _type_sequences,
expands count vectors into their sequences for all of them.  Everything is
expressed in the product eigenbasis of the average state, where P is the
list of kept eigenvectors (masked_indices / masked_digits): it is found per
eigenlabel count vector, never by a scan of all d^n labels.  Window
boundaries are widened by 1e-9 so a degenerate eigenvalue cluster is never
split by roundoff.

A sequence's conditional label window depends only on its type, so
conditional_labels works on a block of sequences at type scale: one label
table per type, scattered to all of the type's rows at once.  The decoder's
plan and build_rho_tilde both read their labels through it.

A dense rho_tilde takes the dtype of the channel's coords, real for a real
channel; the diagonals of rho_bar and of a classical rho_tilde are real
either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .channel import CQChannel
from .errors import ValidationError
from .linalg import exp2, product_entries

_WINDOW_WIDEN = 1e-9
_FREQ_WIDEN = 1e-12


@dataclass(frozen=True)
class TypicalityParams:
    """Knobs shared by every typicality construction.

    ``delta`` is used for the output entropy window and, unless overridden,
    for the source and conditional frequency windows as well.
    """

    n: int
    delta: float
    delta_source: float | None = None
    delta_cond: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        for name in ("delta", "delta_source", "delta_cond"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValidationError(f"{name} must be >= 0, got {value}")

    @property
    def source_delta(self) -> float:
        return self.delta if self.delta_source is None else self.delta_source

    @property
    def cond_delta(self) -> float:
        return self.delta if self.delta_cond is None else self.delta_cond


def _count_bounds(targets, n_total: int, delta: float, size: int) -> tuple[list, list]:
    """Per-symbol count bounds of the window |m_k/n_total - targets_k| <= delta, out of ``size``."""
    lo, hi = [], []
    for t in targets:
        lo.append(max(math.ceil(n_total * (t - delta) - _FREQ_WIDEN * n_total), 0))
        hi.append(min(math.floor(n_total * (t + delta) + _FREQ_WIDEN * n_total), size))
    return lo, hi


def _window_counts(lo, hi, size: int) -> list[tuple[int, ...]]:
    """Count vectors m (sum ``size``) with lo_k <= m_k <= hi_k, in lexicographic order."""
    out: list[tuple[int, ...]] = []

    def rec(k: int, remaining: int, acc: list[int]):
        if k == len(lo) - 1:
            if lo[k] <= remaining <= hi[k]:
                out.append(tuple(acc + [remaining]))
            return
        for m in range(lo[k], min(hi[k], remaining) + 1):
            rec(k + 1, remaining - m, acc + [m])

    rec(0, size, [])
    return out


def _window_size(targets, n_total: int, delta: float, size: int) -> int:
    """How many sequences of length ``size`` have their counts inside the window."""
    counts = _window_counts(*_count_bounds(targets, n_total, delta, size), size)
    return sum(_multinomial(size, m) for m in counts)


def _window_sequences(targets, n_total: int, delta: float, size: int) -> np.ndarray:
    """(count, size) int16 array of the sequences inside the window, lexicographic."""
    counts = _window_counts(*_count_bounds(targets, n_total, delta, size), size)
    return _type_sequences(counts, len(targets), size)


def _type_sequences(counts, d: int, size: int) -> np.ndarray:
    """(count, size) int16 array of every sequence of the given count vectors, lexicographic.

    Each position takes one np.nonzero step over every partial sequence's
    remaining counts, which keeps each count vector's sequences in
    lexicographic order; one lexsort merges the count vectors'.
    """
    left = np.array(counts, dtype=np.int64).reshape(-1, d)
    seqs = np.empty((left.shape[0], size), dtype=np.int16)
    for i in range(size):
        parent, symbol = np.nonzero(left)
        left = left[parent]
        left[np.arange(symbol.size), symbol] -= 1
        seqs = seqs[parent]
        seqs[:, i] = symbol
    if len(counts) > 1:
        seqs = seqs[np.lexsort(seqs.T[::-1])]
    return seqs


def _multinomial(n: int, counts) -> int:
    total = math.factorial(n)
    for c in counts:
        total //= math.factorial(c)
    return total


def is_typical_sequence(priors, seqs, delta_source: float) -> np.ndarray:
    """Frequency-typicality mask over the rows of a (k, n) block of letter sequences."""
    seqs = np.asarray(seqs, dtype=int)
    n = seqs.shape[1]
    lo, hi = _count_bounds(np.asarray(priors, dtype=float), n, delta_source, n)
    counts = (seqs[:, :, None] == np.arange(len(lo))).sum(axis=1)
    return np.all((counts >= lo) & (counts <= hi), axis=1)


def typical_set_size(priors, n: int, delta_source: float) -> int:
    """Cardinality of the frequency-typical set, without enumerating it."""
    return _window_size(np.asarray(priors, dtype=float), n, delta_source, n)


def classical_typical_set(
    priors, n: int, delta_source: float, budgets: Budgets = DEFAULT_BUDGETS
) -> np.ndarray:
    """(count, n) int16 array of the letter sequences with typical frequencies, lexicographic."""
    budgets.require("typical set", set=typical_set_size(priors, n, delta_source))
    return _window_sequences(np.asarray(priors, dtype=float), n, delta_source, n)


class _ClassBlockCache:
    """Per-(letter, class size) enumeration of admissible label subsequences.

    The frequency window |m_k/n - p_j * p_(k|j)| <= delta_cond depends only on
    the letter and on how many positions carry it, so blocks are shared across
    the types that hold such a class, and a type's label table is the
    Cartesian product of its blocks (see ``type_table``).
    """

    def __init__(self, ch: CQChannel, n_total: int, delta_cond: float):
        self.ch = ch
        self.n_total = n_total
        self.delta = delta_cond
        self._blocks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._counts: dict[tuple[int, int], int] = {}
        self._sizes: dict[tuple, int] = {}

    def count(self, letter: int, size: int) -> int:
        key = (letter, size)
        if key not in self._counts:
            self._counts[key] = _window_size(self._targets(letter), self.n_total, self.delta, size)
        return self._counts[key]

    def type_size(self, key: tuple) -> int:
        """Label sequences of a type: the product of its class block sizes."""
        if key not in self._sizes:
            self._sizes[key] = math.prod(self.count(j, m) for j, m in key)
        return self._sizes[key]

    def _targets(self, letter: int) -> np.ndarray:
        return float(self.ch.priors[letter]) * self.ch.letters[letter].probs

    def block(self, letter: int, size: int) -> tuple[np.ndarray, np.ndarray]:
        key = (letter, size)
        if key not in self._blocks:
            labels = _window_sequences(self._targets(letter), self.n_total, self.delta, size)
            probs = np.prod(self.ch.letters[letter].probs[labels.astype(int)], axis=1)
            self._blocks[key] = (labels, probs)
        return self._blocks[key]

    def types(self, seqs: np.ndarray, budgets: Budgets) -> tuple[list, list, np.ndarray]:
        """The rows of a (k, n) block of letter sequences grouped by type.

        Returns each type's (letter, class size) key and label table size,
        and each row's type.  More than ``set_limit`` (sequence, label) pairs
        in all is a ResourceBudgetError, raised before any table is built.
        """
        letter_counts = (seqs[:, :, None] == np.arange(self.ch.alphabet_size)).sum(axis=1)
        type_counts, kind = np.unique(letter_counts, axis=0, return_inverse=True)
        kind = kind.reshape(-1)
        keys = [tuple((j, c) for j, c in enumerate(row) if c) for row in type_counts.tolist()]
        sizes = [self.type_size(key) for key in keys]
        total = sum(size * rows for size, rows in zip(sizes, np.bincount(kind).tolist()))
        budgets.require("(sequence, label) pairs", set=total)
        return keys, sizes, kind

    def type_table(self, key: tuple) -> tuple[np.ndarray, np.ndarray]:
        """A type's label sequences and their probs, columns in class order.

        The rows run through the Cartesian product of the class blocks, the
        last class fastest.
        """
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
        return labels, probs


def conditional_labels(
    ch: CQChannel, seqs, delta_cond: float, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conditional typical eigenlabel sequences of every row of a (k, n) block of letter sequences.

    The count window for label k of letter j is
    |m_jk/n - p_j * p_(k|j)| <= delta_cond, applied within the positions of
    a row that carry letter j (letters absent from the row impose no
    constraint).  Labels with zero conditional eigenvalue never appear.

    The window depends only on a row's type, so the rows are grouped by type
    and each type's table (see _ClassBlockCache.type_table) is scattered to
    all of its rows at once, with each row's inverse class order.  Returns
    ``(labels, probs, counts)``: row i owns the ``counts[i]`` consecutive
    label sequences after those of the rows before it, in its type's table
    order, and ``probs`` holds the products of the matching conditional
    eigenvalues.  More than ``set_limit`` (sequence, label) pairs in all is a
    ResourceBudgetError, raised before any table is built.
    """
    seqs = np.asarray(seqs, dtype=int)
    if seqs.size and (seqs.min() < 0 or seqs.max() >= ch.alphabet_size):
        raise ValidationError(f"letters must be in [0, {ch.alphabet_size})")
    n = seqs.shape[1]
    cache = _ClassBlockCache(ch, n, delta_cond)
    keys, sizes, kind = cache.types(seqs, budgets)
    counts = np.array(sizes, dtype=np.int64)[kind]
    total = int(counts.sum())
    labels = np.empty((total, n), dtype=np.int16)
    probs = np.empty(total)
    starts = np.cumsum(counts) - counts
    inverse = np.argsort(np.argsort(seqs, axis=1, kind="stable"), axis=1, kind="stable")
    for t, key in enumerate(keys):
        rows = np.nonzero(kind == t)[0]
        table, table_probs = cache.type_table(key)
        at = (starts[rows, None] + np.arange(table.shape[0])).reshape(-1)
        labels[at] = table[:, inverse[rows]].swapaxes(0, 1).reshape(-1, n)
        probs[at] = np.tile(table_probs, rows.size)
    return labels, probs, counts


@dataclass(frozen=True)
class TypicalModel:
    """Typical subspace H (product eigenvectors at masked_indices) and rho_bar's diagonal on it.

    masked_indices are the kept eigenvectors' base-d indices, ascending, and
    masked_digits their eigenlabel digits in the same (lexicographic) order.
    """

    n: int
    letter_dim: int
    delta: float
    s_rho: float
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
    def eigenvalue_cap(self) -> float:
        """2^(-n(S-delta)): the bound every eigenvalue of rho_bar must satisfy; inf past floats."""
        return exp2(-self.n * (self.s_rho - self.delta))

    @property
    def dim_cap(self) -> float:
        """2^(n(S+delta)): the bound on dim(H); inf past the float range."""
        return exp2(self.n * (self.s_rho + self.delta))


def build_typical_model(
    ch: CQChannel, params: TypicalityParams, budgets: Budgets = DEFAULT_BUDGETS
) -> TypicalModel:
    """The product eigenvectors of the n-fold average state inside the entropy window.

    An eigenvalue depends only on its labels' counts, so the window is tested
    once per count vector, on its first sequence, and the kept ones are
    expanded; no d^n-sized array is formed.
    """
    n, d = params.n, ch.letter_dim
    budgets.require("composite dimension d^n", dim=d**n)
    counts = np.array(_window_counts([0] * d, [n] * d, n))
    firsts = np.repeat(np.tile(np.arange(d), len(counts)), counts.ravel()).reshape(-1, n)
    s_rho = ch.avg_entropy
    lo = -n * (s_rho + params.delta) - _WINDOW_WIDEN
    hi = -n * (s_rho - params.delta) + _WINDOW_WIDEN
    with np.errstate(divide="ignore"):
        logs = np.log2(np.prod(ch.avg_probs[firsts], axis=1))
    digits = _type_sequences(counts[(logs >= lo) & (logs <= hi)], d, n)
    products = np.prod(ch.avg_probs[digits.astype(int)], axis=1)
    masked_indices = digits @ d ** np.arange(n - 1, -1, -1)
    return TypicalModel(
        n=n,
        letter_dim=d,
        delta=params.delta,
        s_rho=s_rho,
        masked_indices=masked_indices,
        masked_digits=digits,
        rho_bar_diag=products,
        trace_bar=float(products.sum()),
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
        return np.diag(self.diag)

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
    seqs = classical_typical_set(ch.priors, params.n, params.source_delta, budgets)
    labels, probs, counts = conditional_labels(ch, seqs, params.cond_delta, budgets)
    p_seq = [math.exp(x) for x in np.log(ch.priors)[seqs].sum(axis=1).tolist()]
    weights = np.repeat(p_seq, counts) * probs
    words = np.repeat(seqs, counts, axis=0)
    dim_h = model.dim_H
    n, d = params.n, ch.letter_dim
    if ch.is_classical:
        # each letter's eigenvector k is the basis vector rowmap[letter, k]
        rowmap = np.array([np.abs(u).argmax(axis=0) for u in ch.coords])
        index = np.zeros(labels.shape[0], dtype=np.int64)  # the base-d composite index
        for j, k in zip(words.T, labels.T):
            index = index * d + rowmap[j, k]
        r = np.searchsorted(model.masked_indices, index)
        keep = np.append(model.masked_indices, -1)[r] == index
        diag = np.zeros(dim_h)
        np.add.at(diag, r[keep], weights[keep])
        return MaskedHermitian(diag=diag)

    budgets.require(f"{dim_h}x{dim_h} rho_tilde", work=dim_h * dim_h)
    # the letters' coords side by side: letter j's column k is table column j*d + k
    table = np.concatenate(ch.coords, axis=1)
    cols = labels + d * words
    acc = np.zeros((dim_h, dim_h), dtype=table.dtype)
    # a chunk keeps two (dim_H, chunk) arrays alive: in product_entries the
    # product and one factor, here the weighted block and the block, which is
    # conjugated in place; together they stay within work_limit
    chunk = budgets.fit(2 * dim_h)
    for at in range(0, cols.shape[0], chunk):
        block = product_entries([table] * n, model.masked_digits, cols[at:at + chunk])
        weighted = block * weights[at:at + chunk]
        acc += weighted @ np.conjugate(block, out=block).T
        del block, weighted
    acc = 0.5 * (acc + acc.conj().T)
    return MaskedHermitian(dense=acc)


def subordination_gap(rho_tilde: MaskedHermitian, model: TypicalModel) -> float:
    """Largest eigenvalue of rho_tilde - rho_bar; <= 0 certifies rho_tilde <= rho_bar."""
    if model.dim_H == 0:
        return 0.0
    if rho_tilde.is_diagonal:
        return float((rho_tilde.diag - model.rho_bar_diag).max())
    diff = rho_tilde.dense - np.diag(model.rho_bar_diag)
    return float(np.linalg.eigvalsh(diff).max())
