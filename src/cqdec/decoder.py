"""Sequential yes/no decoding: test plans, Born-rule chains, POVM, exact oracle.

The receiver interleaves two kinds of binary projective measurements: tests
{P_l, 1-P_l} against candidate product outputs, and typicality checks
{P, 1-P} against the typical subspace.  The chain opens with a typicality
check and, after every "no", projects back onto the typical subspace; a
failed typicality check aborts, a "yes" on a test decodes that codeword.

All states are tracked in the product eigenbasis of the average output,
restricted to the typical subspace H: once the opening typicality check has
passed, the state stays inside H up to the components a "no" projection
pushes outside it, and those are exactly what the following typicality check
removes.  A test's yes-probability on a masked state only involves the masked
components of its product eigenvectors, so the whole chain runs on
dim(H)-sized vectors.  Every test has one format: the (dim_H, r) block of
those components, with r = 1 for a rank-one test; the plan keeps all blocks
side by side in one (dim_H, K) array.

On H a run of no-steps, a product of factors (1 - W_l W_l^dagger), has the
compact WY form of Schreiber & Van Loan (1989).  The plan splits its tests
into runs of at most dim_H columns (a wider test is a run of its own), and
build_plan builds one amplitude map per run by forward substitution (see
RunFactor).  The Monte Carlo chains and build_povm both step through the
runs with these factors.

Given that every earlier test answered "no" and every typicality check
passed, the state in front of test k depends only on the initial state, the
product eigenvector of (codeword, labels).  So the plan memoises each
initial state's outcome masses (see BornChain): the cumulative masses of the
opening abort and of a decode at each test and an abort after it, appended a
run at a time from all of the run's amplitudes at once, in ``memo_slots``
slots of a whole chain's worst-case size; a chain made when all are taken
is not stored.  A trial reads one block of n + 1 uniforms: its labels from
the first n, each through its letter's CDF as ``rng.choice`` would, and its
outcome as the first cumulative mass above the last.  The plan is the whole
decoder: trials and the exact oracle read the channel, model and codebook
from it.

The POVM's no-chain C_1 = P, C_(l+1) = P (1 - P_l) C_l also maps H into H, so
every element C_l^dagger P_l C_l is supported on H and the abort element is
exactly the identity outside it.  POVMSet therefore holds only H-sized
arrays: a (dim_H, r) block per element and the dim_H x dim_H abort block.
verify's mixture identity
is checked on H x H too: its left side commutes with every permutation of
the positions, so it is one value per joint type of a pair of typical
basis vectors, each a product of per-(letter, class size) operators summed
over the typical sequences.

Every array here takes the dtype of the channel's coords: float64 for a
real channel, complex128 otherwise (see make_channel).  For a real array
conj() is the array itself, not a copy, so no array is conjugated in place
unless it is a fresh one.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .channel import CQChannel
from .codebook import Codebook
from .errors import ValidationError
from .linalg import digit_table, product_entries
from .typicality import (
    MaskedHermitian,
    TypicalModel,
    TypicalityParams,
    _ClassBlockCache,
    build_typical_model,
    classical_typical_set,
    conditional_labels,
)

DECODED = "decoded"
ABORT_ATYPICAL = "abort_atypical"
ABORT_EXHAUSTED = "abort_exhausted"

RANK_ONE = "rank_one"
SUBSPACE = "subspace"

_NORM_FLOOR = 1e-14


def product_output_state(ch: CQChannel, j_seq) -> np.ndarray:
    """Exact channel output rho_{j_seq} in the average-state product eigenbasis."""
    state = None
    for j in j_seq:
        u = ch.coords[int(j)]
        lam = np.zeros(ch.letter_dim)
        lam[: ch.letters[int(j)].support] = ch.letters[int(j)].probs
        r = (u * lam) @ u.conj().T
        state = r if state is None else np.kron(state, r)
    return state


class BornChain:
    """Cumulative outcome masses along one initial state's all-"no" path.

    ``masses`` holds the cumulative absolute masses [opening abort, decode_0,
    abort_0, decode_1, abort_1, ...] of the tests covered so far, which grow
    a WY run at a time; a trial's outcome is the first entry above its
    uniform.  ``psi`` is the normalised state in front of run ``run`` and
    ``survival`` its absolute mass.  psi is None once the chain is complete:
    every test covered, or cut by a floor rule, which pins the last entry at
    >= 1 so that no uniform lies past it.  So a chain never holds more than
    dim_H + 1 + 2 M numbers for M tests.
    """

    __slots__ = ("masses", "psi", "survival", "run")

    def __init__(self, psi: np.ndarray, has_tests: bool):
        self.survival = float(np.vdot(psi, psi).real)
        self.run = 0
        if self.survival < _NORM_FLOOR:
            self.masses, self.psi = array("d", (1.0,)), None
        else:
            self.masses = array("d", (max(1.0 - self.survival, 0.0),))
            self.psi = psi / math.sqrt(self.survival) if has_tests else None

    def append_run(self, values, complete: bool, after, end: float) -> None:
        """Append a run's masses, and keep the state after it unless the chain is complete."""
        self.masses.extend(values)
        self.run += 1
        if complete:
            self.psi = None
        else:
            self.survival *= end
            self.psi = after / math.sqrt(end)


@dataclass(frozen=True)
class RunFactor:
    """Run B's amplitude map: a_B = matrix @ psi for a state psi in front of B.

    On H the run's no-steps, the product of the factors (1 - W_l W_l^dagger)
    in schedule order, are 1 - W_B T_B^dagger W_B^dagger in the compact WY
    form; ``matrix`` is T_B^dagger W_B^dagger = (I + L_B)^-1 W_B^dagger, with
    L_B the entries of the Gram matrix W_B^dagger W_B whose row test comes
    after the column test.  For a one-test run it is W^dagger.
    ``loss`` is 1 - ||w_l||^2 per test, the part of each test's column
    outside H, when every test of the run has rank one, else None.  The run
    is tests ``start..stop - 1`` of the schedule; its test l owns rows
    ``bounds[l]:bounds[l + 1]`` of ``matrix``, and ``columns`` is W_B, a
    view of the plan's columns.
    """

    matrix: np.ndarray
    loss: np.ndarray | None
    bounds: list[int]
    columns: np.ndarray
    start: int
    stop: int


@dataclass(frozen=True, eq=False)
class DecoderPlan:
    channel: CQChannel
    model: TypicalModel
    codebook: Codebook
    messages: tuple[int, ...]  # the message test l decodes, schedule order
    columns: np.ndarray  # (dim_H, K) every test's masked components, schedule order
    offsets: np.ndarray  # test l owns columns offsets[l]:offsets[l + 1]
    factors: tuple[RunFactor, ...]  # each WY run's amplitude map, schedule order
    memo_slots: int  # how many Born chains the memo may store
    memo: dict[tuple, BornChain] = field(default_factory=dict, repr=False)

    @property
    def num_tests(self) -> int:
        return len(self.messages)

    def masked_state(self, j_seq, labels) -> np.ndarray:
        """Masked components of the product eigenvector |labels>_{j_seq}."""
        mats = [self.channel.coords[int(j)] for j in j_seq]
        return product_entries(mats, self.model.masked_digits, np.array([labels]))[:, 0]

    def born_chain(self, j_seq: tuple, labels: tuple) -> BornChain:
        """The memoised chain of |labels>_{j_seq}; stored while the memo has a free slot."""
        key = (j_seq, labels)
        chain = self.memo.get(key)
        if chain is None:
            chain = BornChain(self.masked_state(j_seq, labels), bool(self.factors))
            if len(self.memo) < self.memo_slots:
                self.memo[key] = chain
        return chain

    def advance_chain(self, chain: BornChain) -> None:
        """Append the outcome masses of the chain's next run.

        With a = T_B^dagger W_B^dagger psi, test l of the run decodes with
        mass ||a_l||^2 and aborts at the typicality check after it with
        a_l^dagger (1 - W_l^dagger W_l) a_l; the survival in front of each
        test is the reverse cumulative sum of these from ||psi - W_B a||^2.
        Every run, rank-one or wider, then goes through _outcome_masses,
        which applies both floor rules; a rule that trips completes the
        chain.
        """
        run = chain.run
        factor = self.factors[run]
        psi = chain.psi
        total, scale = chain.masses[-1], chain.survival
        # the first test's amplitudes first: when its no-branch is below the
        # floor the rest of the run is never needed
        first = factor.bounds[1]
        a = np.empty(factor.matrix.shape[0], dtype=factor.matrix.dtype)
        np.matmul(factor.matrix[:first], psi, out=a[:first])
        if 1.0 - np.vdot(a[:first], a[:first]).real < _NORM_FLOOR:
            chain.append_run([max(total + scale, 1.0)], True, None, 0.0)
            return
        np.matmul(factor.matrix[first:], psi, out=a[first:])
        sq = a.real * a.real + a.imag * a.imag
        if factor.loss is not None:  # rank-one tests, up to dim_H of them
            after = psi - factor.columns @ a
            decode, loss = sq, sq * factor.loss
        else:  # wider tests, a few per run: a_l^dagger W_l^dagger W_l a_l = ||W_l a_l||^2
            spans = list(zip(factor.bounds, factor.bounds[1:]))
            parts = [factor.columns[:, i:e] @ a[i:e] for i, e in spans]
            after = psi - sum(parts)
            decode = np.array([sq[i:e].sum() for i, e in spans])
            loss = np.maximum(decode - [np.vdot(p, p).real for p in parts], 0.0)
        end = float(np.vdot(after, after).real)
        values, cut = _outcome_masses(total, scale, decode, loss, end)
        chain.append_run(values, cut or run + 1 == len(self.factors), after, end)


def _outcome_masses(total: float, scale: float, decode, loss, end: float) -> tuple[list, bool]:
    """A run's cumulative outcome masses, with both floor rules, for all its tests at once.

    ``total`` is the chain's last cumulative mass, ``scale`` the survival in
    front of the run, ``decode`` and ``loss`` the tests' masses relative to
    it and ``end`` the survival after the run.  One cumulative sum over two
    rows gives the masses and, summed from the back, s = [front_0, no_0,
    front_1, ..., front_k]: no_l = front_(l+1) + loss_l is test l's
    no-branch and front_l = no_l + decode_l the survival in front of it.  A
    rule trips where an entry of s falls below the floor relative to the one
    before it (no_l: a forced decode, front_(l+1): an abort); the first trip
    cuts the run there and pins its last mass at >= 1.  Returns the masses
    and whether a rule cut the run.
    """
    both = np.empty((2, 2 * decode.size + 1))
    both[0, 0] = total
    both[1, 0] = end
    both[0, 1::2] = decode
    both[0, 2::2] = loss
    both[1, 1:] = both[0, :0:-1]
    both[0, 1:] *= scale
    masses, s = np.cumsum(both, axis=1)
    s = s[::-1]
    trips = s[1:] < _NORM_FLOOR * s[:-1]
    i = int(trips.argmax())
    if not trips[i]:
        return masses[1:].tolist(), False
    masses[i + 1] = max(masses[i] + scale * s[i], 1.0)
    return masses[1:i + 2].tolist(), True


def _wy_factor(columns: np.ndarray, offsets: np.ndarray, start: int, stop: int) -> RunFactor:
    """The amplitude map of the run of tests start..stop - 1.

    (I + L_B) X = W_B^dagger is solved by forward substitution, a test's
    rows at a time: rows l of X are W_l^dagger - (W_l^dagger W_<l) X_<l,
    matrix-vector products for rank-one tests, so the run's k x k Gram
    matrix is never formed.
    """
    w = columns[:, offsets[start]:offsets[stop]]
    # a ufunc writes a new array; for real columns w.conj() is w itself, and
    # the substitution below would overwrite the plan's columns
    matrix = np.conjugate(w.T, order="C")
    bounds = (offsets[start:stop + 1] - offsets[start]).tolist()
    for i, e in zip(bounds[1:-1], bounds[2:]):
        matrix[i:e] -= (matrix[i:e] @ w[:, :i]) @ matrix[:i]
    loss = None
    if all(e - i == 1 for i, e in zip(bounds, bounds[1:])):  # all rank one
        loss = np.maximum(1.0 - (w.real * w.real + w.imag * w.imag).sum(axis=0), 0.0)
    return RunFactor(matrix, loss, bounds, w, start, stop)


def build_plan(
    codebook: Codebook,
    ch: CQChannel,
    params: TypicalityParams,
    variant: str = RANK_ONE,
    model: TypicalModel | None = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> DecoderPlan:
    """Ordered test schedule over the codebook's conditional typical outputs.

    Messages run in order, each message's label sequences in lexicographic
    order, so message N - 1 is tested last.
    One conditional_labels call gives every message's label sequences, and the
    work budget counts one block of columns per message, repeated codewords
    included.  The plan comes with every WY run's factor, which together are
    the size of the columns, and fixes its memo's slots: the work budget
    over a chain's worst-case size (see BornChain).
    """
    if variant not in (RANK_ONE, SUBSPACE):
        raise ValidationError(f"unknown variant '{variant}'")
    if codebook.n != params.n:
        raise ValidationError(f"codebook n={codebook.n} but params n={params.n}")
    if model is None:
        model = build_typical_model(ch, params, budgets)

    words = np.array(codebook.codewords, dtype=int).reshape(-1, params.n)
    labels, _, counts = conditional_labels(ch, words, params.cond_delta, budgets)
    dim_h = model.dim_H
    budgets.require(
        f"masked test blocks {dim_h}x{labels.shape[0]}", work=labels.shape[0] * max(dim_h, 1)
    )
    # each message's labels in lexicographic order: by message, then digit by digit
    owner = np.repeat(np.arange(codebook.num_messages), counts)
    labels = labels[np.lexsort((*labels.T[::-1], owner))]
    if variant == RANK_ONE:
        tested = owner.tolist()
        widths = [1] * len(tested)
    else:
        tested, widths = range(codebook.num_messages), counts.tolist()
    # the letters' coords side by side: letter j's column k is table column j*d + k,
    # so one product_entries call gives every test column, in schedule order
    table = np.concatenate(ch.coords, axis=1)
    cols = labels + ch.letter_dim * np.repeat(words, counts, axis=0)
    # computed as (K, dim_H), so the (dim_H, K) columns are Fortran-ordered
    columns = product_entries([table.T] * params.n, cols, model.masked_digits).T
    offsets = np.cumsum([0] + widths)
    return DecoderPlan(
        channel=ch,
        model=model,
        codebook=codebook,
        messages=tuple(tested),
        columns=columns,
        offsets=offsets,
        factors=tuple(_wy_factor(columns, offsets, *run) for run in _wy_runs(widths, dim_h)),
        memo_slots=budgets.fit(dim_h + 1 + 2 * len(tested)),
    )


@dataclass(frozen=True)
class Transcript:
    """One decoding attempt: the final verdict and how many tests it ran."""

    outcome: str
    decoded: int | None
    labels: tuple[int, ...]
    tests_run: int


def sample_output_labels(ch: CQChannel, j_seq, uniforms) -> tuple[int, ...]:
    """Eigenlabels from the full conditional spectral distribution, one uniform per letter.

    The physical channel knows nothing about typicality: atypical label
    sequences are drawn with their true probability and simply tend to abort
    at the first typicality check.  Each uniform is read through its letter's
    normalised CDF (the label is the count of entries <= u), so the labels of
    ``rng.random(n)`` are those of one ``rng.choice`` per letter, which
    leaves the generator in the same state.
    """
    cdfs = ch.label_cdfs
    return tuple(map(bisect_right, [cdfs[j] for j in j_seq], uniforms))


def simulate_trial(plan: DecoderPlan, true_index: int, rng: np.random.Generator) -> Transcript:
    """Run one Born-rule measurement chain of ``plan`` for the sent message ``true_index``.

    One block of n + 1 uniforms from ``rng`` drives the trial.  The first n
    sample the channel output eigenlabels exactly from the per-letter
    spectral weights of plan.channel (see sample_output_labels); the last
    picks the outcome from the cumulative masses of the plan's memoised
    chain of the initial state (see BornChain): the first entry above it.
    The chain is advanced a WY run at a time, only while that uniform lies
    past its current depth.
    """
    word = plan.codebook.codewords[true_index]
    *uniforms, u = rng.random(len(word) + 1).tolist()
    labels = sample_output_labels(plan.channel, word, uniforms)
    chain = plan.born_chain(word, labels)
    masses = chain.masses  # extended in place as the chain advances
    i = bisect_right(masses, u)
    while i == len(masses) and chain.psi is not None:
        plan.advance_chain(chain)
        i = bisect_right(masses, u, i)
    if i == len(masses):
        return Transcript(ABORT_EXHAUSTED, None, labels, plan.num_tests)
    if i % 2:
        return Transcript(DECODED, plan.messages[i // 2], labels, (i + 1) // 2)
    return Transcript(ABORT_ATYPICAL, None, labels, (i + 1) // 2)


def average_amplitude(
    rho_tilde: MaskedHermitian,
    m_grid,
    binomial_cap: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Tr[(P - rho_tilde)^m rho_tilde] for each m of ``m_grid``, in two independent forms.

    Returns the power form and the binomial form, each an array aligned with
    ``m_grid``.  The power form is read from one incremental sweep of matrix
    products up to the largest m (average_amplitude_powers).  The binomial
    form sum_k C(m,k) (-1)^k Tr[rho_tilde^(k+1)] is evaluated with
    compensated summation and only up to ``binomial_cap`` (alternating
    binomial sums lose precision beyond that); past the cap it is nan.
    """
    m_grid = [int(m) for m in m_grid]
    if any(m < 0 for m in m_grid):
        raise ValidationError("m must be >= 0")
    m_top = max(m_grid, default=0)
    power = average_amplitude_powers(rho_tilde, m_top)[m_grid]
    lam = rho_tilde.eigenvalues()
    traces = [float(np.sum(lam ** (k + 1))) for k in range(min(m_top, binomial_cap) + 1)]
    binomial = np.array([
        math.fsum((-1.0) ** k * math.comb(m, k) * traces[k] for k in range(m + 1))
        if m <= binomial_cap else math.nan
        for m in m_grid
    ])
    return power, binomial


def average_amplitude_powers(rho_tilde: MaskedHermitian, m_max: int) -> np.ndarray:
    """Power-form average amplitudes for every m in 0..m_max, incrementally."""
    if m_max < 0:
        raise ValidationError("m_max must be >= 0")
    out = np.empty(m_max + 1)
    if rho_tilde.dim == 0:
        out[:] = 0.0
        return out
    if rho_tilde.is_diagonal:
        lam = rho_tilde.diag
        running = lam.astype(float).copy()
        out[0] = running.sum()
        for m in range(1, m_max + 1):
            running = running * (1.0 - lam)
            out[m] = running.sum()
        return out
    dense = rho_tilde.dense
    x = np.eye(dense.shape[0], dtype=dense.dtype) - dense
    running = dense.copy()
    out[0] = float(np.trace(running).real)
    for m in range(1, m_max + 1):
        running = x @ running
        out[m] = float(np.trace(running).real)
    return out


def verify_mixture_identity(
    ch: CQChannel,
    params: TypicalityParams,
    model: TypicalModel,
    rho_tilde: MaskedHermitian,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> float:
    """Max-abs deviation between sum_l pi_l P P_l P and rho_tilde, one value per joint type.

    A typical sequence's sum_labels p_labels |v><v| is the tensor product of
    the d^m x d^m operators A_(j,m) = sum_block p |u><u|, one per letter
    class (the m positions carrying letter j), since its label set is the
    product of the classes' label blocks.  The typical set and every label
    window are closed under permuting positions, so the left side L[a, b]
    depends only on the joint type of (a, b), the counts of the digit pairs
    (a_i, b_i).  Each (a, b) of H x H gets its joint type's exact id, and L
    is evaluated once per id, at a representative: per letter type, the
    product over classes of A_(j,m) at its class-restricted base-d indices,
    summed over the type's sequences with weight p_seq.  The values are
    scattered by id to the dim_H x dim_H block and compared with
    ``rho_tilde``.  The work budget counts that block and the widest
    A_(j,m); a chunk of a type's sequences keeps four (ids, chunk) arrays
    alive, together within work_limit.
    """
    n, d = params.n, ch.letter_dim
    dim_h = model.dim_H
    budgets.require(f"{dim_h}x{dim_h} mixture block", work=dim_h * dim_h)
    seqs = classical_typical_set(ch.priors, n, params.source_delta, budgets)
    cache = _ClassBlockCache(ch, n, params.cond_delta)
    keys, _, kind = cache.types(seqs, budgets)
    widest = d ** max((m for key in keys for _, m in key), default=0)
    budgets.require(f"{widest}x{widest} class operator", work=widest * widest)
    # joint-type ids: the counts of the pair symbols a_i d + b_i in base n + 1,
    # k symbols at a time and compacted to ids < dim_H^2 after each chunk, so
    # a code stays below dim_H^2 (n + 1)^k <= 2^63
    digits = model.masked_digits.astype(np.int64)
    base, pairs = n + 1, d * d
    k = pairs
    while dim_h * dim_h * base**k > 2**63:
        k -= 1
    ids = np.zeros(dim_h * dim_h, dtype=np.int64)
    for lo in range(0, pairs, k):
        table = np.zeros(pairs, dtype=np.int64)
        table[lo:lo + k] = base ** np.arange(min(k, pairs - lo))
        table = table.reshape(d, d)
        code = ids * base**k
        for i in range(n):
            code += table[digits[:, i]][:, digits[:, i]].reshape(-1)
        codes, ids = np.unique(code, return_inverse=True)
    # a representative (a, b) of each id: any of its pairs, here the last
    reps = np.empty(codes.size, dtype=np.int64)
    reps[ids] = np.arange(ids.size)
    rep_a, rep_b = (digits[x] for x in np.divmod(reps, dim_h))

    log_priors = np.log(ch.priors)
    factors: dict[tuple[int, int], np.ndarray] = {}
    dtype = ch.coords[0].dtype
    values = np.zeros(reps.size, dtype=dtype)
    chunk = budgets.fit(4 * reps.size)
    for t, key in enumerate(keys):
        for j, m in key:
            if (j, m) not in factors:
                labels, probs = cache.block(j, m)
                vecs = product_entries([ch.coords[j]] * m, digit_table(d, m), labels)
                factors[(j, m)] = (vecs * probs) @ vecs.conj().T
        p_seq = math.exp(sum(m * float(log_priors[j]) for j, m in key))
        # each sequence's class order: the positions of each letter in turn, ascending
        orders = np.argsort(seqs[kind == t], axis=1, kind="stable")
        for at in range(0, orders.shape[0], chunk):
            part = orders[at:at + chunk]
            product = np.ones((reps.size, part.shape[0]), dtype=dtype)
            pos = 0
            for j, m in key:
                ia = ib = 0
                for p in part.T[pos:pos + m]:
                    ia = ia * d + rep_a[:, p]
                    ib = ib * d + rep_b[:, p]
                product *= factors[(j, m)][ia, ib]
                pos += m
            values += p_seq * product.sum(axis=1)
    deviation = values[ids].reshape(dim_h, dim_h)
    deviation -= rho_tilde.as_dense()
    return float(np.abs(deviation).max(initial=0.0))


@dataclass(frozen=True, eq=False)
class POVMSet:
    """Effective POVM of the whole decoding chain, held on the typical subspace H.

    Element l is W_l W_l^dagger for a (dim_H, r) block W_l, with r = 1 for a
    rank-one test, in the masked basis of H; its rows outside H are zero and
    are not stored.  ``columns`` holds every block side by side, in schedule
    order, and element l is test l of ``plan``.  ``abort`` is the dim_H x
    dim_H block of the abort element, which is exactly the identity outside
    H.  ``dim`` is d^n, the space the POVM acts on.  Everything is in the
    average-state product eigenbasis.
    """

    plan: DecoderPlan
    columns: np.ndarray  # (dim_H, K): the K columns of all elements
    abort: np.ndarray

    @property
    def dim(self) -> int:
        return self.plan.model.dim_total

    @property
    def widths(self) -> np.ndarray:
        """Column count r of each element."""
        return np.diff(self.plan.offsets)

    def completeness_defect(self) -> float:
        """Max-abs entry of abort + sum W W^dagger - identity; outside H it is exactly 0."""
        total = self.abort + self.columns @ self.columns.conj().T
        return float(np.abs(total - np.eye(total.shape[0])).max(initial=0.0))

    def element_min_eigenvalues(self) -> np.ndarray:
        """Smallest eigenvalue of each W W^dagger: the spectrum of W^dagger W plus dim - r zeros.

        The r x r Gram matrices of all elements of one width r go through one
        stacked eigvalsh; an r = 0 element is the zero matrix.
        """
        widths = self.widths
        starts = np.cumsum(widths) - widths
        out = np.zeros(widths.size)
        for r in set(widths.tolist()) - {0}:
            which = np.nonzero(widths == r)[0]
            w = self.columns[:, starts[which, None] + np.arange(r)].transpose(1, 0, 2)
            lam = np.linalg.eigvalsh(w.conj().transpose(0, 2, 1) @ w).min(axis=1)
            out[which] = np.minimum(lam, 0.0) if r < self.dim else lam
        return out

    def min_element_eigenvalue(self) -> float:
        """Smallest eigenvalue over all elements; the abort element adds exact 1s outside H."""
        lam = np.linalg.eigvalsh(self.abort)
        worst = float(lam.min(initial=1.0 if self.abort.shape[0] < self.dim else np.inf))
        return float(self.element_min_eigenvalues().min(initial=worst))


def _wy_runs(widths, limit: int) -> list[tuple[int, int]]:
    """(start, stop) runs of consecutive tests with at most ``limit`` columns in all.

    A test wider than ``limit`` forms a run of its own.
    """
    runs: list[tuple[int, int]] = []
    start = total = 0
    for i, r in enumerate(widths):
        if i > start and total + r > limit:
            runs.append((start, i))
            start, total = i, 0
        total += r
    if widths:
        runs.append((start, len(widths)))
    return runs


def build_povm(plan: DecoderPlan, budgets: Budgets = DEFAULT_BUDGETS) -> POVMSet:
    """Materialize the chain's POVM elements from the no-chain on H, a run of tests at a time.

    With C_1 = P and C_(l+1) = P (1 - P_l) C_l, element l is C_l^dagger P_l C_l.
    Every C_l maps H into H, so the chain is the dim_H x dim_H matrix c, with
    c_1 = 1 and c <- c - W_l (W_l^dagger c) for test l's block W_l; element l's
    block is c_l^dagger W_l = a_l^dagger for the amplitudes a_l = W_l^dagger c_l.
    A run's amplitudes come at once from the plan's run factor (see
    RunFactor), the one the Monte Carlo chains step with: a = T_B^dagger
    W_B^dagger c, and the chain becomes c - W_B a.  The whole set costs
    O(M dim_H^2) work in dim_H-sized BLAS products.  The abort block is the
    surviving c^dagger c plus each test's typicality loss a_l^dagger (1 -
    W_l^dagger W_l) a_l, the part of (1 - P_l) C_l outside H (a test's
    full-space columns are orthonormal): a_l^dagger (1 - ||w_l||^2) a_l for a
    rank-one test, with the run factor's ``loss``, and a_l^dagger (a_l -
    W_l^dagger (W_l a_l)) for a wider one, whose W_l a_l is also its step.
    So completeness_defect checks the chain's arithmetic, not an identity.
    """
    dim_h = plan.model.dim_H
    budgets.require(f"{dim_h}x{dim_h} POVM accumulation", work=dim_h * dim_h)
    offsets = plan.offsets
    dtype = plan.columns.dtype
    chain = np.eye(dim_h, dtype=dtype)  # C_1 = P
    amps = np.empty((offsets[-1], dim_h), dtype=dtype)  # a_l = W_l^dagger c_l, stacked
    abort = np.zeros((dim_h, dim_h), dtype=dtype)
    for factor in plan.factors:
        a = np.matmul(factor.matrix, chain, out=amps[offsets[factor.start]:offsets[factor.stop]])
        if factor.loss is not None:  # rank-one tests
            abort += a.conj().T @ (factor.loss[:, None] * a)
            chain -= factor.columns @ a
        else:  # wider tests: each W_l a_l serves both the loss and the step
            for i, e in zip(factor.bounds, factor.bounds[1:]):
                w, a_l = factor.columns[:, i:e], a[i:e]
                step = w @ a_l
                abort += a_l.conj().T @ (a_l - w.conj().T @ step)
                chain -= step
    abort += chain.conj().T @ chain
    abort = 0.5 * (abort + abort.conj().T)
    return POVMSet(plan=plan, columns=np.conjugate(amps, out=amps).T, abort=abort)


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Exact per-message decode/abort/misdecode masses and their averages."""

    num_messages: int
    p_err: float
    abort_mass: float
    misdecode_mass: float
    per_message_success: np.ndarray
    per_message_abort: np.ndarray
    per_message_misdecode: np.ndarray


def check_oracle_budget(dim: int, budgets: Budgets = DEFAULT_BUDGETS) -> None:
    """The exact oracle's cost: its dense d^n x d^n outputs count against the work budget."""
    budgets.require(f"dense {dim}x{dim} output states", work=dim * dim)


def exact_error_probability(povm: POVMSet, budgets: Budgets = DEFAULT_BUDGETS) -> ErrorReport:
    """Average error probability of the POVM on the exact outputs of its plan's codebook.

    Every element column b lives on H, so its mass <b|rho_s|b> only reads
    rho_s[H, H]: the dense kron output of plan.channel indexed at the
    typical rows and columns.  The masses of all K columns come from one
    (K, dim_H) @ (dim_H, dim_H) product per message.
    """
    check_oracle_budget(povm.dim, budgets)
    ch, codebook = povm.plan.channel, povm.plan.codebook
    ix = povm.plan.model.masked_indices
    n_msg = codebook.num_messages
    owner = np.repeat(np.array(povm.plan.messages, dtype=int), povm.widths)
    basis = povm.columns.T
    bconj = basis.conj()
    success = np.zeros(n_msg)
    misdecode = np.zeros(n_msg)
    abort = np.zeros(n_msg)
    for s in range(n_msg):
        rho = product_output_state(ch, codebook.codewords[s])[np.ix_(ix, ix)]
        vals = np.einsum("ik,ik->i", bconj @ rho, basis).real
        mine = float(vals[owner == s].sum())
        everything = float(vals.sum())
        success[s] = mine
        misdecode[s] = everything - mine
        abort[s] = 1.0 - everything
    return ErrorReport(
        num_messages=n_msg,
        p_err=float(1.0 - success.mean()),
        abort_mass=float(abort.mean()),
        misdecode_mass=float(misdecode.mean()),
        per_message_success=success,
        per_message_abort=abort,
        per_message_misdecode=misdecode,
    )
