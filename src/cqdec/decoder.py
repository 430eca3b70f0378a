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
those components, with r = 1 for a rank-one test, and its adjoint.

Given that every earlier test answered "no" and every typicality check
passed, the state in front of test k depends only on the initial state, the
product eigenvector of (codeword, labels).  A trial's randomness is its
labels and its Born coin flips, so the plan memoises each initial state's
chain of branch probabilities (see BornChain) and every trial that starts
there walks it, extending it only when a trial goes deeper.  The labels are
read from one block of uniforms through each letter's CDF, which consumes
the generator exactly as one ``rng.choice`` per letter would.

The POVM's no-chain C_1 = P, C_(l+1) = P (1 - P_l) C_l also maps H into H, so
every element C_l^dagger P_l C_l is supported on H and the abort element is
exactly the identity outside it.  POVMSet therefore holds only H-sized
arrays: a (dim_H, r) block per element and the dim_H x dim_H abort block.
"""

from __future__ import annotations

import copy
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .channel import CQChannel
from .codebook import Codebook
from .errors import ResourceBudgetError, ValidationError
from .linalg import digit_table, product_entries
from .typicality import (
    MaskedHermitian,
    TypicalModel,
    TypicalityParams,
    build_rho_tilde,
    build_typical_model,
    classical_typical_set,
    conditional_typical_outputs,
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


@dataclass(frozen=True)
class PlanTest:
    message: int
    codeword: tuple[int, ...]
    labels: tuple[int, ...] | None  # None for a subspace test


class BornChain:
    """Branch probabilities along one initial state's all-"no" path.

    ``p_typ0`` is the opening typicality check's pass probability,
    ``p_yes[k]`` test k's yes-probability on the state in front of it and
    ``p_typ[k]`` the pass probability of the check after test k answered no;
    both are clipped at 1.  ``psi`` is the normalised state in front of test
    ``len(p_yes)``, or None once no walk can go deeper.
    """

    __slots__ = ("p_typ0", "p_yes", "p_typ", "psi", "stored")

    def __init__(self, psi: np.ndarray):
        self.p_typ0 = float(np.vdot(psi, psi).real)
        self.psi = psi / math.sqrt(self.p_typ0) if self.p_typ0 >= _NORM_FLOOR else None
        self.p_yes = array("d")
        self.p_typ = array("d")
        self.stored = False

    def unstored_copy(self) -> "BornChain":
        twin = copy.copy(self)
        twin.p_yes, twin.p_typ, twin.stored = array("d", self.p_yes), array("d", self.p_typ), False
        return twin


class ChainMemo:
    """The plan's Born chains, keyed by (codeword, labels).

    ``size`` counts stored numbers: dim_H per state plus one per branch
    probability.  It never passes ``limit``; past it, new states and deeper
    steps run through the same chain code without being stored.
    """

    def __init__(self, limit: int = DEFAULT_BUDGETS.work_limit):
        self.limit = limit
        self.size = 0
        self.chains: dict[tuple, BornChain] = {}

    def reserve(self, count: int) -> bool:
        if self.size + count > self.limit:
            return False
        self.size += count
        return True


@dataclass(frozen=True, eq=False)
class DecoderPlan:
    channel: CQChannel
    model: TypicalModel
    codebook: Codebook
    variant: str
    ordering: str
    worst_index: int | None
    tests: tuple[PlanTest, ...]
    blocks: tuple[np.ndarray, ...]  # (dim_H, r) masked components per test
    adjoints: tuple[np.ndarray, ...]  # (r, dim_H) conjugate transpose of each block
    m_theory_log2: float
    memo: ChainMemo = field(default_factory=ChainMemo, repr=False)

    @property
    def num_tests(self) -> int:
        return len(self.tests)

    @property
    def m_theory(self) -> float:
        """2^(nR) * 2^(n * mean letter entropy): the analytic test-count estimate."""
        return 2.0**self.m_theory_log2

    def masked_state(self, j_seq, labels) -> np.ndarray:
        """Masked components of the product eigenvector |labels>_{j_seq}."""
        mats = [self.channel.coords[int(j)] for j in j_seq]
        return product_entries(mats, self.model.masked_digits, np.array([labels]))[:, 0]

    def test_yes_amplitudes(self, psi: np.ndarray, index: int) -> np.ndarray:
        """Amplitudes <component|psi> over the columns of a test's block."""
        return self.adjoints[index].dot(psi)

    def apply_no(self, psi: np.ndarray, index: int, amps: np.ndarray) -> np.ndarray:
        """Masked components after (1 - P_test) acting on a masked state."""
        return psi - self.blocks[index].dot(amps)

    def born_chain(self, j_seq: tuple, labels: tuple) -> BornChain:
        """The memoised chain of |labels>_{j_seq}; stored while the memo has room."""
        key = (j_seq, labels)
        chain = self.memo.chains.get(key)
        if chain is None:
            chain = BornChain(self.masked_state(j_seq, labels))
            if self.memo.reserve(1 + self.model.dim_H):
                chain.stored = True
                self.memo.chains[key] = chain
        return chain

    def extend_chain(self, chain: BornChain) -> BornChain:
        """Append the next test's branch probabilities; returns the chain that holds them.

        A stored chain the memo has no room for continues as an unstored copy.
        """
        if chain.stored and not self.memo.reserve(2):
            chain = chain.unstored_copy()
        idx = len(chain.p_yes)
        psi = chain.psi
        amps = self.test_yes_amplitudes(psi, idx)
        p_yes = float(np.vdot(amps, amps).real)
        if p_yes > 1.0:
            p_yes = 1.0
        chain.p_yes.append(p_yes)
        p_no = 1.0 - p_yes
        if p_no < _NORM_FLOOR:
            chain.p_typ.append(0.0)  # the no-branch is impossible: never read
            chain.psi = None
            return chain
        psi = self.apply_no(psi, idx, amps) / math.sqrt(p_no)
        p_typ = float(np.vdot(psi, psi).real)
        if p_typ > 1.0:
            p_typ = 1.0
        chain.p_typ.append(p_typ)
        chain.psi = psi / math.sqrt(p_typ) if p_typ >= _NORM_FLOOR else None
        return chain


def build_plan(
    codebook: Codebook,
    ch: CQChannel,
    params: TypicalityParams,
    ordering: str = "lexicographic",
    variant: str = RANK_ONE,
    worst_index: int | None = None,
    model: TypicalModel | None = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> DecoderPlan:
    """Ordered test schedule over the codebook's conditional typical outputs.

    ``lexicographic`` runs messages in order, each message's label sequences in
    lexicographic order.  ``worst_case`` moves every test of ``worst_index`` to
    the end of the schedule, realizing the ordering the error bound assumes.
    """
    if variant not in (RANK_ONE, SUBSPACE):
        raise ValidationError(f"unknown variant '{variant}'")
    if ordering not in ("lexicographic", "worst_case"):
        raise ValidationError(f"unknown ordering '{ordering}'")
    if ordering == "worst_case":
        if worst_index is None or not 0 <= worst_index < codebook.num_messages:
            raise ValidationError("worst_case ordering needs a valid worst_index")
    if codebook.n != params.n:
        raise ValidationError(f"codebook n={codebook.n} but params n={params.n}")
    if model is None:
        model = build_typical_model(ch, params, budgets)

    # each test with its columns in its codeword's block
    entries: list[tuple[PlanTest, slice]] = []
    cts_cache: dict[tuple[int, ...], object] = {}
    for s, word in enumerate(codebook.codewords):
        if word not in cts_cache:
            cts_cache[word] = conditional_typical_outputs(ch, word, params.cond_delta, budgets)
        cts = cts_cache[word]
        if variant == RANK_ONE:
            for i in range(cts.count):
                labels = tuple(int(x) for x in cts.labels[i])
                test = PlanTest(message=s, codeword=word, labels=labels)
                entries.append((test, slice(i, i + 1)))
                if len(entries) > budgets.set_limit:
                    raise ResourceBudgetError(
                        f"plan exceeds set budget {budgets.set_limit} tests", reason="set"
                    )
        else:
            entries.append((PlanTest(message=s, codeword=word, labels=None), slice(None)))
    if ordering == "worst_case":
        # a stable sort keeps the schedule order within both parts
        entries.sort(key=lambda e: e[0].message == worst_index)

    dim_h = model.dim_H
    width = sum(cts.count for cts in cts_cache.values())
    if width * max(dim_h, 1) > budgets.work_limit:
        raise ResourceBudgetError(
            f"masked test blocks {dim_h}x{width} exceed work budget", reason="work"
        )
    adjoints = {}
    for word, cts in cts_cache.items():
        block = product_entries([ch.coords[int(j)] for j in word], model.masked_digits, cts.labels)
        adjoints[word] = np.ascontiguousarray(block.conj().T)
    blocks = {word: a.conj().T for word, a in adjoints.items()}

    m_theory_log2 = codebook.n * (codebook.rate + ch.mean_letter_entropy)
    return DecoderPlan(
        channel=ch,
        model=model,
        codebook=codebook,
        variant=variant,
        ordering=ordering,
        worst_index=worst_index,
        tests=tuple(t for t, _ in entries),
        blocks=tuple(blocks[t.codeword][:, c] for t, c in entries),
        adjoints=tuple(adjoints[t.codeword][c] for t, c in entries),
        m_theory_log2=m_theory_log2,
        memo=ChainMemo(budgets.work_limit),
    )


@dataclass(frozen=True)
class Transcript:
    """One decoding attempt: every binary outcome plus the final verdict."""

    outcome: str
    decoded: int | None
    labels: tuple[int, ...]
    events: tuple[tuple[str, int, bool], ...]
    tests_run: int


def sample_output_labels(ch: CQChannel, j_seq, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw eigenlabels from the full conditional spectral distribution.

    The physical channel knows nothing about typicality: atypical label
    sequences are drawn with their true probability and simply tend to abort
    at the first typicality check.  One block of uniforms is read through
    each letter's normalised CDF (the label is the count of entries <= u),
    which gives ``rng.choice``'s labels and leaves the generator where one
    ``rng.choice`` per letter would.
    """
    cdfs = ch.label_cdfs
    return tuple(map(bisect_right, [cdfs[j] for j in j_seq], rng.random(len(j_seq)).tolist()))


def simulate_trial(
    plan: DecoderPlan,
    ch: CQChannel,
    true_index: int,
    params: TypicalityParams | None = None,
    rng: np.random.Generator | None = None,
) -> Transcript:
    """Run one Born-rule measurement chain for a uniformly chosen message.

    The channel output eigenlabels are sampled exactly from the per-letter
    spectral weights; every measurement renormalizes the post-measurement
    state, treating branches of squared norm below 1e-14 as impossible.  The
    branch probabilities come from the plan's memoised chain of the initial
    state, so a trial only computes the steps no earlier trial has reached;
    it draws one uniform per possible branch, as an unmemoised walk would.
    """
    if ch is not plan.channel:
        raise ValidationError("ch is not the channel the plan was built for")
    if rng is None:
        rng = np.random.default_rng()
    if params is not None and params.n != plan.model.n:
        raise ValidationError("params.n does not match the plan")
    word = plan.codebook.codewords[true_index]
    labels = sample_output_labels(ch, word, rng)
    chain = plan.born_chain(word, labels)
    random = rng.random

    events: list[tuple[str, int, bool]] = []
    p = chain.p_typ0
    passed = p >= _NORM_FLOOR and random() < p
    events.append(("typ", -1, passed))
    if not passed:
        return Transcript(ABORT_ATYPICAL, None, labels, tuple(events), 0)

    for idx in range(plan.num_tests):
        if idx == len(chain.p_yes):
            chain = plan.extend_chain(chain)
        p = chain.p_yes[idx]
        yes = p >= _NORM_FLOOR and random() < p
        events.append(("test", idx, yes))
        if yes:
            return Transcript(DECODED, plan.tests[idx].message, labels, tuple(events), idx + 1)
        if 1.0 - p < _NORM_FLOOR:
            # the no-branch is impossible; the yes draw above cannot have
            # failed except by floor clipping, so force the decode
            events[-1] = ("test", idx, True)
            return Transcript(DECODED, plan.tests[idx].message, labels, tuple(events), idx + 1)
        p = chain.p_typ[idx]
        passed = p >= _NORM_FLOOR and random() < p
        events.append(("typ", idx, passed))
        if not passed:
            return Transcript(ABORT_ATYPICAL, None, labels, tuple(events), idx + 1)

    return Transcript(ABORT_EXHAUSTED, None, labels, tuple(events), plan.num_tests)


def transcript_probability(
    plan: DecoderPlan, ch: CQChannel, j_seq, labels, test_index: int
) -> float:
    """Exact probability of the transcript "no everywhere, yes at test_index".

    Reads the plan's memoised Born chain, the one simulate_trial walks, with
    forced outcomes (all typicality checks pass, every earlier test answers
    no), multiplying the branch probabilities; like every p_yes of the
    chain, the final one is clipped at 1.
    """
    if ch is not plan.channel:
        raise ValidationError("ch is not the channel the plan was built for")
    if not 0 <= test_index < plan.num_tests:
        raise ValidationError(f"test_index {test_index} out of range")
    chain = plan.born_chain(tuple(int(j) for j in j_seq), tuple(int(k) for k in labels))
    total = chain.p_typ0
    if total < _NORM_FLOOR:
        return 0.0
    for idx in range(test_index + 1):
        if idx == len(chain.p_yes):
            chain = plan.extend_chain(chain)
        if idx == test_index:
            break
        p_no = 1.0 - chain.p_yes[idx]
        if p_no < _NORM_FLOOR:
            return 0.0
        total *= p_no
        p_typ = chain.p_typ[idx]
        if p_typ < _NORM_FLOOR:
            return 0.0
        total *= p_typ
    return total * chain.p_yes[test_index]


def amplitude_chain(plan: DecoderPlan, ch: CQChannel, j_seq, labels, m: int) -> complex:
    """<state| P (1-P_m) P ... P (1-P_1) P |state> for the plan's first m tests.

    This is the surviving amplitude after m "no" answers with every
    typicality projection applied, evaluated without any renormalization.
    """
    if ch is not plan.channel:
        raise ValidationError("ch is not the channel the plan was built for")
    if m < 0 or m > plan.num_tests:
        raise ValidationError(f"m must be in [0, {plan.num_tests}]")
    bra = plan.masked_state(j_seq, labels)
    psi = bra.copy()
    for idx in range(m):
        amps = plan.test_yes_amplitudes(psi, idx)
        psi = plan.apply_no(psi, idx, amps)
    return complex(np.vdot(bra, psi))


@dataclass(frozen=True)
class AvgAmplitude:
    """Two independent evaluations of the codebook-averaged chain amplitude."""

    power: float
    binomial: float | None


def average_amplitude(
    rho_tilde: MaskedHermitian,
    model: TypicalModel,
    m: int,
    binomial_cap: int = 64,
) -> AvgAmplitude:
    """Tr[(P - rho_tilde)^m rho_tilde], plus its alternating-binomial expansion.

    The power form multiplies matrices in the masked basis m times.  The
    binomial form sum_k C(m,k) (-1)^k Tr[rho_tilde^(k+1)] is evaluated with
    compensated summation and only up to ``binomial_cap`` (alternating
    binomial sums lose precision beyond that); past the cap it is None.
    """
    if m < 0:
        raise ValidationError("m must be >= 0")
    power = float(average_amplitude_powers(rho_tilde, model, m)[m])
    binomial = None
    if m <= binomial_cap:
        lam = rho_tilde.eigenvalues()
        if lam.size == 0:
            binomial = 0.0
        else:
            traces = [float(np.sum(lam ** (k + 1))) for k in range(m + 1)]
            terms = [
                (-1.0) ** k * math.comb(m, k) * traces[k]
                for k in range(m + 1)
            ]
            binomial = math.fsum(terms)
    return AvgAmplitude(power=power, binomial=binomial)


def average_amplitude_powers(
    rho_tilde: MaskedHermitian, model: TypicalModel, m_max: int
) -> np.ndarray:
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
    x = np.eye(dense.shape[0], dtype=complex) - dense
    running = dense.copy()
    out[0] = float(np.trace(running).real)
    for m in range(1, m_max + 1):
        running = x @ running
        out[m] = float(np.trace(running).real)
    return out


def verify_mixture_identity(
    ch: CQChannel, params: TypicalityParams, budgets: Budgets = DEFAULT_BUDGETS
) -> float:
    """Max-abs deviation between sum_l pi_l P P_l P and rho_tilde.

    The left side is rebuilt from the full d^n-dimensional product eigenvectors
    of every (typical sequence, conditional label) pair: one weighted product
    V diag(p_seq * p_labels) V^dagger per sequence over its masked (d^n, count)
    block V.  The right side comes from build_rho_tilde's batched masked path.
    """
    model = build_typical_model(ch, params, budgets)
    rho_tilde = build_rho_tilde(ch, params, model, budgets)
    dim = model.dim_total
    if dim * dim > budgets.work_limit:
        raise ResourceBudgetError(
            f"dense {dim}x{dim} accumulation exceeds work budget", reason="work"
        )
    tset = classical_typical_set(ch.priors, params.n, params.source_delta, budgets)
    log_priors = np.log(ch.priors)
    lhs = np.zeros((dim, dim), dtype=complex)
    outside = ~model.mask
    digits = digit_table(ch.letter_dim, params.n)
    pairs = 0
    for row in tset.sequences:
        cts = conditional_typical_outputs(ch, row, params.cond_delta, budgets)
        pairs += cts.count
        if pairs > budgets.set_limit:
            raise ResourceBudgetError(
                f"mixture identity needs more than {budgets.set_limit} pairs", reason="set"
            )
        if dim * cts.count > budgets.work_limit:
            raise ResourceBudgetError(
                f"{dim}x{cts.count} product eigenvectors exceed work budget", reason="work"
            )
        p_seq = math.exp(float(log_priors[row.astype(int)].sum()))
        vecs = product_entries([ch.coords[int(j)] for j in row], digits, cts.labels)
        vecs[outside] = 0.0
        lhs += (vecs * (p_seq * cts.probs)) @ vecs.conj().T
    if model.dim_H == 0:
        return float(np.abs(lhs).max()) if lhs.size else 0.0
    ix = model.masked_indices
    return float(np.abs(lhs[np.ix_(ix, ix)] - rho_tilde.as_dense()).max())


@dataclass(frozen=True, eq=False)
class POVMSet:
    """Effective POVM of the whole decoding chain, held on the typical subspace H.

    Element l is W_l W_l^dagger for a (dim_H, r) block W_l, with r = 1 for a
    rank-one test, in the masked basis of H; its rows outside H are zero and
    are not stored.  ``abort`` is the dim_H x dim_H block of the abort
    element, which is exactly the identity outside H.  ``dim`` is d^n, the
    space the POVM acts on.  Everything is in the average-state product
    eigenbasis.
    """

    plan: DecoderPlan
    blocks: tuple[np.ndarray, ...]
    abort: np.ndarray
    test_messages: tuple[int, ...]

    @property
    def num_elements(self) -> int:
        return len(self.test_messages)

    @property
    def dim(self) -> int:
        return self.plan.model.dim_total

    def completeness_defect(self) -> float:
        """Max-abs entry of abort + sum W W^dagger - identity; outside H it is exactly 0."""
        total = self.abort.copy()
        for w in self.blocks:
            total += w @ w.conj().T
        return float(np.abs(total - np.eye(total.shape[0])).max(initial=0.0))

    def element_min_eigenvalue(self, index: int) -> float:
        """Smallest eigenvalue of W W^dagger: the spectrum of W^dagger W plus dim - r zeros."""
        w = self.blocks[index]
        lam = np.linalg.eigvalsh(w.conj().T @ w)  # empty when r = 0
        return float(lam.min(initial=0.0 if w.shape[1] < self.dim else np.inf))

    def min_element_eigenvalue(self) -> float:
        """Smallest eigenvalue over all elements; the abort element adds exact 1s outside H."""
        lam = np.linalg.eigvalsh(self.abort)
        worst = float(lam.min(initial=1.0 if self.abort.shape[0] < self.dim else np.inf))
        return min([worst] + [self.element_min_eigenvalue(i) for i in range(self.num_elements)])


def build_povm(plan: DecoderPlan, budgets: Budgets = DEFAULT_BUDGETS) -> POVMSet:
    """Materialize the chain's POVM elements by accumulating the no-chain on H.

    With C_1 = P and C_(l+1) = P (1 - P_l) C_l, element l is C_l^dagger P_l C_l.
    Every C_l maps H into H, so the chain is the dim_H x dim_H matrix c, with
    c_1 = 1 and c <- c - W_l (W_l^dagger c) for test l's block W_l; element l's
    block is c^dagger W_l.  The whole set costs O(M) dim_H x dim_H updates.
    The abort block is identity - sum of the rest on H, then symmetrized.
    """
    dim_h = plan.model.dim_H
    if dim_h * dim_h > budgets.work_limit:
        raise ResourceBudgetError(
            f"{dim_h}x{dim_h} POVM accumulation exceeds work budget", reason="work"
        )
    chain = np.eye(dim_h, dtype=complex)  # C_1 = P
    total = np.zeros((dim_h, dim_h), dtype=complex)
    blocks: list[np.ndarray] = []
    for block, adjoint in zip(plan.blocks, plan.adjoints):
        wc = adjoint @ chain  # W^dagger c
        total += wc.conj().T @ wc
        blocks.append(wc.conj().T)
        chain -= block @ wc
    abort = np.eye(dim_h, dtype=complex) - total
    abort = 0.5 * (abort + abort.conj().T)
    return POVMSet(
        plan=plan,
        blocks=tuple(blocks),
        abort=abort,
        test_messages=tuple(t.message for t in plan.tests),
    )


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


def exact_error_probability(
    povm: POVMSet, ch: CQChannel, codebook: Codebook, budgets: Budgets = DEFAULT_BUDGETS
) -> ErrorReport:
    """Average error probability of the POVM on the exact product outputs.

    Every element column b lives on H, so its mass <b|rho_s|b> only reads
    rho_s[H, H]: the dense kron output indexed at the typical rows and
    columns.  The masses of all K columns come from one
    (K, dim_H) @ (dim_H, dim_H) product per message.
    """
    if ch is not povm.plan.channel:
        raise ValidationError("ch is not the channel the POVM was built for")
    if povm.plan.codebook != codebook:
        raise ValidationError("POVM was built for a different codebook")
    dim = povm.dim
    if dim * dim > budgets.work_limit:
        raise ResourceBudgetError(
            f"dense {dim}x{dim} output states exceed work budget", reason="work"
        )
    ix = povm.plan.model.masked_indices
    n_msg = codebook.num_messages
    messages = np.array(povm.test_messages, dtype=int)
    owner = np.repeat(messages, [b.shape[1] for b in povm.blocks])
    if povm.num_elements:
        basis = np.concatenate(povm.blocks, axis=1).T.copy()
    else:
        basis = np.zeros((0, ix.size), complex)
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
