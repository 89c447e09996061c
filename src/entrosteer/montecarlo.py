"""Monte Carlo surveys over random states and measurement bases.

Work items (states) get one derived integer seed each, drawn up front from the
caller's generator; every item then owns a fresh stream seeded by its own
integer, exactly `np.random.default_rng(seed)`; the stack samplers derive all
those streams in one vectorised pass (`_item_streams`). Chunking for the batch
evaluators uses a fixed block size. Together these make survey output a pure
function of (seed, n, parameters), independent of thread count, and any single
item reproducible in isolation.

The witness math inside the hot loops is vectorized (einsum over state/trial
axes) rather than routed through the public single-state API; the test suite
pins the two paths against each other to 1e-12 on subsamples.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .infotheory import NEG_TOL, ZERO_CUTOFF
from .measure import Povm, mub_set, pauli_bases, povm_omega
from .qmat import (
    DensityMatrix,
    ginibre_density,
    random_mixed_state,
    random_pure_state,
    validate_density_stack,
)
from .witness import sanchez_ruiz_bound

_BLOCK = 4096        # states per batch block (fixed: partition must not depend on threads)
_TRIAL_CHUNK = 512   # trials per draw chunk (prefix-stable: sequential draws from one stream)


class BracketError(RuntimeError):
    """Raised when a bisection bracket does not straddle a sign change."""


@dataclass(frozen=True)
class SurveyRecord:
    state_id: int
    v_conditional_AtoB: float
    v_conditional_BtoA: float
    v_symmetric: float
    purity_scaled: float


@dataclass(frozen=True)
class OptimizationResult:
    state_id: int
    best_v_AtoB: float
    best_v_BtoA: float
    trials: int
    seed: int
    # violation pair at the trial maximizing min(v_AtoB, v_BtoA); used to rank
    # one-way-steering candidates without a second pass
    best_joint_v_AtoB: float
    best_joint_v_BtoA: float


# ---------------------------------------------------------------------------
# seeding and scheduling

def _derived_seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=n)]


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and the
# PCG64 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_words(seeds) -> np.ndarray:
    """`SeedSequence(s).generate_state(4, np.uint64)` for every seed s in
    [0, 2**64), as one (n, 4) uint64 array.

    This is numpy's SeedSequence hash with each scalar uint32 word replaced by
    an array of that word over all seeds; the hash constants do not depend on
    the data, so they run as Python integers. A seed's entropy is its 32-bit
    words, low word first; numpy mixes a one-word seed with zero padding,
    which equals a zero high word, so every seed takes the two-word path.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(s.shape, np.uint32)
    entropy = [(s & _MASK32).astype(np.uint32), (s >> 32).astype(np.uint32), zero, zero]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(word) for word in entropy]
    for src in range(len(pool)):
        for dst in range(len(pool)):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    state = np.empty(s.shape + (8,), np.uint32)
    for k in range(8):
        value = pool[k % len(pool)] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[..., k] = value ^ (value >> _XSHIFT)
    # pairs of 32-bit words, low word first, whatever the host byte order
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _pcg64_state(w0: int, w1: int, w2: int, w3: int) -> dict:
    """The `PCG64.state` of a generator seeded with the words w0..w3:
    `pcg_setseq_128_srandom_r` with initial state w0:w1 and sequence w2:w3."""
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _item_streams(seeds):
    """Yield, for each seed in turn, a Generator in the state of
    `np.random.default_rng(seed)`, so every draw matches that generator's.

    The words of all seeds come from one vectorised `_seed_words` pass, and a
    single Generator is reset to each item's state instead of building one
    per item. It is the same object every time: draw each item before asking
    for the next. The first item's state is checked against `default_rng`
    on every call, so a numpy whose seeding differs raises RuntimeError
    instead of changing the samples.
    """
    words = _seed_words(seeds)
    g = np.random.default_rng(seeds[0])
    bit_gen = g.bit_generator
    if _pcg64_state(*words[0].tolist()) != bit_gen.state:
        raise RuntimeError(
            "this numpy seeds default_rng differently from the vectorised "
            f"SeedSequence derivation (numpy {np.__version__}); the per-item "
            "streams cannot be reproduced"
        )
    for lo in range(0, len(words), _BLOCK):
        for w in words[lo : lo + _BLOCK].tolist():
            bit_gen.state = _pcg64_state(*w)
            yield g


def _worker_count(threads: int, items: int, cpus: int | None) -> int:
    """Threads worth starting: no more than requested, than there are work
    items, or than the machine has CPUs (`os.cpu_count()`; None if unknown,
    which leaves the other two caps)."""
    return max(1, min(threads, items, cpus or threads))


def _parallel_map(fn, items, threads: int):
    workers = _worker_count(threads, len(items), os.cpu_count())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _ensemble_maker(ensemble: str):
    if ensemble == "pure":
        return lambda g: random_pure_state(2, 2, g).to_density()
    if ensemble == "mixed":
        # arbitrary-purity ensemble: Ginibre-induced with rank drawn uniformly
        # from {1..4}, so the survey spans maximally mixed through pure
        return lambda g: random_mixed_state(2, 2, int(g.integers(1, 5)), g)
    raise _unknown_ensemble(ensemble)


def _unknown_ensemble(ensemble: str) -> ValueError:
    return ValueError(f"ensemble must be 'pure' or 'mixed', got {ensemble!r}")


def _ensemble_stack(ensemble: str, seeds: list[int]) -> np.ndarray:
    """The states `_ensemble_maker(ensemble)` builds from each seed, as one
    unvalidated (n, 4, 4) stack.

    Only the draws run per item, from each item's own stream
    (`_item_streams`) and in the scalar order (rank, then the real and
    imaginary Gaussian blocks, which one call draws in sequence). The matrix
    arithmetic then runs once per stack with the per-element operations of
    the scalar constructors, so every item is bit-identical to its replay
    from the recorded seed.
    """
    n = len(seeds)
    if ensemble == "pure":
        draws = np.empty((n, 2, 4))
        for i, g in enumerate(_item_streams(seeds)):
            draws[i] = g.standard_normal((2, 4))
        v = draws[:, 0] + 1j * draws[:, 1]
        # per-row dots on the strided real and imaginary views: the BLAS calls
        # np.linalg.norm makes for one vector, so the norms match it bit for bit
        re, im = v.real[:, None, :], v.imag[:, None, :]
        sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
        v = v / np.sqrt(sq[:, 0])
        return v[:, :, None] * v.conj()[:, None, :]
    if ensemble != "mixed":
        raise _unknown_ensemble(ensemble)
    ranks = np.empty(n, dtype=np.intp)
    draws = np.empty((n, 2, 4, 4))
    for i, g in enumerate(_item_streams(seeds)):
        r = int(g.integers(1, 5))
        ranks[i] = r
        draws[i, :, :, :r] = g.standard_normal((2, 4, r))
    mats = np.empty((n, 4, 4), dtype=complex)
    for r in range(1, 5):
        idx = np.flatnonzero(ranks == r)
        mats[idx] = ginibre_density(draws[idx, 0, :, :r] + 1j * draws[idx, 1, :, :r])
    return mats


def _sample_stack(n: int, ensemble: str, rng: np.random.Generator):
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    seeds = _derived_seeds(rng, n)
    return _ensemble_stack(ensemble, seeds), seeds


def sample_ensemble(n: int, ensemble: str, rng: np.random.Generator):
    """Sample n two-qubit states; returns (states, per-state integer seeds)."""
    mats, seeds = _sample_stack(n, ensemble, rng)
    return [DensityMatrix((2, 2), m) for m in mats], seeds


# ---------------------------------------------------------------------------
# vectorized witness kernels

def _entropy_last_axis(p: np.ndarray) -> np.ndarray:
    safe = np.where(p > ZERO_CUTOFF, p, 1.0)
    return -np.sum(np.where(p > ZERO_CUTOFF, p, 0.0) * np.log2(safe), axis=-1)


def _column_matrices(bases) -> np.ndarray:
    return np.stack([b.matrix for b in bases])


def _product_columns(a_mats: np.ndarray, b_mats: np.ndarray) -> np.ndarray:
    # K[m][(i,j),(a,b)] = A[m,i,a] * B[m,j,b]: product-state columns per basis
    m, d_a = a_mats.shape[0], a_mats.shape[1]
    d_b = b_mats.shape[1]
    k = np.einsum("mia,mjb->mijab", a_mats, b_mats)
    return k.reshape(m, d_a * d_b, d_a * d_b)


def _clamp_probs(p: np.ndarray) -> np.ndarray:
    if p.min() < -NEG_TOL:
        raise ValueError(
            f"negative joint probability {p.min():.3e} beyond the 1e-12 tolerance"
        )
    return np.clip(p, 0.0, None)


def _joint_probs_states(rho_mats, k_mats, d_a: int, d_b: int) -> np.ndarray:
    # (s,D,D) states x (m,D,D) product-column sets -> (s,m,d_a,d_b)
    p = np.einsum(
        "mjx,sjk,mkx->smx", k_mats.conj(), rho_mats, k_mats, optimize=True
    ).real
    return _clamp_probs(p).reshape(p.shape[0], p.shape[1], d_a, d_b)


def _joint_probs_trials(rho_mat, k_mats, d_a: int, d_b: int) -> np.ndarray:
    # one state x (q,D,D) product-column sets -> (q,d_a,d_b)
    p = np.einsum("qjx,jk,qkx->qx", k_mats.conj(), rho_mat, k_mats, optimize=True).real
    return _clamp_probs(p).reshape(-1, d_a, d_b)


def _povm_joint_states(rho_mats, els_a, els_b, d_a: int, d_b: int) -> np.ndarray:
    # general-POVM joints for a batch of states -> (s, n_a, n_b)
    rr = rho_mats.reshape(-1, d_a, d_b, d_a, d_b)
    p = np.einsum("aik,bjl,sklij->sab", els_a, els_b, rr, optimize=True).real
    return _clamp_probs(p)


def _per_basis_entropies(p: np.ndarray):
    """H(A,B), H(A), H(B) along the last two (outcome) axes of p."""
    h_joint = _entropy_last_axis(p.reshape(p.shape[:-2] + (-1,)))
    h_a = _entropy_last_axis(p.sum(axis=-1))
    h_b = _entropy_last_axis(p.sum(axis=-2))
    return h_joint, h_a, h_b


# ---------------------------------------------------------------------------
# scatter survey (conditional vs symmetric violations, fixed Pauli triples)

def _fig1_kernel(mats: np.ndarray, evals: np.ndarray, threads: int) -> np.ndarray:
    """``(n, 4)`` columns v_conditional_AtoB, v_conditional_BtoA, v_symmetric
    and purity_scaled for validated ``(n, 4, 4)`` states with ascending
    eigenvalues ``evals``."""
    trip = _column_matrices(pauli_bases())
    k = _product_columns(trip, trip)
    bound_c = sanchez_ruiz_bound(2)
    bound_m = 3.0 * math.log2(2) - bound_c

    def block(idx):
        p = _joint_probs_states(mats[idx], k, 2, 2)
        h_joint, h_a, h_b = _per_basis_entropies(p)
        v_ab = bound_c - (h_joint - h_a).sum(axis=-1)
        v_ba = bound_c - (h_joint - h_b).sum(axis=-1)
        v_sym = (h_a + h_b - h_joint).sum(axis=-1) - bound_m
        ev = np.clip(evals[idx], 0.0, 1.0)
        purity = 1.0 - _entropy_last_axis(ev) / 2.0
        return np.stack([v_ab, v_ba, v_sym, purity], axis=1)

    blocks = [
        np.arange(lo, min(lo + _BLOCK, len(mats)))
        for lo in range(0, len(mats), _BLOCK)
    ]
    return np.concatenate(_parallel_map(block, blocks, threads), axis=0)


def _records(vals: np.ndarray) -> list[SurveyRecord]:
    # column lists, not one list per row: the floats are made in one pass
    # and no n short-lived row lists raise the peak memory
    return [SurveyRecord(i, *row) for i, row in enumerate(zip(*vals.T.tolist()))]


def survey_fig1_states(states, threads: int = 1) -> list[SurveyRecord]:
    """Evaluate the full-MUB conditional and symmetric witnesses, with Pauli
    triples on both sides, for an explicit list of two-qubit states."""
    if any(s.dims != (2, 2) for s in states):
        raise ValueError("scatter survey is defined for two-qubit states")
    mats = np.stack([s.mat for s in states])
    return _records(_fig1_kernel(mats, np.linalg.eigvalsh(mats), threads))


def survey_fig1(
    n: int, ensemble: str, rng: np.random.Generator, threads: int = 1
) -> list[SurveyRecord]:
    """Scatter survey over n sampled states (ensemble "pure" or "mixed").

    The sampled stack is validated once, and the validation eigenvalues give
    the purity column; no DensityMatrix is built per state.
    """
    return _records(_survey_fig1_values(n, ensemble, rng, threads))


def _survey_fig1_values(
    n: int, ensemble: str, rng: np.random.Generator, threads: int
) -> np.ndarray:
    # the value columns of survey_fig1, without building a record per state
    mats, _ = _sample_stack(n, ensemble, rng)
    return _fig1_kernel(mats, validate_density_stack(mats), threads)


# ---------------------------------------------------------------------------
# basis-set search (random Haar rotations of the reference MUB set)

def _directional_trial_values(rho: DensityMatrix, trials: int, rng: np.random.Generator):
    """Both directional full-MUB conditional violations for `trials` random
    basis-set pairs. Each pair rotates the complete reference MUB set by one
    Haar unitary per party, which preserves mutual unbiasedness, so the
    entropy-sum bound stays valid on either steered side.

    Draws are trial-major from a single stream, so the first T trials of a
    longer run coincide with a trials=T run from the same generator state.
    """
    d_a, d_b = rho.dims
    if d_a != d_b:
        raise ValueError("basis search needs equal local dimensions")
    d = d_a
    ref = _column_matrices(mub_set(d))
    n_bases = ref.shape[0]
    bound = sanchez_ruiz_bound(d)
    v_ab = np.empty(trials)
    v_ba = np.empty(trials)
    done = 0
    while done < trials:
        t = min(_TRIAL_CHUNK, trials - done)
        raw = rng.standard_normal((t, 2, d, d, 2))
        z = raw[..., 0] + 1j * raw[..., 1]
        q, r = np.linalg.qr(z)
        diag = np.einsum("...ii->...i", r)
        mag = np.abs(diag)
        phase = np.where(mag > 0, diag, 1.0) / np.where(mag > 0, mag, 1.0)
        u = q * phase[..., None, :]
        a = np.einsum("tjk,mkl->tmjl", u[:, 0], ref)
        b = np.einsum("tjk,mkl->tmjl", u[:, 1], ref)
        k = np.einsum("tmia,tmjb->tmijab", a, b).reshape(t * n_bases, d * d, d * d)
        p = _joint_probs_trials(rho.mat, k, d, d).reshape(t, n_bases, d, d)
        h_joint, h_a, h_b = _per_basis_entropies(p)
        v_ab[done : done + t] = bound - (h_joint - h_a).sum(axis=-1)
        v_ba[done : done + t] = bound - (h_joint - h_b).sum(axis=-1)
        done += t
    return v_ab, v_ba


def optimize_bases(
    rho: DensityMatrix,
    trials: int,
    rng: np.random.Generator,
    state_id: int = 0,
    seed: int = -1,
) -> OptimizationResult:
    """Random-search maximization of the directional full-MUB violations.

    Both directions are evaluated on the same trial set. `state_id` and `seed`
    are provenance labels recorded in the result (surveys fill them with the
    item index and its derived integer seed; direct callers may leave them).
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    v_ab, v_ba = _directional_trial_values(rho, trials, rng)
    i = int(np.argmax(np.minimum(v_ab, v_ba)))
    return OptimizationResult(
        state_id=state_id,
        best_v_AtoB=float(v_ab.max()),
        best_v_BtoA=float(v_ba.max()),
        trials=trials,
        seed=seed,
        best_joint_v_AtoB=float(v_ab[i]),
        best_joint_v_BtoA=float(v_ba[i]),
    )


def survey_fig2(
    n: int, ensemble: str, trials: int, rng: np.random.Generator, threads: int = 1
) -> list[tuple[OptimizationResult, float]]:
    """Basis-search survey: optimize each of n sampled states over `trials`
    random basis-set pairs. Returns (result, purity_scaled) per state.

    Each work item draws its state and then its trial stream from one derived
    seed, so items are independent of scheduling and individually replayable.
    Items run on pool threads, so each builds its own `default_rng(seed)`
    rather than sharing `_item_streams`' one generator; at about 17 us per
    item, seeding is a few milliseconds of a run whose trials take seconds.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    maker = _ensemble_maker(ensemble)
    seeds = _derived_seeds(rng, n)

    def work(item):
        i, seed = item
        g = np.random.default_rng(seed)
        state = maker(g)
        result = optimize_bases(state, trials, g, state_id=i, seed=seed)
        ev = np.clip(np.linalg.eigvalsh(state.mat), 0.0, 1.0)
        purity = 1.0 - float(_entropy_last_axis(ev)) / 2.0
        return result, purity

    return _parallel_map(work, list(enumerate(seeds)), threads)


def basis_sweep(
    rho: DensityMatrix, n: int, rng: np.random.Generator
) -> list[tuple[float, float]]:
    """n independent random basis-set pairs on one state; both directional
    violations per pair, no maximization."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    v_ab, v_ba = _directional_trial_values(rho, n, rng)
    return list(zip(v_ab.tolist(), v_ba.tolist()))


# ---------------------------------------------------------------------------
# threshold bisection

def threshold_bisect(witness_family, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Bisect a parametrized violation curve for its sign change.

    `witness_family` maps a parameter to a signed violation; it must be
    negative at `lo` and positive at `hi` (monotonicity is the caller's
    responsibility). Returns the crossing within `tol`, or within one float
    spacing when `tol` is finer than that: bisection stops as soon as the
    midpoint is no longer strictly inside the bracket.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    f_lo, f_hi = witness_family(lo), witness_family(hi)
    if not (f_lo < 0.0 < f_hi):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={f_lo:.6g}, f(hi)={f_hi:.6g}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if witness_family(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# separable soundness ensemble

def separable_sample(n: int, k_max: int, rng: np.random.Generator) -> list[DensityMatrix]:
    """n separable two-qubit states: convex mixtures of at most k_max product
    states with Dirichlet-uniform weights and random single-qubit factors
    (rank 1 or 2, so pure-product boundary cases are included)."""
    return [DensityMatrix((2, 2), m) for m in _sample_separable_stack(n, k_max, rng)]


def _sample_separable_stack(n: int, k_max: int, rng: np.random.Generator) -> np.ndarray:
    if n < 1 or k_max < 1:
        raise ValueError(f"need n >= 1 and k_max >= 1, got n={n}, k_max={k_max}")
    return _separable_stack(_derived_seeds(rng, n), k_max)


def _grown(a: np.ndarray, size: int) -> np.ndarray:
    out = np.empty((size,) + a.shape[1:], a.dtype)
    out[: len(a)] = a
    return out


def _separable_stack(seeds: list[int], k_max: int) -> np.ndarray:
    """The unvalidated (n, 4, 4) stack of `separable_sample` states.

    Per item, in draw order: the term count k, the k Dirichlet weights, then
    for each term the rank and Gaussian block of Alice's factor and then of
    Bob's (the draws of `random_mixed_state(2, 1, rank, g)`). Factor
    normalisation, Kronecker products and the weighted sums then run over
    stacks, each item summing its terms in order from a zero matrix, which is
    the per-element arithmetic of building items one at a time.
    """
    n = len(seeds)
    counts = np.empty(n, dtype=np.intp)
    cap = n * (k_max + 1) // 2 + 64       # terms held: the expected count, grown when full
    weights = np.empty(cap)
    ranks = np.empty(2 * cap, dtype=np.intp)   # factor 2t is Alice's, 2t+1 Bob's
    draws = np.empty((2 * cap, 2, 2, 2))       # factor, re/im, row, column (padded)
    t = 0
    for i, g in enumerate(_item_streams(seeds)):
        k = int(g.integers(1, k_max + 1))
        if t + k > cap:
            cap += cap // 4 + k
            weights, ranks, draws = (
                _grown(weights, cap), _grown(ranks, 2 * cap), _grown(draws, 2 * cap)
            )
        counts[i] = k
        weights[t : t + k] = g.dirichlet(np.ones(k))
        for f in range(2 * t, 2 * (t + k)):
            r = int(g.integers(1, 3))
            ranks[f] = r
            draws[f, :, :, :r] = g.standard_normal((2, 2, r))
        t += k
    factors = np.empty((2 * t, 2, 2), dtype=complex)
    for r in (1, 2):
        idx = np.flatnonzero(ranks[: 2 * t] == r)
        factors[idx] = ginibre_density(draws[idx, 0, :, :r] + 1j * draws[idx, 1, :, :r])
    fa, fb = factors[0::2], factors[1::2]
    kron = (fa[:, :, None, :, None] * fb[:, None, :, None, :]).reshape(t, 4, 4)
    owner = np.repeat(np.arange(n), counts)
    position = np.arange(t) - np.repeat(np.cumsum(counts) - counts, counts)
    mats = np.zeros((n, 4, 4), dtype=complex)
    for j in range(int(counts.max())):
        sel = np.flatnonzero(position == j)
        mats[owner[sel]] += weights[sel, None, None] * kron[sel]
    return mats


def ppt_min_eigenvalue(states) -> float:
    """Smallest partial-transpose eigenvalue over a batch of two-qubit states;
    nonnegative (within tolerance) certifies every state separable."""
    return _ppt_min_eigenvalue(np.stack([s.mat for s in states]))


def _ppt_min_eigenvalue(mats: np.ndarray) -> float:
    # mats: validated (n, 4, 4) two-qubit states
    pt = mats.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    return float(np.linalg.eigvalsh(pt).min())


_SMEAR_ETA = 0.2     # identity weight of the audit's smeared POVM elements


def _smeared_povm(basis, eta: float) -> Povm:
    eye = np.eye(2, dtype=complex)
    els = tuple(
        (1.0 - eta) * np.outer(v, v.conj()) + eta * eye / 2.0 for v in basis.vectors
    )
    return Povm(2, els)


def soundness_audit(states, threads: int = 1, eta: float = _SMEAR_ETA) -> dict[str, float]:
    """Max violation of every implemented discrete witness over a state batch.

    Covers both pair-conditional directions (X/Z), the pair symmetric MI
    witness, both full-MUB conditional directions, the full-MUB MI witness,
    the modular sum/difference witness, and a smeared-POVM conditional pair
    (elements (1-eta) P_i + eta I/2) exercising the operator-norm bound.
    On separable inputs every returned value should be <= 0 up to 1e-9.
    """
    if any(s.dims != (2, 2) for s in states):
        raise ValueError("soundness audit is defined for two-qubit states")
    return _soundness_audit(np.stack([s.mat for s in states]), threads, eta)


def _soundness_audit(
    mats: np.ndarray, threads: int = 1, eta: float = _SMEAR_ETA
) -> dict[str, float]:
    # mats: validated (n, 4, 4) two-qubit states
    trip = _column_matrices(pauli_bases())
    k = _product_columns(trip, trip)
    bound_c2 = 1.0                       # log2 of the X/Z overlap constant
    bound_c3 = sanchez_ruiz_bound(2)
    bound_m3 = 3.0 * math.log2(2) - bound_c3
    bound_m2 = math.log2(4.0 / 2.0)      # N^2 / min overlap constant, N = 2
    x_basis, _, z_basis = pauli_bases()
    povm_x = _smeared_povm(x_basis, eta)
    povm_z = _smeared_povm(z_basis, eta)
    bound_povm = math.log2(povm_omega(povm_x, povm_z))
    els_x = povm_x.stacked
    els_z = povm_z.stacked

    def block(idx):
        p = _joint_probs_states(mats[idx], k, 2, 2)       # (s, 3, 2, 2)
        h_joint, h_a, h_b = _per_basis_entropies(p)
        h_bga = h_joint - h_a
        h_agb = h_joint - h_b
        mi = h_a + h_b - h_joint
        # modular sums: for two outcomes, plus and minus coincide
        px, pz = p[:, 0], p[:, 2]
        hsum_x = _entropy_last_axis(
            np.stack([px[:, 0, 0] + px[:, 1, 1], px[:, 0, 1] + px[:, 1, 0]], axis=-1)
        )
        hsum_z = _entropy_last_axis(
            np.stack([pz[:, 0, 0] + pz[:, 1, 1], pz[:, 0, 1] + pz[:, 1, 0]], axis=-1)
        )
        pvx = _povm_joint_states(mats[idx], els_x, els_x, 2, 2)
        pvz = _povm_joint_states(mats[idx], els_z, els_z, 2, 2)
        hv_joint_x, hv_a_x, hv_b_x = _per_basis_entropies(pvx)
        hv_joint_z, hv_a_z, hv_b_z = _per_basis_entropies(pvz)
        return {
            "pair_conditional_AtoB": bound_c2 - (h_bga[:, 0] + h_bga[:, 2]),
            "pair_conditional_BtoA": bound_c2 - (h_agb[:, 0] + h_agb[:, 2]),
            "pair_symmetric_mi": (mi[:, 0] + mi[:, 2]) - bound_m2,
            "mub_conditional_AtoB": bound_c3 - h_bga.sum(axis=-1),
            "mub_conditional_BtoA": bound_c3 - h_agb.sum(axis=-1),
            "mub_mi": mi.sum(axis=-1) - bound_m3,
            "sumdiff_discrete": bound_c2 - (hsum_x + hsum_z),
            "povm_pair_conditional_AtoB": bound_povm
            - ((hv_joint_x - hv_a_x) + (hv_joint_z - hv_a_z)),
            "povm_pair_conditional_BtoA": bound_povm
            - ((hv_joint_x - hv_b_x) + (hv_joint_z - hv_b_z)),
        }

    blocks = [
        np.arange(lo, min(lo + _BLOCK, len(mats)))
        for lo in range(0, len(mats), _BLOCK)
    ]
    parts = _parallel_map(block, blocks, threads)
    return {
        name: float(np.concatenate([part[name] for part in parts]).max())
        for name in parts[0]
    }
