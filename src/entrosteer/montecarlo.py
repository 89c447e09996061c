"""Monte Carlo surveys over random states and measurement bases.

Work items (states) get one derived integer seed each, drawn up front from the
caller's generator; every item then owns a fresh stream seeded by its own
integer. Chunking for the batch evaluators uses a fixed block size. Together
these make survey output a pure function of (seed, n, parameters), independent
of thread count, and any single item reproducible in isolation.

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

from .measure import Povm, mub_set, pauli_bases, povm_omega
from .qmat import (
    DensityMatrix,
    ginibre_density,
    random_mixed_state,
    random_pure_state,
    validate_density_stack,
)
from .witness import sanchez_ruiz_bound

_ZERO = 1e-15
_NEG_TOL = 1e-12
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

    Only the draws run per item, from each item's own generator and in the
    scalar order (rank, then the real and imaginary Gaussian blocks, which
    one call draws in sequence). The matrix arithmetic then runs once per
    stack with the per-element operations of the scalar constructors, so every
    item is bit-identical to its replay from the recorded seed.
    """
    n = len(seeds)
    if ensemble == "pure":
        draws = np.empty((n, 2, 4))
        for i, seed in enumerate(seeds):
            draws[i] = np.random.default_rng(seed).standard_normal((2, 4))
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
    for i, seed in enumerate(seeds):
        g = np.random.default_rng(seed)
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
    safe = np.where(p > _ZERO, p, 1.0)
    return -np.sum(np.where(p > _ZERO, p, 0.0) * np.log2(safe), axis=-1)


def _column_matrices(bases) -> np.ndarray:
    return np.stack([b.matrix for b in bases])


def _product_columns(a_mats: np.ndarray, b_mats: np.ndarray) -> np.ndarray:
    # K[m][(i,j),(a,b)] = A[m,i,a] * B[m,j,b]: product-state columns per basis
    m, d_a = a_mats.shape[0], a_mats.shape[1]
    d_b = b_mats.shape[1]
    k = np.einsum("mia,mjb->mijab", a_mats, b_mats)
    return k.reshape(m, d_a * d_b, d_a * d_b)


def _clamp_probs(p: np.ndarray) -> np.ndarray:
    if p.min() < -_NEG_TOL:
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

def _fig1_kernel(mats: np.ndarray, evals: np.ndarray, threads: int) -> list[SurveyRecord]:
    # mats: validated (n, 4, 4) states; evals: their ascending eigenvalues
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
    vals = np.concatenate(_parallel_map(block, blocks, threads), axis=0)
    return [
        SurveyRecord(i, float(r[0]), float(r[1]), float(r[2]), float(r[3]))
        for i, r in enumerate(vals)
    ]


def survey_fig1_states(states, threads: int = 1) -> list[SurveyRecord]:
    """Evaluate the full-MUB conditional and symmetric witnesses, with Pauli
    triples on both sides, for an explicit list of two-qubit states."""
    if any(s.dims != (2, 2) for s in states):
        raise ValueError("scatter survey is defined for two-qubit states")
    mats = np.stack([s.mat for s in states])
    return _fig1_kernel(mats, np.linalg.eigvalsh(mats), threads)


def survey_fig1(
    n: int, ensemble: str, rng: np.random.Generator, threads: int = 1
) -> list[SurveyRecord]:
    """Scatter survey over n sampled states (ensemble "pure" or "mixed").

    The sampled stack is validated once, and the validation eigenvalues give
    the purity column; no DensityMatrix is built per state.
    """
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
    if n < 1 or k_max < 1:
        raise ValueError(f"need n >= 1 and k_max >= 1, got n={n}, k_max={k_max}")
    mats = _separable_stack(_derived_seeds(rng, n), k_max)
    return [DensityMatrix((2, 2), m) for m in mats]


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
    for i, seed in enumerate(seeds):
        g = np.random.default_rng(seed)
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
    mats = np.stack([s.mat for s in states])
    pt = mats.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    return float(np.linalg.eigvalsh(pt).min())


def _smeared_povm(basis, eta: float) -> Povm:
    eye = np.eye(2, dtype=complex)
    els = tuple(
        (1.0 - eta) * np.outer(v, v.conj()) + eta * eye / 2.0 for v in basis.vectors
    )
    return Povm(2, els)


def soundness_audit(states, threads: int = 1, eta: float = 0.2) -> dict[str, float]:
    """Max violation of every implemented discrete witness over a state batch.

    Covers both pair-conditional directions (X/Z), the pair symmetric MI
    witness, both full-MUB conditional directions, the full-MUB MI witness,
    the modular sum/difference witness, and a smeared-POVM conditional pair
    (elements (1-eta) P_i + eta I/2) exercising the operator-norm bound.
    On separable inputs every returned value should be <= 0 up to 1e-9.
    """
    if any(s.dims != (2, 2) for s in states):
        raise ValueError("soundness audit is defined for two-qubit states")
    mats = np.stack([s.mat for s in states])
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
        np.arange(lo, min(lo + _BLOCK, len(states)))
        for lo in range(0, len(states), _BLOCK)
    ]
    parts = _parallel_map(block, blocks, threads)
    return {
        name: float(np.concatenate([part[name] for part in parts]).max())
        for name in parts[0]
    }
