"""Monte Carlo surveys over random states and measurement bases.

Work items (states) each own a random stream derived from one integer seed
(`streams`): a state replays bit for bit from its seed. Evaluators chunk n into
fixed blocks, so output is a pure function of (seed, n, parameters); an item's
values move in the last bits with its block's size (einsum path, BLAS rounding).

The surveys hold no witness math of their own. Each layer has one owner, which
the scalar witness API shares: `measure` contracts states with measurements
(`_product_joints`, `_povm_joints`, ending in the probability checks),
`infotheory` turns the joints into entropies, and `witness` adds them into
the inequalities and supplies their bounds. The kernels here only batch
states or trials through those functions, in blocks.
"""

from __future__ import annotations

import math
import os
from functools import cache
from typing import NamedTuple

import numpy as np

from .infotheory import _joint_entropies, _modular_entropies, _spectrum_entropies
from .measure import Povm, _povm_joints, _product_columns, _product_joints, mub_set, overlap_omega
from .measure import pauli_bases, povm_omega
from .qmat import DensityMatrix, _choice, _count, _equal_dims, _haar_unitaries, _state
from .qmat import ginibre_density, validate_density_stack
from .streams import _derived_seeds, _item_streams
from .witness import (
    _conditional_sum,
    _left_sum,
    _mi_sum,
    _mub_mi_bound,
    _pair_mi_bound,
    sanchez_ruiz_bound,
)

_BLOCK = 1024        # states per batch block (fixed: 512 ran slower, 2048 peaked higher)
_TRIAL_CHUNK = 512   # trials per draw chunk (prefix-stable: sequential draws from one stream)


class BracketError(RuntimeError):
    """Raised when a bisection bracket does not straddle a sign change."""


class OptimizationResult(NamedTuple):
    state_id: int
    best_v_AtoB: float
    best_v_BtoA: float
    trials: int
    seed: int


# ---------------------------------------------------------------------------
# scheduling

def _worker_count(threads: int, items: int, cpus: int | None) -> int:
    """Threads worth starting: no more than requested, than there are work
    items, or than the machine has CPUs (`os.cpu_count()`; None if unknown,
    which leaves the other two caps)."""
    return max(1, min(threads, items, cpus or threads))


def _ensemble_stack(ensemble: str, seeds: list[int]) -> np.ndarray:
    """The two-qubit states of an ensemble, one per seed, as one unvalidated
    (n, 4, 4) stack: Haar-random pure states ("pure"), or ("mixed")
    Ginibre-induced states whose rank is drawn uniformly from {1..4}, so the
    survey spans maximally mixed through pure.

    Only the Gaussian fills run per item, from each item's own stream
    (`_item_streams`) and in the order of the scalar constructors
    `random_pure_state` and `random_mixed_state` (rank, then the real and
    imaginary Gaussian blocks, which one call draws in sequence). The mixed
    ranks come with the streams, from each stream's first output, and each
    item fills the next row of a contiguous ``(n_r, 2, 4, r)`` buffer for its
    rank r. The matrix arithmetic then runs once per stack with the
    per-element operations of those constructors, so every item is
    bit-identical to its replay from the recorded seed.
    """
    n = len(seeds)
    if _choice(ensemble, ("pure", "mixed"), "ensemble") == "pure":
        draws = np.empty((n, 2, 4))
        for g, row in zip(_item_streams(seeds), draws):
            g.standard_normal(out=row)
        v = draws[:, 0] + 1j * draws[:, 1]
        # per-row dots on the strided real and imaginary views: the BLAS calls
        # np.linalg.norm makes for one vector, so the norms match it bit for bit
        re, im = v.real[:, None, :], v.imag[:, None, :]
        sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
        v = v / np.sqrt(sq[:, 0])
        return v[:, :, None] * v.conj()[:, None, :]
    ranks = np.empty(n, dtype=np.intp)
    items = _item_streams(seeds, ranks)
    bufs = [np.empty((np.count_nonzero(ranks == r), 2, 4, r)) for r in range(1, 5)]
    rows = [iter(buf) for buf in bufs]   # each rank's items arrive in seed order
    for g, r in zip(items, ranks.tolist()):
        g.standard_normal(out=next(rows[r - 1]))
    mats = np.empty((n, 4, 4), dtype=complex)
    for r, buf in enumerate(bufs, 1):
        if len(buf):   # a small block may lack a rank
            mats[ranks == r] = ginibre_density(buf[:, 0] + 1j * buf[:, 1])
    return mats


def _sampled_blocks(n: int, rng: np.random.Generator, sample, kernel):
    """The sampled surveys' pipeline over n items: per `_BLOCK` of them, in
    turn and holding no other block, its offset and ``kernel(mats, evals)`` of
    its states ``mats = sample(seeds)`` and their eigenvalues from
    `validate_density_stack` (whose errors name indices in the whole stack).
    Each block's item seeds are drawn from `rng` only when the block is
    reached; `_derived_seeds` is prefix-stable, so they are the seeds of one
    draw of all n, and `rng` ends in the same state."""
    for lo in range(0, n, _BLOCK):   # a block's size moves its values' last bits
        mats = sample(_derived_seeds(rng, min(_BLOCK, n - lo)))
        # yielded unbound, so the generator keeps no result past its block
        yield lo, kernel(mats, validate_density_stack(mats, lo))
        del mats   # not held while the next block is sampled


# ---------------------------------------------------------------------------
# scatter survey (conditional vs symmetric violations, fixed Pauli triples)

@cache
def _mub_matrices(d: int) -> np.ndarray:
    # (d+1, d, d): the unitaries whose columns are the kets of each MUB, built
    # once per dimension and read-only, since every caller shares the array
    mats = np.stack([b.matrix for b in mub_set(d)])
    mats.setflags(write=False)
    return mats


@cache
def _pauli_columns() -> np.ndarray:
    # (3, 4, 4): the Pauli triple's product kets, built once per process and read-only
    cols = _product_columns(_mub_matrices(2), _mub_matrices(2))
    cols.setflags(write=False)
    return cols


def _purity_scaled(evals: np.ndarray) -> np.ndarray:
    """1 - S(rho) / 2 from the ascending two-qubit eigenvalues ``(..., 4)``:
    1 for a pure state, 0 for the maximally mixed one."""
    return 1.0 - _spectrum_entropies(evals) / 2.0


def _fig1_kernel(mats: np.ndarray, evals: np.ndarray) -> np.ndarray:
    """``(n, 4)`` columns v_conditional_AtoB, v_conditional_BtoA, v_symmetric
    and purity_scaled for one block (`_BLOCK`) of validated ``(n, 4, 4)``
    states with ascending eigenvalues ``evals``: the `mub_conditional` and
    `mub_mi` witnesses with Pauli triples on both sides."""
    bound_c = sanchez_ruiz_bound(2)
    h_joint, h_a, h_b = _joint_entropies(_product_joints(mats, _pauli_columns(), (2, 2)))
    v_ab = bound_c - _conditional_sum(h_joint, h_a)
    v_ba = bound_c - _conditional_sum(h_joint, h_b)
    v_sym = _mi_sum(h_joint, h_a, h_b) - _mub_mi_bound(2, bound_c)
    return np.stack([v_ab, v_ba, v_sym, _purity_scaled(evals)], axis=1)


def survey_fig1(n: int, ensemble: str, rng: np.random.Generator):
    """Scatter survey over n sampled states (ensemble "pure" or "mixed"), as a
    stream of ``(offset, columns)``, one per block of at most `_BLOCK` states:
    `columns` is the block's ``(m, 4)`` array of `_fig1_kernel`, row i for
    state offset + i. The arguments are checked when called; each block is
    sampled, validated once and evaluated when it is reached, so no more than
    one block is held. Runs on one thread.
    """
    _choice(ensemble, ("pure", "mixed"), "ensemble")
    return _sampled_blocks(_count(n, "n"), rng, lambda seeds: _ensemble_stack(ensemble, seeds),
                           _fig1_kernel)


# ---------------------------------------------------------------------------
# basis-set search (random Haar rotations of the reference MUB set)

def _directional_trial_values(mat: np.ndarray, trials: int, rng: np.random.Generator):
    """Both directional full-MUB conditional violations of a validated state
    of two d-level parties, ``(d*d, d*d)``, for `trials` random basis-set
    pairs. Each pair rotates the complete reference MUB set by one Haar
    unitary per party, which preserves mutual unbiasedness, so the
    entropy-sum bound stays valid on either steered side.

    Draws are trial-major from a single stream, so the first T trials of a
    longer run coincide with a trials=T run from the same generator state.
    """
    d = math.isqrt(len(mat))
    ref = _mub_matrices(d)
    n_bases = ref.shape[0]
    bound = sanchez_ruiz_bound(d)
    v_ab = np.empty(trials)
    v_ba = np.empty(trials)
    done = 0
    while done < trials:
        t = min(_TRIAL_CHUNK, trials - done)
        raw = rng.standard_normal((t, 2, d, d, 2))
        u = _haar_unitaries(raw[..., 0] + 1j * raw[..., 1])
        a = np.einsum("tjk,mkl->tmjl", u[:, 0], ref).reshape(-1, d, d)
        b = np.einsum("tjk,mkl->tmjl", u[:, 1], ref).reshape(-1, d, d)
        p = _product_joints(mat[None], _product_columns(a, b), (d, d)).reshape(t, n_bases, d, d)
        h_joint, h_a, h_b = _joint_entropies(p)
        v_ab[done : done + t] = bound - _conditional_sum(h_joint, h_a)
        v_ba[done : done + t] = bound - _conditional_sum(h_joint, h_b)
        done += t
    return v_ab, v_ba


def _optimize(mat, trials: int, rng, state_id: int, seed: int) -> OptimizationResult:
    v_ab, v_ba = _directional_trial_values(mat, trials, rng)
    return OptimizationResult(
        state_id=state_id,
        best_v_AtoB=float(v_ab.max()),
        best_v_BtoA=float(v_ba.max()),
        trials=trials,
        seed=seed,
    )


def optimize_bases(
    rho: DensityMatrix,
    trials: int,
    rng: np.random.Generator,
) -> OptimizationResult:
    """Random-search maximization of the directional full-MUB violations.

    Both directions are evaluated on the same trial set. The result's
    `state_id` and `seed` read 0 and -1: only `survey_fig2` fills them, with
    the item index and its derived integer seed.
    """
    _equal_dims(_state(rho, "optimize_bases"), "basis search")
    return _optimize(rho.mat, _count(trials, "trials"), rng, 0, -1)


def survey_fig2(
    n: int, ensemble: str, trials: int, rng: np.random.Generator, threads: int = 1
) -> list[tuple[OptimizationResult, float]]:
    """Basis-search survey: optimize each of n sampled states over `trials`
    random basis-set pairs. Returns (result, purity_scaled) per state.

    Each work item draws its state and then its trial stream from one derived
    seed, so items are independent of scheduling and individually replayable.
    The states are drawn as one stack on the calling thread and validated
    once; each pool thread (`threads` >= 1) then draws its item's trials from
    `default_rng(seed)`, past the state's draws in `_ensemble_stack`'s order.
    """
    trials, threads = _count(trials, "trials"), _count(threads, "threads")
    _choice(ensemble, ("pure", "mixed"), "ensemble")
    n = _count(n, "n")
    seeds = _derived_seeds(rng, n)
    mats = _ensemble_stack(ensemble, seeds)
    purity = _purity_scaled(validate_density_stack(mats)).tolist()

    def work(i):
        g = np.random.default_rng(seeds[i])
        g.standard_normal((2, 4) if ensemble == "pure" else (2, 4, int(g.integers(1, 5))))
        return _optimize(mats[i], trials, g, i, seeds[i]), purity[i]

    workers = _worker_count(threads, n, os.cpu_count())
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor   # not loaded for the serial commands
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, range(n)))
    return [work(i) for i in range(n)]


def basis_sweep(
    rho: DensityMatrix, n: int, rng: np.random.Generator
) -> list[tuple[float, float]]:
    """n independent random basis-set pairs on one state; both directional
    violations per pair, no maximization."""
    _equal_dims(_state(rho, "basis_sweep"), "basis search")
    v_ab, v_ba = _directional_trial_values(rho.mat, _count(n, "n"), rng)
    return list(zip(v_ab.tolist(), v_ba.tolist()))


# ---------------------------------------------------------------------------
# threshold bisection

def threshold_bisect(witness_family, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Bisect a parametrized violation curve for its sign change.

    `witness_family` maps a parameter to a signed violation; it must be
    negative at `lo` and positive at `hi` (monotonicity is the caller's
    responsibility; BracketError otherwise). A NaN at any evaluated parameter,
    the endpoints included, raises ValueError naming it, as do endpoints beyond
    2**1022 in size or with `lo >= hi`. Returns the crossing within `tol`, or
    within one float spacing when `tol` is finer than that: bisection stops as
    soon as the midpoint is no longer strictly inside the bracket.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not abs(lo) + abs(hi) <= 2.0**1022:   # so every midpoint is finite
        raise ValueError(f"bracket endpoints must lie within 2**1022, got [{lo}, {hi}]")
    if not lo < hi:
        raise ValueError(f"bracket needs lo < hi, got [{lo}, {hi}]")

    def f(p):   # a NaN midpoint would otherwise move `hi`
        value = witness_family(p)
        if math.isnan(value):
            raise ValueError(f"witness family is NaN at parameter {p!r}")
        return value

    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo < 0.0 < f_hi):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={f_lo:.6g}, f(hi)={f_hi:.6g}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# separable soundness ensemble

def _separable_stack(seeds: list[int], k_max: int) -> np.ndarray:
    """The separable two-qubit states, one per seed, as one unvalidated
    (n, 4, 4) stack: convex mixtures of at most k_max product states with
    Dirichlet-uniform weights and random single-qubit factors (rank 1 or 2,
    so pure-product boundary cases are included).

    Per item, in draw order: the term count k, the k Dirichlet weights (as
    `dirichlet(np.ones(k))` makes them: k standard exponentials over their
    sum), then for each term the rank and Gaussian block of Alice's factor and
    then of Bob's (the draws of `random_mixed_state(2, 1, rank, g)`). Factor
    normalisation, Kronecker products and the weighted sums then run over
    stacks, each item summing its terms in order from a zero matrix, which is
    the per-element arithmetic of building items one at a time.
    """
    n = len(seeds)
    counts = np.empty(n, dtype=np.intp)
    weights = np.empty(n * k_max)   # room for k_max terms each; only the used prefix is written
    ranks = np.empty(2 * n * k_max, dtype=np.intp)   # factor 2t is Alice's, 2t+1 Bob's
    draws = np.empty((2 * n * k_max, 8))   # per factor, its (2, 2, rank) block, flat and padded
    t = 0
    for i, g in enumerate(_item_streams(seeds)):
        k = int(g.integers(1, k_max + 1))
        counts[i] = k
        w = weights[t : t + k]
        g.standard_exponential(out=w)
        w *= 1.0 / np.add.accumulate(w)[-1]   # the left-to-right sum: .sum() adds pairwise
        for f in range(2 * t, 2 * (t + k)):
            r = int(g.integers(1, 3))
            ranks[f] = r
            g.standard_normal(out=draws[f, : 4 * r])
        t += k
    factors = np.empty((2 * t, 2, 2), dtype=complex)
    for r in (1, 2):
        idx = np.flatnonzero(ranks[: 2 * t] == r)
        block = draws[:, : 4 * r].reshape(-1, 2, 2, r)   # a view: no copy of all factors
        factors[idx] = ginibre_density(block[idx, 0] + 1j * block[idx, 1])
    fa, fb = factors[0::2], factors[1::2]
    kron = (fa[:, :, None, :, None] * fb[:, None, :, None, :]).reshape(t, 4, 4)
    owner = np.repeat(np.arange(n), counts)
    position = np.arange(t) - np.repeat(np.cumsum(counts) - counts, counts)
    mats = np.zeros((n, 4, 4), dtype=complex)
    for j in range(int(counts.max())):
        sel = np.flatnonzero(position == j)
        mats[owner[sel]] += weights[sel, None, None] * kron[sel]
    return mats


def _ppt_min_eigenvalue(mats: np.ndarray) -> float:
    # mats: validated (n, 4, 4) two-qubit states
    pt = mats.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    return float(np.linalg.eigvalsh(pt).min())


_SMEAR_ETA = 0.2     # identity weight of the audit's smeared POVM elements


def _smeared_povm(basis) -> Povm:
    eta, eye = _SMEAR_ETA, np.eye(2, dtype=complex)
    return Povm(2, tuple((1.0 - eta) * np.outer(v, v.conj()) + eta * eye / 2.0
                         for v in basis.vectors))


def _audit_fold(blocks) -> tuple[float, dict[str, float]]:
    """``(ppt_min, maxima)`` over ``(offset, mats)`` blocks of validated ``(m, 4, 4)``
    two-qubit stacks, m <= `_BLOCK`: the smallest partial-transpose eigenvalue
    and each `_soundness_audit` maximum, folded as they come (no block is kept)."""
    ppt_min, maxima = math.inf, {}
    for _, mats in blocks:
        ppt_min = min(ppt_min, _ppt_min_eigenvalue(mats))
        maxima = {name: float(np.maximum(maxima.get(name, v), v))   # keeps a NaN, as np.max did
                  for name, v in _soundness_audit(mats).items()}
        del mats   # not held while the next block is sampled
    return ppt_min, maxima


def soundness_audit(states) -> tuple[float, dict[str, float]]:
    """The soundness audit over a non-empty list of two-qubit `DensityMatrix`
    states: ``(ppt_min, maxima)``, as `separable_audit` returns it; a
    nonnegative ppt_min (within tolerance) certifies every state separable.

    The maxima cover both pair-conditional directions (X/Z), the pair
    symmetric MI witness, both full-MUB conditional directions, the full-MUB
    MI witness, the modular sum/difference witness, and a smeared-POVM
    conditional pair (elements (1-eta) P_i + eta I/2, eta = 0.2) exercising
    the operator-norm bound. On separable inputs every maximum should be <= 0
    up to 1e-9. Runs on one thread.
    """
    states = list(states)
    if not states:
        raise ValueError("soundness audit needs at least one state")
    for s in states:
        if not isinstance(s, DensityMatrix):
            raise TypeError(f"soundness audit takes DensityMatrix states, got {type(s).__name__}")
        if s.dims != (2, 2):
            raise ValueError(f"soundness audit is defined for two-qubit states, got dims {s.dims}")
    mats = np.stack([s.mat for s in states])
    return _audit_fold((lo, mats[lo : lo + _BLOCK]) for lo in range(0, len(mats), _BLOCK))


def separable_audit(n: int, k_max: int, rng: np.random.Generator) -> tuple[float, dict[str, float]]:
    """The soundness audit over n sampled separable states (`_separable_stack`
    with at most k_max terms): ``(ppt_min, maxima)``, the smallest
    partial-transpose eigenvalue and each witness's `soundness_audit` maximum.
    The arguments are checked before anything is drawn; the states are
    sampled, validated and audited one block of `_BLOCK` at a time, so no
    more than one block is held. Runs on one thread."""
    k_max = _count(k_max, "k_max")
    return _audit_fold(_sampled_blocks(_count(n, "n"), rng,
                                       lambda seeds: _separable_stack(seeds, k_max),
                                       lambda mats, _: mats))


@cache
def _audit_constants() -> tuple:
    # the audit's product kets, smeared X and Z element stacks and bounds,
    # built once per process and kept out of the witnesses' set cache; all read-only
    x_basis, _, z_basis = pauli_bases()
    povm_x, povm_z = _smeared_povm(x_basis), _smeared_povm(z_basis)
    omega_xz, bound_c3 = overlap_omega(x_basis, z_basis), sanchez_ruiz_bound(2)
    return (_pauli_columns(), (povm_x.stacked, povm_z.stacked), math.log2(omega_xz),
            _pair_mi_bound(2, omega_xz, omega_xz), bound_c3, _mub_mi_bound(2, bound_c3),
            math.log2(povm_omega(povm_x, povm_z)))


def _soundness_audit(mats: np.ndarray) -> dict[str, float]:
    # each witness's largest value over one block (`_BLOCK`) of validated
    # (n, 4, 4) two-qubit states
    cols, smeared, bound_xz, bound_mi, bound_c3, bound_m3, bound_povm = _audit_constants()
    p = _product_joints(mats, cols, (2, 2))       # (s, 3, 2, 2): X, Y, Z
    h_joint, h_a, h_b = _joint_entropies(p)
    hp_joint, hp_a, hp_b = (h[:, ::2] for h in (h_joint, h_a, h_b))   # X and Z
    h_mod = _modular_entropies(p[:, ::2], [(2, 2)] * 2, ("plus", "minus"))
    hv_joint, hv_a, hv_b = _joint_entropies(np.stack(
        [_povm_joints(mats, els, els) for els in smeared], axis=1,
    ))
    values = {
        "pair_conditional_AtoB": bound_xz - _conditional_sum(hp_joint, hp_a),
        "pair_conditional_BtoA": bound_xz - _conditional_sum(hp_joint, hp_b),
        "pair_symmetric_mi": _mi_sum(hp_joint, hp_a, hp_b) - bound_mi,
        "mub_conditional_AtoB": bound_c3 - _conditional_sum(h_joint, h_a),
        "mub_conditional_BtoA": bound_c3 - _conditional_sum(h_joint, h_b),
        "mub_mi": _mi_sum(h_joint, h_a, h_b) - bound_m3,
        "sumdiff_discrete": bound_xz - _left_sum(h_mod),
        "povm_pair_conditional_AtoB": bound_povm - _conditional_sum(hv_joint, hv_a),
        "povm_pair_conditional_BtoA": bound_povm - _conditional_sum(hv_joint, hv_b),
    }
    return {name: float(v.max()) for name, v in values.items()}
