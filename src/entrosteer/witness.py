"""Steering witnesses built from entropic uncertainty relations.

Every evaluator returns a :class:`WitnessReport` whose ``violation_bits`` is
signed so that positive always means "steering witnessed": conditional-type
witnesses report ``bound - lhs`` (the inequality says lhs >= bound), while
mutual-information witnesses report ``lhs - bound`` (lhs <= bound).

Direction convention: ``"AtoB"`` means Alice steers Bob. The conditional
entropies are then of Bob's outcomes given Alice's, and the bound is set by
the overlap constant of Bob's measurement pair alone; nothing is assumed about
Alice's measurements, which is why the steered side's basis structure is
validated and the other side's is not.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .infotheory import _modular_entropies, shannon_entropy
from .measure import (
    MUB_TOL,
    SET_CACHE_SIZE,
    ProjectiveBasis,
    _cached,
    _set_record,
    _set_statistics,
    is_mub_set,
    measurement_distribution,
    overlap_omega,
    povm_omega,
)
from .qmat import DensityMatrix, _choice, _count, _equal_dims, _state, partial_trace


class WitnessReport(NamedTuple):
    name: str
    direction: str   # "AtoB" | "BtoA" | "symmetric"
    lhs_bits: float
    bound_bits: float
    violation_bits: float


def sanchez_ruiz_bound(n: int) -> float:
    """Lower bound, in bits, on the entropy sum over a complete MUB set.

    For a complete set of n+1 mutually unbiased bases in dimension n the
    measurement entropies of any state obey
    ``sum_i H(R_i) >= (n/2) log2(n/2) + (n/2 + 1) log2(n/2 + 1)`` for even n
    and ``sum_i H(R_i) >= (n+1) log2((n+1)/2)`` for odd n.
    """
    _count(n, "dimension", 2, 2**53)   # floats skip integers past 2**53; 10**400 has no float
    if n % 2 == 0:
        half = n / 2.0
        return half * math.log2(half) + (half + 1.0) * math.log2(half + 1.0)
    return (n + 1.0) * math.log2((n + 1.0) / 2.0)


def _mub_mi_bound(n: int, floor: float) -> float:
    """Upper bound, in bits, on the sum of N+1 mutual informations over a
    complete MUB set on both sides: ``(N+1) log2 N - G`` with G the
    :func:`sanchez_ruiz_bound` `floor` of dimension n."""
    return (n + 1) * math.log2(n) - floor


def _pair_mi_bound(n: int, omega_a: float, omega_b: float) -> float:
    """Upper bound, in bits, on I(R^A:R^B) + I(S^A:S^B) in dimension n, from each
    party's overlap constant: ``log2(N^2 / min(Omega^A, Omega^B))``."""
    return math.log2(n * n / min(omega_a, omega_b))


@lru_cache(maxsize=SET_CACHE_SIZE)
def _omega(r, s) -> float:
    """Overlap constant of one party's measurement pair, POVM-general, once per pair."""
    projective = isinstance(r, ProjectiveBasis) and isinstance(s, ProjectiveBasis)
    return overlap_omega(r, s) if projective else povm_omega(r, s)


def _by_direction(direction: str, a_to_b, b_to_a):
    """`a_to_b` for direction "AtoB" (Alice steers Bob), `b_to_a` for "BtoA"."""
    return a_to_b if _choice(direction, ("AtoB", "BtoA"), "direction") == "AtoB" else b_to_a


def _left_sum(terms: np.ndarray):
    """Sum of the m terms of one state ``(m,)``, as Python floats, or of each
    of s states ``(s, m)``, added left to right from 0: the same IEEE adds.

    ``.sum(axis=-1)`` adds pairwise once there are 8 or more terms (the
    full-MUB sums from d = 7 on), so its rounding would depend on m.
    """
    total = 0.0
    for column in terms.tolist() if terms.ndim == 1 else terms.T:
        total = total + column
    return total


# One state's terms are taken, clamped and added on Python floats, the clamp as
# np.maximum(x, 0.0) makes it (-0.0 gives 0.0, NaN stays): the same IEEE steps.

def _conditional_sum(h_joint: np.ndarray, h_given: np.ndarray):
    """`_left_sum` of H(joint) - H(given) over the pairs, each term clamped
    at 0; the entropy arrays have shape ``(m,)`` or ``(s, m)``."""
    if h_joint.ndim > 1:
        return _left_sum(np.maximum(h_joint - h_given, 0.0))
    total = 0.0
    for j, g in zip(h_joint.tolist(), h_given.tolist()):
        total = total + (0.0 if (t := j - g) <= 0.0 else t)
    return total


def _mi_sum(h_joint: np.ndarray, h_a: np.ndarray, h_b: np.ndarray):
    """`_left_sum` of I(A:B) = H(A) + H(B) - H(A,B) over the pairs, each term
    clamped at 0; the entropy arrays have shape ``(m,)`` or ``(s, m)``."""
    if h_joint.ndim > 1:
        return _left_sum(np.maximum(h_a + h_b - h_joint, 0.0))
    total = 0.0
    for j, a, b in zip(h_joint.tolist(), h_a.tolist(), h_b.tolist()):
        total = total + (0.0 if (t := a + b - j) <= 0.0 else t)
    return total


def pair_conditional(
    rho: DensityMatrix, r_a, s_a, r_b, s_b, direction: str = "AtoB"
) -> WitnessReport:
    """Two-observable conditional witness.

    An observer holding a genuine local state for the steered party cannot
    beat that party's uncertainty relation, so
    ``H(R|R') + H(S|S') >= log2 Omega_steered`` whenever a local-hidden-state
    model exists. Measurements may be projective bases or POVMs; the bound
    uses the steered party's pair (operator-norm form for POVMs).
    """
    _state(rho, "pair_conditional")
    side = _by_direction(direction, 1, 0)   # the steered party
    _, (h_joint, h_a, h_b) = _set_statistics(rho, _cached(_set_record, ((r_a, r_b), (s_a, s_b))))
    lhs = _conditional_sum(h_joint, h_a if side else h_b)
    bound = math.log2(_omega(r_b, s_b) if side else _omega(r_a, s_a))
    return WitnessReport("pair_conditional", direction, lhs, bound, bound - lhs)


def pair_symmetric_mi(rho: DensityMatrix, r_a, s_a, r_b, s_b) -> WitnessReport:
    """Two-observable symmetric witness on mutual informations.

    ``I(R^A:R^B) + I(S^A:S^B) <= log2(N^2 / min(Omega^A, Omega^B))`` holds when
    either party admits a local-hidden-state model, so its violation rules out
    both directions at once. Projective bases only (equal local dimensions N).
    """
    _state(rho, "pair_symmetric_mi")
    _projective((r_a, s_a, r_b, s_b), "the symmetric witness")
    n = _equal_dims(rho, "symmetric witness")
    lhs = _mi_sum(*_set_statistics(rho, _cached(_set_record, ((r_a, r_b), (s_a, s_b))))[1])
    bound = _pair_mi_bound(n, _omega(r_a, s_a), _omega(r_b, s_b))
    return WitnessReport("pair_symmetric_mi", "symmetric", lhs, bound, lhs - bound)


def _projective(meas, what: str) -> None:
    """Check that `meas` holds projective bases only."""
    for m in meas:
        if not isinstance(m, ProjectiveBasis):
            raise TypeError(f"{what} takes projective bases only, got {type(m).__name__}")


@lru_cache(maxsize=SET_CACHE_SIZE)
def _mub_floor(n: int, steered: tuple, side: int) -> float:
    """The MUB floor of the steered `side`'s bases, once they are checked to
    be a complete set of mutually unbiased bases in dimension n."""
    label = ("steered-side (A)", "steered-side (B)")[side]
    _projective(steered, label)
    if len(steered) != n + 1:
        raise ValueError(f"{label} needs a complete set of {n + 1} bases, got {len(steered)}")
    if any(b.dim != n for b in steered):
        raise ValueError(f"{label} bases must all have dimension {n}")
    if not is_mub_set(steered):
        raise ValueError(f"{label} bases are not mutually unbiased within {MUB_TOL:g}")
    return sanchez_ruiz_bound(n)


def _mub_record(n: int, bases_a, bases_b, side: int) -> tuple:
    """The record of the set ``zip(bases_a, bases_b)`` and its steered `side`'s
    `_mub_floor`; the steered side's errors come first."""
    floor = _cached(_mub_floor, n, tuple((bases_a, bases_b)[side]), side)
    if len(bases_a) != len(bases_b):
        raise ValueError(f"both parties need the same number of bases, got {len(bases_a)} "
                         f"and {len(bases_b)}")
    return _cached(_set_record, tuple(zip(bases_a, bases_b))), floor


def mub_conditional(
    rho: DensityMatrix, bases_a, bases_b, direction: str = "AtoB"
) -> WitnessReport:
    """Full-MUB conditional witness: sum of N+1 conditional entropies.

    The steered party measures a complete MUB set, whose entropy sum is
    floored by :func:`sanchez_ruiz_bound`; the other party's bases are
    unconstrained (they only condition).
    """
    _state(rho, "mub_conditional")
    side = _by_direction(direction, 1, 0)   # the steered party
    rec, bound = _mub_record(rho.dims[side], bases_a, bases_b, side)
    _, (h_joint, h_a, h_b) = _set_statistics(rho, rec)
    lhs = _conditional_sum(h_joint, h_a if side else h_b)
    return WitnessReport("mub_conditional", direction, lhs, bound, bound - lhs)


def mub_mi(rho: DensityMatrix, bases_a, bases_b) -> WitnessReport:
    """Full-MUB symmetric witness: sum of N+1 mutual informations.

    ``sum_i I(R_i^A:R_i^B) <= (N+1) log2 N - G`` with G the MUB entropy floor;
    for qubits the bound is exactly 1 bit. Validation mirrors
    :func:`mub_conditional` (B side checked; by MI symmetry either would do).
    """
    n = _equal_dims(_state(rho, "mub_mi"), "symmetric witness")
    rec, floor = _mub_record(n, bases_a, bases_b, 1)
    lhs = _mi_sum(*_set_statistics(rho, rec)[1])
    bound = _mub_mi_bound(n, floor)
    return WitnessReport("mub_mi", "symmetric", lhs, bound, lhs - bound)


def sumdiff_discrete(
    rho: DensityMatrix, r_a, s_a, r_b, s_b, signs=("plus", "minus")
) -> WitnessReport:
    """Symmetric witness on modular sums/differences of outcomes.

    ``H((R^A +/- R^B) mod N) + H((S^A -/+ S^B) mod N) >= log2 min(Omega^A,
    Omega^B)``; the entropy of a modular sum can never undercut either
    conditional entropy, so this is weaker than the conditional witness but
    needs no conditioning. ``signs`` picks the sign per observable pair.
    """
    _state(rho, "sumdiff_discrete")
    if len(signs) != 2:
        raise ValueError("signs must be a pair, one per observable")
    rec = _cached(_set_record, ((r_a, r_b), (s_a, s_b)))
    p, _ = _set_statistics(rho, rec)
    lhs = _left_sum(_modular_entropies(p, rec.shapes, signs))
    bound = math.log2(min(_omega(r_a, s_a), _omega(r_b, s_b)))
    return WitnessReport("sumdiff_discrete", "symmetric", lhs, bound, bound - lhs)


def violation_gap(rho: DensityMatrix, r_b, s_b) -> float:
    """Exact gap between conditional and symmetric violations, in bits.

    For matched overlap constants on the two sides the difference of the two
    pair-witness violations collapses to a marginal-entropy deficit:
    ``V_C - V_M = 2 log2 N - (H(R^B) + H(S^B))``, which is zero exactly when
    Bob's marginals are both uniform. Callers are responsible for using it
    only in matched-overlap configurations.
    """
    n = _state(rho, "violation_gap").dims[1]
    rho_b = partial_trace(rho, "B")
    h_r = shannon_entropy(measurement_distribution(rho_b, r_b))
    h_s = shannon_entropy(measurement_distribution(rho_b, s_b))
    return 2.0 * math.log2(n) - (h_r + h_s)
