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
from dataclasses import dataclass

import numpy as np

from .infotheory import _joint_entropies, _modular_entropies, shannon_entropy
from .measure import (
    ProjectiveBasis,
    _joint_stack,
    as_povm,
    is_mub_set,
    measurement_distribution,
    overlap_omega,
    povm_omega,
)
from .qmat import DensityMatrix, partial_trace

MUB_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class WitnessReport:
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
    if n < 2:
        raise ValueError(f"bound defined for dimension >= 2, got {n}")
    if n % 2 == 0:
        half = n / 2.0
        return half * math.log2(half) + (half + 1.0) * math.log2(half + 1.0)
    return (n + 1.0) * math.log2((n + 1.0) / 2.0)


def _pair_omega(meas_r, meas_s) -> float:
    """Overlap constant of one party's measurement pair, POVM-general."""
    if isinstance(meas_r, ProjectiveBasis) and isinstance(meas_s, ProjectiveBasis):
        return overlap_omega(meas_r, meas_s)
    return povm_omega(as_povm(meas_r), as_povm(meas_s))


def _conditional_sum(h_joint: np.ndarray, h_given: np.ndarray) -> float:
    """Sum over joints of H(joint) - H(given), each term clamped at 0."""
    return sum(np.maximum(h_joint - h_given, 0.0).tolist())


def _mi_sum(h_joint: np.ndarray, h_a: np.ndarray, h_b: np.ndarray) -> float:
    """Sum over joints of I(A:B) = H(A) + H(B) - H(A,B), each clamped at 0."""
    return sum(np.maximum(h_a + h_b - h_joint, 0.0).tolist())


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
    h_joint, h_a, h_b = _joint_entropies(_joint_stack(rho, [(r_a, r_b), (s_a, s_b)]))
    if direction == "AtoB":
        lhs = _conditional_sum(h_joint, h_a)
        omega = _pair_omega(r_b, s_b)
    elif direction == "BtoA":
        lhs = _conditional_sum(h_joint, h_b)
        omega = _pair_omega(r_a, s_a)
    else:
        raise ValueError(f"direction must be 'AtoB' or 'BtoA', got {direction!r}")
    bound = math.log2(omega)
    return WitnessReport("pair_conditional", direction, lhs, bound, bound - lhs)


def pair_symmetric_mi(rho: DensityMatrix, r_a, s_a, r_b, s_b) -> WitnessReport:
    """Two-observable symmetric witness on mutual informations.

    ``I(R^A:R^B) + I(S^A:S^B) <= log2(N^2 / min(Omega^A, Omega^B))`` holds when
    either party admits a local-hidden-state model, so its violation rules out
    both directions at once. Projective bases only (equal local dimensions N).
    """
    for m in (r_a, s_a, r_b, s_b):
        if not isinstance(m, ProjectiveBasis):
            raise TypeError("the symmetric witness takes projective bases only")
    if rho.dims[0] != rho.dims[1]:
        raise ValueError("symmetric witness needs equal local dimensions")
    n = rho.dims[0]
    lhs = _mi_sum(*_joint_entropies(_joint_stack(rho, [(r_a, r_b), (s_a, s_b)])))
    omega = min(overlap_omega(r_a, s_a), overlap_omega(r_b, s_b))
    bound = math.log2(n * n / omega)
    return WitnessReport("pair_symmetric_mi", "symmetric", lhs, bound, lhs - bound)


def _validate_mub_side(bases, dim: int, label: str) -> None:
    if len(bases) != dim + 1:
        raise ValueError(
            f"{label} needs a complete set of {dim + 1} bases, got {len(bases)}"
        )
    if any(b.dim != dim for b in bases):
        raise ValueError(f"{label} bases must all have dimension {dim}")
    if not is_mub_set(bases, tol=MUB_CHECK_TOL):
        raise ValueError(f"{label} bases are not mutually unbiased within 1e-8")


def mub_conditional(
    rho: DensityMatrix, bases_a, bases_b, direction: str = "AtoB"
) -> WitnessReport:
    """Full-MUB conditional witness: sum of N+1 conditional entropies.

    The steered party measures a complete MUB set, whose entropy sum is
    floored by :func:`sanchez_ruiz_bound`; the other party's bases are
    unconstrained (they only condition).
    """
    if len(bases_a) != len(bases_b):
        raise ValueError(
            f"both parties need the same number of bases, got {len(bases_a)} and {len(bases_b)}"
        )
    d_a, d_b = rho.dims
    if direction == "AtoB":
        _validate_mub_side(bases_b, d_b, "steered-side (B)")
        n = d_b
    elif direction == "BtoA":
        _validate_mub_side(bases_a, d_a, "steered-side (A)")
        n = d_a
    else:
        raise ValueError(f"direction must be 'AtoB' or 'BtoA', got {direction!r}")
    h_joint, h_a, h_b = _joint_entropies(_joint_stack(rho, zip(bases_a, bases_b)))
    lhs = _conditional_sum(h_joint, h_a if direction == "AtoB" else h_b)
    bound = sanchez_ruiz_bound(n)
    return WitnessReport("mub_conditional", direction, lhs, bound, bound - lhs)


def mub_mi(rho: DensityMatrix, bases_a, bases_b) -> WitnessReport:
    """Full-MUB symmetric witness: sum of N+1 mutual informations.

    ``sum_i I(R_i^A:R_i^B) <= (N+1) log2 N - G`` with G the MUB entropy floor;
    for qubits the bound is exactly 1 bit. Validation mirrors
    :func:`mub_conditional` (B side checked; by MI symmetry either would do).
    """
    if rho.dims[0] != rho.dims[1]:
        raise ValueError("symmetric witness needs equal local dimensions")
    if len(bases_a) != len(bases_b):
        raise ValueError(
            f"both parties need the same number of bases, got {len(bases_a)} and {len(bases_b)}"
        )
    n = rho.dims[1]
    _validate_mub_side(bases_b, n, "steered-side (B)")
    lhs = _mi_sum(*_joint_entropies(_joint_stack(rho, zip(bases_a, bases_b))))
    bound = (n + 1) * math.log2(n) - sanchez_ruiz_bound(n)
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
    if len(signs) != 2:
        raise ValueError("signs must be a pair, one per observable")
    pairs = [(r_a, r_b), (s_a, s_b)]
    p = _joint_stack(rho, pairs)
    shapes = [(len(as_povm(a).elements), len(as_povm(b).elements)) for a, b in pairs]
    lhs = sum(_modular_entropies(p, shapes, signs).tolist())
    omega = min(_pair_omega(r_a, s_a), _pair_omega(r_b, s_b))
    bound = math.log2(omega)
    return WitnessReport("sumdiff_discrete", "symmetric", lhs, bound, bound - lhs)


def violation_gap(rho: DensityMatrix, r_b, s_b) -> float:
    """Exact gap between conditional and symmetric violations, in bits.

    For matched overlap constants on the two sides the difference of the two
    pair-witness violations collapses to a marginal-entropy deficit:
    ``V_C - V_M = 2 log2 N - (H(R^B) + H(S^B))``, which is zero exactly when
    Bob's marginals are both uniform. Callers are responsible for using it
    only in matched-overlap configurations.
    """
    n = rho.dims[1]
    rho_b = partial_trace(rho, "B")
    h_r = shannon_entropy(measurement_distribution(rho_b, r_b))
    h_s = shannon_entropy(measurement_distribution(rho_b, s_b))
    return 2.0 * math.log2(n) - (h_r + h_s)
