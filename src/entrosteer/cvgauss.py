"""Continuous-variable steering witnesses on two-mode Gaussian states.

Convention (locked; conventions vary across the literature and only this one
makes the numbers below consistent): quadratures ordered (x_A, k_A, x_B, k_B),
commutator [x, k] = i, vacuum variance 1/2. Then the variance-product bound is
1/4 and the entropic bounds are log2(pi*e) bits, simultaneously.

States are represented by their 4x4 covariance matrix alone. First moments
never enter any witness here, so invariance under local phase-space
displacements is structural rather than something to compute.
"""

from __future__ import annotations

import math

import numpy as np

from .qmat import STRUCT_TOL, _choice, _Record, _state
from .witness import WitnessReport, _by_direction

LOG2_PI_E = math.log2(math.pi * math.e)

# Symplectic form for the (x_A, k_A, x_B, k_B) ordering.
_SYMPLECTIC = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

_XA, _KA, _XB, _KB = 0, 1, 2, 3

# A variance taken as a difference of float64 terms 2**36 times its size keeps
# fewer than five significant digits (relative error about 1e-5), so the
# witnesses refuse it. On a two-mode squeezed vacuum var(x_A - x_B) = e^{-2r}
# comes from terms of size e^{2r}, which reaches that cut at
# r = 36 ln 2 / 4 = 6.24; the documented usable range stops just below it.
_CANCEL_LIMIT = 2.0**-36
TMSV_R_MAX = 6.2
# The witnesses square covariance entries, and a float64 square overflows past
# 2**1024; a state with a larger entry is refused before any arithmetic.
_ENTRY_MAX = 2.0**511


def _out_of_range(problem: str) -> ValueError:
    return ValueError(
        f"{problem}; a two-mode squeezed vacuum is usable for 0 <= r <= {TMSV_R_MAX}"
    )


class GaussianState(_Record):
    """Two-mode Gaussian state given by its quadrature covariance matrix.

    The matrix must be real, symmetric within 1e-12 and satisfy the physicality
    (uncertainty) condition cov + (i/2) Sigma >= 0, checked spectrally with an
    eigenvalue floor of -1e-10 times the largest entry (at least -1e-10), and
    for each mode as det >= 1/4 within 1e-10 times its variances' product.
    Physical thus means up to rounding: the smaller symplectic eigenvalue is
    at least 1/2 - O(eps ||cov||^2), and `tmsv(r)`'s is below 1/2 from r ~ 5.
    """

    FIELDS = ("cov",)

    def __post_init__(self) -> None:
        c = np.asarray(self.cov)
        if np.iscomplexobj(c) and np.any(c.imag):   # float() would drop it with a warning
            raise ValueError("covariance has a nonzero imaginary part")
        c = np.array(c.real, dtype=float)
        if c.shape != (4, 4):
            raise ValueError(f"covariance must be 4x4, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("covariance contains non-finite entries")
        if np.abs(c).max() > _ENTRY_MAX:
            raise _out_of_range(f"covariance entry {np.abs(c).max():.3g} is too large to square")
        if np.max(np.abs(c - c.T)) > 1e-12:
            raise ValueError("covariance is not symmetric within 1e-12")
        check = c.astype(complex) + 0.5j * _SYMPLECTIC
        # eigvalsh rounds at the size of the largest entry, so the floor scales
        # with it: a pure state's zero eigenvalue at r = 8 (entries ~4e6)
        # comes out near -1e-9
        floor = -STRUCT_TOL * max(1.0, float(np.abs(c).max()))
        modes = [(m[0, 0] * m[1, 1], m[0, 1] * m[1, 0]) for m in (c[:2, :2], c[2:, 2:])]
        if np.linalg.eigvalsh(check).min() < floor or any(
                vv - cross < 0.25 - STRUCT_TOL * vv for vv, cross in modes):
            raise ValueError("covariance violates the uncertainty condition")
        c.setflags(write=False)
        vars(self)["cov"] = c


def symplectic_eigenvalues(g: GaussianState) -> np.ndarray:
    """The two symplectic eigenvalues, ascending; for a physical state >= 1/2 - O(eps ||cov||^2)."""
    cov = _state(g, "symplectic_eigenvalues", GaussianState).cov
    ev = np.abs(np.linalg.eigvals(1j * _SYMPLECTIC @ cov))
    return np.sort(ev)[::2]


def tmsv(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter r >= 0.

    All four quadrature variances are cosh(2r)/2; positions are correlated and
    momenta anticorrelated with magnitude sinh(2r)/2. r = 0 is two vacua. The
    matrix is physical up to rounding (`GaussianState`): cosh and sinh round
    apart. The witnesses are usable for r <= TMSV_R_MAX = 6.2.
    """
    if not r >= 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    if not 2.0 * r <= math.log(4.0 * _ENTRY_MAX):   # cosh(2r) / 2 <= _ENTRY_MAX
        raise _out_of_range(f"squeezing r = {r} overflows float64")
    c = math.cosh(2.0 * r) / 2.0
    s = math.sinh(2.0 * r) / 2.0
    cov = np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )
    return GaussianState(cov)


def _gaussian_entropy_bits(var: float) -> float:
    # differential entropy of a Gaussian with variance var, in bits
    return 0.5 * math.log2(2.0 * math.pi * math.e * var)


def _significant(variance: float, scale: float) -> float:
    """`variance`, computed as a difference of terms of size `scale`, or a
    ValueError when cancellation has left it without significant digits."""
    if not variance > scale * _CANCEL_LIMIT:
        raise _out_of_range(
            f"Gaussian variance {variance:.3g} lost its significant digits to "
            f"cancellation between terms of size {scale:.3g}"
        )
    return variance


def _conditional_variance(cov: np.ndarray, target: int, given: int) -> float:
    v_given = cov[given, given]
    if v_given <= 1e-300:
        raise ValueError("singular conditioning variance")
    v_target = float(cov[target, target])
    return _significant(v_target - float(cov[target, given] ** 2 / v_given), v_target)


def _pm_variance(cov: np.ndarray, i: int, j: int, sign: str) -> float:
    s = 1.0 if _choice(sign, ("plus", "minus"), "sign") == "plus" else -1.0
    return _significant(
        float(cov[i, i] + cov[j, j] + 2.0 * s * cov[i, j]),
        float(cov[i, i] + cov[j, j] + 2.0 * abs(cov[i, j])),
    )


def _sumdiff_variances(g, signs, what: str) -> tuple[float, float]:
    cov = _state(g, what, GaussianState).cov
    if len(signs) != 2:
        raise ValueError("signs must be a pair (x sign, k sign)")
    return _pm_variance(cov, _XA, _XB, signs[0]), _pm_variance(cov, _KA, _KB, signs[1])


def walborn_cv(g: GaussianState, direction: str = "AtoB") -> WitnessReport:
    """Conditional entropic witness: h(x|x') + h(k|k') >= log2(pi e).

    Evaluated in closed form from Gaussian conditional variances. For "AtoB"
    the entropies are of B's quadratures conditioned on A's.
    """
    cov = _state(g, "walborn_cv", GaussianState).cov
    x, k = _by_direction(direction, ((_XB, _XA), (_KB, _KA)), ((_XA, _XB), (_KA, _KB)))
    vx, vk = _conditional_variance(cov, *x), _conditional_variance(cov, *k)
    lhs = _gaussian_entropy_bits(vx) + _gaussian_entropy_bits(vk)
    return WitnessReport("walborn_cv", direction, lhs, LOG2_PI_E, LOG2_PI_E - lhs)


def reid_sumdiff_cv(g: GaussianState, signs=("minus", "plus")) -> WitnessReport:
    """Variance-product witness: var(x_A +/- x_B) * var(k_A -/+ k_B) >= 1/4.

    Units are a variance product, not bits; the report keeps the shared field
    names, with violation = bound - lhs so positive still means witnessed.
    """
    vx, vk = _sumdiff_variances(g, signs, "reid_sumdiff_cv")
    lhs = vx * vk
    return WitnessReport("reid_sumdiff_cv", "symmetric", lhs, 0.25, 0.25 - lhs)


def entropic_sumdiff_cv(g: GaussianState, signs=("minus", "plus")) -> WitnessReport:
    """Entropic sum/difference witness: h(x_A +/- x_B) + h(k_A -/+ k_B) >= log2(pi e).

    Strictly more inclusive than the variance product in general; for Gaussian
    states both flip sign at the same squeezing because a Gaussian saturates
    the entropy-variance relation.
    """
    vx, vk = _sumdiff_variances(g, signs, "entropic_sumdiff_cv")
    lhs = _gaussian_entropy_bits(vx) + _gaussian_entropy_bits(vk)
    return WitnessReport(
        "entropic_sumdiff_cv", "symmetric", lhs, LOG2_PI_E, LOG2_PI_E - lhs
    )
