"""Entropy functionals on distributions and states. All logarithms are base 2."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO_CUTOFF = 1e-15   # probabilities at or below this count as exact zeros
NEG_TOL = 1e-12       # entries in [-NEG_TOL, 0) are rounding dust, clamped to 0
SUM_TOL = 1e-10
IMAG_TOL = 1e-8


def _checked_probs(p, axis=None) -> np.ndarray:
    """Validate probabilities and return them as a clamped read-only float copy.

    This is the one copy of the probability checks. A complex input may carry
    an imaginary part of at most 1e-8. No entry may lie below -1e-12; entries
    in [-1e-12, 0) are clamped to zero. Each total over ``axis`` (all entries
    by default) must be 1 within 1e-10.
    """
    p = np.asarray(p)
    if p.dtype.kind == "c":
        if np.abs(p.imag).max() > IMAG_TOL:
            raise ValueError("joint probabilities acquired a non-negligible imaginary part")
        p = p.real
    p = np.array(p, dtype=float)
    if not p.size:
        raise ValueError("empty probability distribution")
    low = p.min()
    if not low >= -NEG_TOL:   # also catches NaN
        raise ValueError(
            f"negative probability {low:.3e} exceeds the clamping tolerance 1e-12"
        )
    if low < 0.0:
        p[p < 0.0] = 0.0
    s = p.sum(axis=axis)
    bad = np.abs(s - 1.0) > SUM_TOL
    if bad.any():
        total = np.ravel(s)[np.ravel(bad)][0]
        raise ValueError(f"probabilities sum to {total!r}, not 1 within 1e-10")
    p.setflags(write=False)
    return p


@dataclass(frozen=True, eq=False)
class ProbVector:
    """Probability vector: entries in [0, 1], total 1 within 1e-10."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _checked_probs(np.ravel(self.probs)))


def _probs_1d(p) -> np.ndarray:
    return _checked_probs(np.ravel(getattr(p, "probs", p)))


def _probs_2d(joint) -> np.ndarray:
    arr = np.asarray(getattr(joint, "probs", joint))
    if arr.ndim != 2:
        raise ValueError(f"joint distribution must be a matrix, got ndim {arr.ndim}")
    return _checked_probs(arr)


def _entropy_raw(p: np.ndarray) -> float:
    # 0*log(0) = 0 by continuity
    q = p[p > ZERO_CUTOFF]
    return float(-(q * np.log2(q)).sum()) if q.size else 0.0


def _joint_entropies(p: np.ndarray):
    """H(A,B), H(A) and H(B) of each joint in a checked ``(m, n_a, n_b)`` stack.

    The joint entries and both marginals of every joint go through a single
    log2 pass. Each result is an ``(m,)`` array; zero entries (and zero
    padding rows or columns) contribute nothing.
    """
    m, n_a, n_b = p.shape
    cells = n_a * n_b
    parts = np.concatenate([p.reshape(m, cells), p.sum(axis=2), p.sum(axis=1)], axis=1)
    terms = -(parts * np.log2(np.where(parts > ZERO_CUTOFF, parts, 1.0)))
    return (
        terms[:, :cells].sum(axis=1),
        terms[:, cells:cells + n_a].sum(axis=1),
        terms[:, cells + n_a:].sum(axis=1),
    )


def _modular_entropies(p: np.ndarray, shapes, signs) -> np.ndarray:
    """Entropy of ``(a + b) mod N`` ("plus") or ``(a - b) mod N`` ("minus")
    for each joint of a checked stack.

    Joint i is the top-left ``shapes[i]`` block of ``p[i]`` (the rest is zero
    padding) and must be square, ``N x N``; ``signs[i]`` picks its sign.
    """
    m, n_a, n_b = p.shape
    a = np.arange(n_a)[:, None]
    b = np.arange(n_b)[None, :]
    idx = np.empty(p.shape, dtype=np.intp)
    for i, (shape, sign) in enumerate(zip(shapes, signs)):
        n = shape[0]
        if shape[1] != n:
            raise ValueError(f"modular sums need a square joint, got shape {shape}")
        if sign not in ("plus", "minus"):
            raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
        idx[i] = (a + b) % n if sign == "plus" else (a - b) % n
    dist = np.zeros((m, max(n_a, n_b)))
    np.add.at(dist, (np.arange(m)[:, None, None], idx), p)
    return -(dist * np.log2(np.where(dist > ZERO_CUTOFF, dist, 1.0))).sum(axis=1)


def shannon_entropy(p) -> float:
    """-sum p_i log2 p_i in bits; accepts a ProbVector or array-like."""
    return _entropy_raw(_probs_1d(p))


def conditional_entropy(joint, direction: str = "B|A") -> float:
    """H(B|A) = H(A,B) - H(A) (direction "B|A"), or the mirror "A|B".

    Rows of the joint index party A, columns party B.
    """
    p = _probs_2d(joint)
    if direction not in ("B|A", "A|B"):
        raise ValueError(f"direction must be 'B|A' or 'A|B', got {direction!r}")
    h_ab, h_a, h_b = _joint_entropies(p[None])
    marg = h_a if direction == "B|A" else h_b
    return max(0.0, float(h_ab[0] - marg[0]))


def mutual_information(joint) -> float:
    """I(A:B) = H(A) + H(B) - H(A,B) >= 0, symmetric in the parties."""
    h_ab, h_a, h_b = _joint_entropies(_probs_2d(joint)[None])
    return max(0.0, float(h_a[0] + h_b[0] - h_ab[0]))


def modular_sum_entropy(joint, sign: str) -> float:
    """Entropy of (a + b) mod N for sign "plus", (a - b) mod N for "minus".

    Outcomes are residues 0..N-1; the modular group structure keeps the
    entropy of a sum at or above both conditional entropies, which is what the
    sum/difference witnesses rely on.
    """
    p = _probs_2d(joint)
    return float(_modular_entropies(p[None], [p.shape], [sign])[0])


def von_neumann_entropy(m) -> float:
    """Spectral entropy -sum lambda_i log2 lambda_i of a density matrix.

    Accepts a DensityMatrix or a raw Hermitian unit-trace PSD array; the
    spectrum is clamped to [0, 1] before the logarithms.
    """
    mat = np.asarray(getattr(m, "mat", m), dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
        raise ValueError("matrix is not Hermitian within 1e-10")
    ev = np.linalg.eigvalsh(mat)
    if ev.min() < -1e-10:
        raise ValueError("matrix has an eigenvalue below -1e-10")
    if abs(ev.sum() - 1.0) > 1e-10:
        raise ValueError(f"trace {ev.sum()!r} differs from 1")
    return _entropy_raw(np.clip(ev, 0.0, 1.0))


def concurrence(rho) -> float:
    """Two-qubit concurrence from the spin-flipped spectrum.

    C = max(0, l1 - l2 - l3 - l4) where l_i are the decreasingly sorted square
    roots of the eigenvalues of rho (sy (x) sy) rho* (sy (x) sy).
    """
    if getattr(rho, "dims", None) != (2, 2):
        raise ValueError("concurrence is defined here for two-qubit states only")
    m = rho.mat
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    flip = np.kron(sy, sy)
    tilde = flip @ m.conj() @ flip
    ev = np.linalg.eigvals(m @ tilde).real
    lam = np.sort(np.sqrt(np.clip(ev, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def entanglement_of_formation(rho) -> float:
    """Two-qubit entanglement of formation in bits, via the concurrence.

    E = h((1 + sqrt(1 - C^2))/2) with h the binary entropy; ranges over [0, 1].
    """
    c = concurrence(rho)
    x = 0.5 * (1.0 + np.sqrt(max(0.0, 1.0 - c * c)))
    return _entropy_raw(np.array([x, 1.0 - x]))
