"""Entropy functionals on distributions and states. All logarithms are base 2."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .qmat import STRUCT_TOL, _check_entries, _choice, _Record, _state, validate_density_stack

ZERO_CUTOFF = 1e-15   # probabilities at or below this count as exact zeros
NEG_TOL = 1e-12       # entries in [-NEG_TOL, 0) are rounding dust, clamped to 0
IMAG_TOL = 1e-8


def _checked_probs(p, axis=None) -> np.ndarray:
    """Validate probabilities and return them as a clamped read-only float copy.

    This is the one copy of the probability checks. A complex input may carry
    an imaginary part of at most 1e-8. No entry may lie below -1e-12; entries
    in [-1e-12, 0) are clamped to zero. Each total over ``axis`` (all entries
    by default) must be 1 within 1e-10.

    Here and in the entropies the ufuncs' ``reduce`` is called directly: the
    arithmetic of ``p.min()`` and ``p.sum()`` without their Python wrappers.
    """
    p = np.asarray(p)
    if p.dtype.kind == "c":
        if not np.maximum.reduce(np.abs(p.imag), axis=None) <= IMAG_TOL:   # NaN too
            raise ValueError("joint probabilities acquired a non-negligible imaginary part")
        p = p.real
    p = np.array(p, dtype=float)
    low = np.minimum.reduce(p, axis=None)
    if not low >= -NEG_TOL:   # also catches NaN
        raise ValueError(
            f"negative probability {low:.3e} exceeds the clamping tolerance 1e-12"
        )
    if low < 0.0:
        p[p < 0.0] = 0.0
    s = np.add.reduce(p, axis=axis)
    bad = np.abs(s - 1.0) > STRUCT_TOL   # NaN entries failed the minimum
    if np.logical_or.reduce(bad, axis=None):
        total = np.ravel(s)[np.ravel(bad)][0]
        raise ValueError(f"probabilities sum to {total!r}, not 1 within 1e-10")
    p.setflags(write=False)
    return p


class ProbVector(_Record):
    """Probability vector: entries in [0, 1], total 1 within 1e-10."""

    FIELDS = ("probs",)

    def __post_init__(self) -> None:
        vars(self)["probs"] = _probs_1d(self.probs)


def _probs_1d(p) -> np.ndarray:
    p = np.ravel(getattr(p, "probs", p))
    _check_entries(p[None], "probability distribution")
    return _checked_probs(p)


def _probs_2d(joint) -> np.ndarray:
    arr = np.asarray(getattr(joint, "probs", joint))
    if arr.ndim != 2:
        raise ValueError(f"joint distribution must be a matrix, got ndim {arr.ndim}")
    return _probs_1d(arr).reshape(arr.shape)


def _terms(p: np.ndarray) -> np.ndarray:
    """-p log2 p entrywise; entries at or below ZERO_CUTOFF give 0."""
    return -(p * np.log2(np.where(p > ZERO_CUTOFF, p, 1.0)))


def _entropies(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each distribution along the last axis of p: the one
    Shannon sum, which every entropy of the package takes."""
    return np.add.reduce(_terms(p), -1)


def _spectrum_entropies(evals: np.ndarray) -> np.ndarray:
    """`_entropies` of each spectrum along the last axis, clamped to [0, 1]."""
    return _entropies(np.clip(evals, 0.0, 1.0))


def _joint_entropies(p: np.ndarray):
    """H(A,B), H(A) and H(B) of each joint in a checked ``(..., n_a, n_b)``
    stack, each of shape ``(...)``.

    The joint entries and both marginals of every joint go through a single
    log2 pass; zero entries (and zero padding rows or columns) contribute
    nothing.
    """
    *lead, n_a, n_b = p.shape
    cells = n_a * n_b
    parts = np.concatenate(
        [p.reshape(*lead, cells), np.add.reduce(p, -1), np.add.reduce(p, -2)], axis=-1
    )
    terms = _terms(parts)
    return (
        np.add.reduce(terms[..., :cells], -1),
        np.add.reduce(terms[..., cells:cells + n_a], -1),
        np.add.reduce(terms[..., cells + n_a:], -1),
    )


def _modular_entropies(p: np.ndarray, shapes, signs) -> np.ndarray:
    """Entropy of ``(a + b) mod N`` ("plus") or ``(a - b) mod N`` ("minus")
    for each joint of a checked ``(..., m, n_a, n_b)`` stack, shape ``(..., m)``.

    Joint i is the top-left ``shapes[i]`` block of ``p[..., i, :, :]`` (the
    rest is zero padding) and must be square, ``N x N``; ``signs[i]`` picks
    its sign. `np.bincount` sums each residue's probabilities in row-major order.
    """
    *lead, m, n_a, n_b = p.shape
    plan = []
    for shape, sign in zip(shapes, signs):
        if shape[1] != shape[0]:
            raise ValueError(f"modular sums need a square joint, got shape {shape}")
        plan.append((shape[0], _choice(sign, ("plus", "minus"), "sign") == "plus"))
    count, width = p.size // (m * n_a * n_b), max(n_a, n_b)
    dist = np.bincount(_residue_bins(count, n_a, n_b, tuple(plan)), p.ravel(), count * m * width)
    return _entropies(dist.reshape(*lead, m, width))


@lru_cache(maxsize=16)
def _residue_bins(count: int, n_a: int, n_b: int, plan: tuple) -> np.ndarray:
    """Flat bins of `count` stacked ``(m, n_a, n_b)`` joints: entry (s, i, a, b)
    goes to residue ``(a +/- b) mod N`` of row (s, i), ``plan[i] = (N, sign is "plus")``."""
    a, b, width = np.arange(n_a)[:, None], np.arange(n_b), max(n_a, n_b)
    one = [(a + b if plus else a - b) % n + i * width for i, (n, plus) in enumerate(plan)]
    bins = (np.ravel(one) + len(plan) * width * np.arange(count)[:, None]).ravel()
    bins.setflags(write=False)
    return bins


def shannon_entropy(p) -> float:
    """-sum p_i log2 p_i in bits; accepts a ProbVector or array-like."""
    return float(_entropies(_probs_1d(p)))


def conditional_entropy(joint, direction: str = "B|A") -> float:
    """H(B|A) = H(A,B) - H(A) (direction "B|A"), or the mirror "A|B".

    Rows of the joint index party A, columns party B.
    """
    h_ab, h_a, h_b = _joint_entropies(_probs_2d(joint)[None])
    marg = h_a if _choice(direction, ("B|A", "A|B"), "direction") == "B|A" else h_b
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

    Accepts a DensityMatrix or a raw Hermitian unit-trace PSD array, checked
    as `qmat.validate_density_stack` checks a stack (ValueError otherwise);
    the spectrum is clamped to [0, 1] before the logarithms.
    """
    mat = np.asarray(getattr(m, "mat", m), dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    ev = validate_density_stack(mat[None])[0]
    return float(_spectrum_entropies(ev))


def concurrence(rho) -> float:
    """Two-qubit concurrence from the spin-flipped spectrum.

    C = max(0, l1 - l2 - l3 - l4) where l_i are the decreasingly sorted square
    roots of the eigenvalues of rho (sy (x) sy) rho* (sy (x) sy).
    """
    if _state(rho, "concurrence").dims != (2, 2):
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
    c = concurrence(_state(rho, "entanglement_of_formation"))
    x = 0.5 * (1.0 + np.sqrt(max(0.0, 1.0 - c * c)))
    return float(_entropies(np.array([x, 1.0 - x])))
