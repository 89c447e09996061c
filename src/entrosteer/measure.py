"""Measurement models and outcome statistics.

Projective bases, POVMs, complete mutually unbiased basis (MUB) sets, joint
outcome distributions, and the two overlap constants that bound entropy sums:
Omega for eigenbases and its POVM generalization built from operator norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .infotheory import NEG_TOL, _checked_probs
from .qmat import DensityMatrix

ORTHO_TOL = 1e-10
POVM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ProjectiveBasis:
    """An orthonormal measurement basis. ``vectors[i]`` is the i-th ket."""

    dim: int
    vectors: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.vectors, dtype=complex)
        if v.shape != (self.dim, self.dim):
            raise ValueError(
                f"expected {self.dim} vectors of length {self.dim}, got shape {v.shape}"
            )
        gram = v.conj() @ v.T
        if np.max(np.abs(gram - np.eye(self.dim))) > ORTHO_TOL:
            raise ValueError("basis vectors are not orthonormal within 1e-10")
        v.setflags(write=False)
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "vectors", v)

    @property
    def matrix(self) -> np.ndarray:
        """Unitary whose columns are the basis vectors."""
        return self.vectors.T

    @cached_property
    def povm(self) -> Povm:
        """The rank-1 projector POVM, built and validated on first use only."""
        return Povm(self.dim, tuple(np.outer(v, v.conj()) for v in self.vectors))


@dataclass(frozen=True, eq=False)
class Povm:
    """A positive operator-valued measure: PSD elements summing to identity.

    ``stacked`` is the read-only ``(n, dim, dim)`` array of the elements, and
    each of ``elements`` is a view of one of its slices.
    """

    dim: int
    elements: tuple
    stacked: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        els = []
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for k, e in enumerate(self.elements):
            m = np.array(e, dtype=complex)
            if m.shape != (self.dim, self.dim):
                raise ValueError(f"element {k} has shape {m.shape}, expected square dim {self.dim}")
            if np.max(np.abs(m - m.conj().T)) > POVM_TOL:
                raise ValueError(f"element {k} is not Hermitian within 1e-10")
            if np.linalg.eigvalsh(m).min() < -POVM_TOL:
                raise ValueError(f"element {k} is not positive semidefinite within 1e-10")
            els.append(m)
            total += m
        if not els:
            raise ValueError("a POVM needs at least one element")
        if np.max(np.abs(total - np.eye(self.dim))) > POVM_TOL:
            raise ValueError("POVM elements do not sum to identity within 1e-10")
        stacked = np.stack(els)
        stacked.setflags(write=False)
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "elements", tuple(stacked))
        object.__setattr__(self, "stacked", stacked)

    @cached_property
    def roots(self) -> np.ndarray:
        """Read-only ``(n, dim, dim)`` stack of the elements' positive square
        roots (the canonical measurement operators), built on first use only."""
        vals, vecs = np.linalg.eigh(self.stacked)
        roots = (vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]) @ vecs.conj().swapaxes(1, 2)
        roots.setflags(write=False)
        return roots


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint outcome probabilities P(a, b) for one measurement on each party.

    Entries in [-1e-12, 0) are floating-point dust and get clamped to zero;
    anything more negative is rejected. The total must be 1 within 1e-10, and
    a complex input may carry an imaginary part of at most 1e-8.
    """

    n_a: int
    n_b: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs)
        if p.shape != (self.n_a, self.n_b):
            raise ValueError(f"expected shape {(self.n_a, self.n_b)}, got {p.shape}")
        object.__setattr__(self, "n_a", int(self.n_a))
        object.__setattr__(self, "n_b", int(self.n_b))
        object.__setattr__(self, "probs", _checked_probs(p))


def pauli_bases() -> list[ProjectiveBasis]:
    """The three qubit Pauli eigenbases, in the fixed order [X, Y, Z].

    Phase convention: within each basis the (+1, -1) eigenvectors appear in
    that order, with first component real, i.e. X -> {(1,1), (1,-1)}/sqrt(2),
    Y -> {(1,i), (1,-i)}/sqrt(2), Z -> {(1,0), (0,1)}.
    """
    s = 1.0 / np.sqrt(2.0)
    x = ProjectiveBasis(2, np.array([[s, s], [s, -s]], dtype=complex))
    y = ProjectiveBasis(2, np.array([[s, s * 1j], [s, -s * 1j]], dtype=complex))
    z = ProjectiveBasis(2, np.eye(2, dtype=complex))
    return [x, y, z]


def _is_prime(d: int) -> bool:
    if d < 2:
        return False
    if d % 2 == 0:
        return d == 2
    f = 3
    while f * f <= d:
        if d % f == 0:
            return False
        f += 2
    return True


def mub_set(d: int) -> list[ProjectiveBasis]:
    """A complete set of d+1 mutually unbiased bases in prime dimension d.

    For d = 2 this is the Pauli triple. For odd primes it is the computational
    basis plus the d quadratic-phase bases with components
    ``omega^(a n^2 + m n) / sqrt(d)``, ``omega = exp(2 pi i / d)``; Gauss-sum
    magnitudes make every cross-basis overlap squared equal to 1/d. Prime
    powers would need the finite-field construction, which is not implemented.
    """
    if d == 2:
        return pauli_bases()
    if not _is_prime(d):
        raise ValueError(
            f"complete MUB sets are implemented for d = 2 and odd primes, got d = {d}"
        )
    n = np.arange(d)
    bases = [ProjectiveBasis(d, np.eye(d, dtype=complex))]
    for a in range(d):
        exponent = (a * n[None, :] ** 2 + n[:, None] * n[None, :]) % d
        vecs = np.exp(2j * np.pi * exponent / d) / np.sqrt(d)
        bases.append(ProjectiveBasis(d, vecs))
    return bases


def is_mub_set(bases, tol: float = 1e-8) -> bool:
    """Check that every pair of bases in the list is mutually unbiased.

    One Gram product of all the kets against all the kets gives every
    cross-basis overlap at once.
    """
    if not bases:
        return False
    d = bases[0].dim
    if any(b.dim != d for b in bases):
        return False
    k = len(bases)
    v = np.concatenate([b.vectors for b in bases])
    dev = np.abs(np.abs(v.conj() @ v.T) ** 2 - 1.0 / d).reshape(k, d, k, d)
    dev[np.arange(k), :, np.arange(k)] = 0.0   # a basis against itself
    return bool(dev.max() <= tol)


def rotate_basis(basis: ProjectiveBasis, u: np.ndarray) -> ProjectiveBasis:
    """Apply a unitary to every vector of a basis (u @ v_i for each i)."""
    return ProjectiveBasis(basis.dim, basis.vectors @ np.asarray(u).T)


def as_povm(meas) -> Povm:
    """Promote a projective basis to its rank-1 POVM; pass POVMs through.

    A basis's POVM is built once and cached on the basis object.
    """
    if isinstance(meas, Povm):
        return meas
    if isinstance(meas, ProjectiveBasis):
        return meas.povm
    raise TypeError(f"expected ProjectiveBasis or Povm, got {type(meas).__name__}")


def _element_stack(povms, n: int) -> np.ndarray:
    """``(m, n, dim^2)`` stack of flattened POVM elements. A POVM with fewer
    than n outcomes is padded with zero elements, whose outcomes have
    probability exactly 0."""
    d = povms[0].dim
    out = np.zeros((len(povms), n, d * d), dtype=complex)
    for i, povm in enumerate(povms):
        out[i, :len(povm.elements)] = povm.stacked.reshape(len(povm.elements), -1)
    return out


def _joint_stack(rho: DensityMatrix, pairs) -> np.ndarray:
    """Checked joint distributions of m measurement pairs, ``(m, n_a, n_b)``.

    ``pairs`` holds (Alice's measurement, Bob's measurement) tuples; each may
    be a projective basis or a POVM. ``n_a`` and ``n_b`` are the largest
    outcome counts: a joint with fewer outcomes fills the top-left block of
    its slice and the padding is exactly zero, so every pair takes part in
    the same two contraction steps.

    A stacked matmul forms ``T[m, b, (i, k)] = Tr_B[(1 (x) E_b) rho][k, i]``
    in O(m n_b d_A^2 d_B^2); then ``P[m, a, b] = sum_(i,k) E_a[i, k]
    T[m, b, (i, k)]`` in O(m n_a n_b d_A^2). The second step is a plain
    two-operand einsum: a BLAS product there rounds an entry differently
    depending on its column, so relabelling Bob's outcomes would not permute
    P exactly. The probability checks run once over the whole stack.
    """
    d_a, d_b = rho.dims
    fs, gs = [], []
    for meas_a, meas_b in pairs:
        f, g = as_povm(meas_a), as_povm(meas_b)
        if f.dim != d_a or g.dim != d_b:
            raise ValueError(
                f"measurement dims ({f.dim}, {g.dim}) do not match state dims {rho.dims}"
            )
        fs.append(f)
        gs.append(g)
    n_a = max(len(f.elements) for f in fs)
    n_b = max(len(g.elements) for g in gs)
    # rr[j, l, i, k] = rho[(k, l), (i, j)]
    rr = rho.mat.reshape(d_a, d_b, d_a, d_b).transpose(3, 1, 2, 0)
    t = _element_stack(gs, n_b) @ rr.reshape(d_b * d_b, d_a * d_a)
    p = np.einsum("max,mbx->mab", _element_stack(fs, n_a), t)
    return _checked_probs(p, axis=(1, 2))


def joint_distribution(rho: DensityMatrix, meas_a, meas_b) -> JointDistribution:
    """Joint outcome distribution P(a, b) = Tr[(E_a (x) E_b) rho].

    Both measurements may be projective bases or POVMs; projective inputs are
    promoted to rank-1 POVMs so a single code path serves both. This is the
    one-pair case of the stacked kernel the witnesses use.
    """
    p = _joint_stack(rho, [(meas_a, meas_b)])[0]
    return JointDistribution(*p.shape, p)


def measurement_distribution(mat: np.ndarray, meas) -> np.ndarray:
    """Outcome distribution of one measurement on a single-party density matrix."""
    m = as_povm(meas)
    a = np.asarray(mat, dtype=complex)
    if a.shape != (m.dim, m.dim):
        raise ValueError(f"state shape {a.shape} does not match measurement dim {m.dim}")
    p = np.einsum("aij,ji->a", m.stacked, a).real
    if p.min() < -NEG_TOL:
        raise ValueError(f"negative probability {p.min():.3e} beyond tolerance")
    return np.where(p < 0.0, 0.0, p)


def overlap_omega(basis_r: ProjectiveBasis, basis_s: ProjectiveBasis) -> float:
    """Minimal inverse squared overlap between two eigenbases.

    ``Omega = min_{i,j} 1 / |<r_i|s_j>|^2`` lies in [1, dim]: 1 when the bases
    share a vector, dim exactly when they are mutually unbiased.
    """
    if basis_r.dim != basis_s.dim:
        raise ValueError("bases must share a dimension")
    ov = np.abs(basis_r.vectors.conj() @ basis_s.vectors.T) ** 2
    return float(1.0 / ov.max())


def povm_omega(f: Povm, g: Povm) -> float:
    """POVM generalization of the overlap constant.

    ``Omega_POVM = min_{i,j} 1 / ||M_i N_j||^2`` where the operator norm
    (largest singular value) is taken over products of the canonical
    measurement operators, the positive square roots of the elements. Using
    element products without the square roots would overstate the constant:
    for smeared qubit elements ``0.8 P + 0.1 I`` from the X and Z bases it
    would give an entropy-sum bound of 1.573 bits while the Z eigenstate
    achieves only 1.469 bits. Projectors are their own square roots, with
    ``||P_i Q_j|| = |<r_i|s_j>|``, so projective POVMs reduce exactly to
    ``overlap_omega`` of the underlying bases.

    The square roots are cached on each POVM; all n_f n_g products and their
    norms come from one batched matmul and one batched SVD.
    """
    if f.dim != g.dim:
        raise ValueError("POVMs must share a dimension")
    products = f.roots[:, None] @ g.roots[None, :]
    worst = np.linalg.svd(products, compute_uv=False)[..., 0].max()
    return float(1.0 / worst**2)
