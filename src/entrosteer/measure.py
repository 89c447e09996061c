"""Measurement models and outcome statistics.

Projective bases, POVMs, complete mutually unbiased basis (MUB) sets, joint
outcome distributions, and the two overlap constants that bound entropy sums:
Omega for eigenbases and its POVM generalization built from operator norms.
"""

from __future__ import annotations

import sys
import weakref
from functools import cached_property, lru_cache

import numpy as np

from .infotheory import _checked_probs, _joint_entropies, _probs_2d
from .qmat import STRUCT_TOL, DensityMatrix, _check_entries, _count, _floored_eigenvalues, _Record
from .qmat import _hermitian_stack, _state, validate_density_stack

# Measurement sets whose derived data the witness path keeps. Measurements are
# immutable and hash by identity; a cache entry holds them, so no id is reused.
SET_CACHE_SIZE = 32

# Bases are mutually unbiased when every overlap |<a_i|b_j>|^2 between two of
# them is 1/d within this tolerance (`is_mub_set`).
MUB_TOL = 1e-8


class ProjectiveBasis(_Record):
    """An orthonormal measurement basis. ``vectors[i]`` is the i-th ket."""

    FIELDS = ("dim", "vectors")

    def __post_init__(self) -> None:
        d = _count(self.dim, "dimension", 0)   # 0: "empty basis" below
        v = np.array(self.vectors, dtype=complex)
        if v.shape != (d, d):
            raise ValueError(f"expected {d} vectors of length {d}, got shape {v.shape}")
        _check_entries(v[None], "basis")
        gram = v.conj() @ v.T
        if not np.abs(gram - np.eye(d)).max() <= STRUCT_TOL:
            raise ValueError("basis vectors are not orthonormal within 1e-10")
        v.setflags(write=False)
        vars(self).update(dim=d, vectors=v)

    @property
    def matrix(self) -> np.ndarray:
        """Unitary whose columns are the basis vectors."""
        return self.vectors.T

    @cached_property
    def povm(self) -> Povm:
        """The rank-1 projector POVM, built and validated on first use only."""
        return Povm(self.dim, tuple(np.outer(v, v.conj()) for v in self.vectors))


class Povm(_Record):
    """A positive operator-valued measure: PSD elements summing to identity.

    ``stacked`` is the read-only ``(n, dim, dim)`` array of the elements, and
    each of ``elements`` is a view of one of its slices.
    """

    FIELDS = ("dim", "elements")

    def __post_init__(self) -> None:
        d = _count(self.dim, "dimension", 0)
        els = [np.array(e, dtype=complex) for e in self.elements]
        if not els:
            raise ValueError("a POVM needs at least one element")
        for k, m in enumerate(els):
            if m.shape != (d, d):
                raise ValueError(f"element {k} has shape {m.shape}, expected square dim {d}")
        stacked = np.stack(els)
        _hermitian_stack(stacked, "POVM element")
        _floored_eigenvalues(stacked, "POVM element")
        if not np.abs(stacked.sum(axis=0) - np.eye(d)).max() <= STRUCT_TOL:
            raise ValueError("POVM elements do not sum to identity within 1e-10")
        stacked.setflags(write=False)
        vars(self).update(dim=d, elements=tuple(stacked), stacked=stacked)

    @cached_property
    def roots(self) -> np.ndarray:
        """Read-only ``(n, dim, dim)`` stack of the elements' positive square
        roots (the canonical measurement operators), built on first use only."""
        vals, vecs = np.linalg.eigh(self.stacked)
        roots = (vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]) @ vecs.conj().swapaxes(1, 2)
        roots.setflags(write=False)
        return roots


class JointDistribution(_Record):
    """Joint outcome probabilities P(a, b) for one measurement on each party.

    Entries in [-1e-12, 0) are floating-point dust and get clamped to zero;
    anything more negative is rejected. The total must be 1 within 1e-10, and
    a complex input may carry an imaginary part of at most 1e-8.
    """

    FIELDS = ("n_a", "n_b", "probs")

    def __post_init__(self) -> None:
        n_a, n_b = _count(self.n_a, "n_a", 0), _count(self.n_b, "n_b", 0)
        p = np.asarray(self.probs)
        if p.shape != (n_a, n_b):
            raise ValueError(f"expected shape {(n_a, n_b)}, got {p.shape}")
        vars(self).update(n_a=n_a, n_b=n_b, probs=_probs_2d(p))


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
    if (d := _count(d, "dimension")) == 2:   # a Python int: the byte bound cannot overflow
        return pauli_bases()
    if (d + 1) * d * d * 16 > sys.maxsize:   # refused before _is_prime's trial division can hang
        raise ValueError(
            f"a complete MUB set in dimension {d} would take more than sys.maxsize bytes")
    if not _is_prime(d):
        raise ValueError(
            f"complete MUB sets are implemented for d = 2 and odd primes, got d = {d}")
    n = np.arange(d)
    bases = [ProjectiveBasis(d, np.eye(d, dtype=complex))]
    for a in range(d):
        exponent = (a * n[None, :] ** 2 + n[:, None] * n[None, :]) % d
        vecs = np.exp(2j * np.pi * exponent / d) / np.sqrt(d)
        bases.append(ProjectiveBasis(d, vecs))
    return bases


def is_mub_set(bases) -> bool:
    """Check that every pair of bases in the list is mutually unbiased
    (within `MUB_TOL`).

    One Gram product of all the kets against all the kets gives every
    cross-basis overlap at once.
    """
    bases = [_state(b, "is_mub_set", ProjectiveBasis) for b in bases]
    if not bases or any(b.dim != bases[0].dim for b in bases):
        return False
    d, k = bases[0].dim, len(bases)
    v = np.concatenate([b.vectors for b in bases])
    dev = np.abs(np.abs(v.conj() @ v.T) ** 2 - 1.0 / d).reshape(k, d, k, d)
    dev[np.arange(k), :, np.arange(k)] = 0.0   # a basis against itself
    return bool(dev.max() <= MUB_TOL)


def rotate_basis(basis: ProjectiveBasis, u: np.ndarray) -> ProjectiveBasis:
    """Apply a unitary to every vector of a basis (u @ v_i for each i)."""
    _state(basis, "rotate_basis", ProjectiveBasis)
    _check_entries(np.asarray(u)[None], "rotation matrix")
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
    """Read-only ``(m, n, dim^2)`` stack of flattened POVM elements. A POVM
    with fewer than n outcomes is padded with zero elements, whose outcomes
    have probability exactly 0."""
    d = povms[0].dim
    out = np.zeros((len(povms), n, d * d), dtype=complex)
    for i, povm in enumerate(povms):
        out[i, :len(povm.elements)] = povm.stacked.reshape(len(povm.elements), -1)
    out.setflags(write=False)
    return out


class _SetRecord:
    """What the contraction derives once per set of m (Alice, Bob) measurement
    pairs: their distinct (d_A, d_B) in order of first use, the padded element
    stacks (None when the dims differ), each pair's outcome counts, and the
    last state's `_set_statistics` (None until a state is seen)."""

    __slots__ = ("dims", "f_stack", "g_stack", "shapes", "last")

    def __init__(self, dims: tuple, f_stack, g_stack, shapes: tuple):
        self.dims, self.f_stack, self.g_stack, self.shapes, self.last = (
            dims, f_stack, g_stack, shapes, None)


@lru_cache(maxsize=SET_CACHE_SIZE)
def _set_record(pairs: tuple) -> _SetRecord:
    """The `_SetRecord` of a tuple of measurement pairs, built on first use:
    a value other than a projective basis or a POVM raises `as_povm`'s
    TypeError here, once, and never on a cached set."""
    fs, gs = zip(*[(as_povm(a), as_povm(b)) for a, b in pairs])
    dims = tuple(dict.fromkeys((f.dim, g.dim) for f, g in zip(fs, gs)))
    shapes = tuple((len(f.elements), len(g.elements)) for f, g in zip(fs, gs))
    if len(dims) > 1:
        return _SetRecord(dims, None, None, shapes)
    n_a, n_b = map(max, zip(*shapes))
    return _SetRecord(dims, _element_stack(fs, n_a), _element_stack(gs, n_b), shapes)


def _cached(fn, *args):
    """``fn(*args)`` of an `lru_cache` function. An unhashable argument (an ndarray, say)
    fails the lookup naming no type, so `fn` runs uncached and its checks raise one that does."""
    try:
        return fn(*args)
    except TypeError:
        return fn.__wrapped__(*args)


def _joint_stack(rho: DensityMatrix, rec: _SetRecord) -> np.ndarray:
    """Checked joint distributions of a set's m measurement pairs, ``(m, n_a, n_b)``.

    The measurements may be projective bases or POVMs. ``n_a`` and ``n_b``
    are the largest outcome counts: a joint with fewer outcomes fills the
    top-left block of its slice and the padding is exactly zero, so every
    pair takes part in the same two contraction steps.

    A stacked matmul forms ``T[m, b, (i, k)] = Tr_B[(1 (x) E_b) rho][k, i]``
    in O(m n_b d_A^2 d_B^2); then ``P[m, a, b] = sum_(i,k) E_a[i, k]
    T[m, b, (i, k)]`` in O(m n_a n_b d_A^2). The second step is a plain
    two-operand einsum: a BLAS product there rounds an entry differently
    depending on its column, so relabelling Bob's outcomes would not permute
    P exactly. The probability checks run once over the whole stack.
    """
    for f_dim, g_dim in rec.dims:
        if (f_dim, g_dim) != rho.dims:
            raise ValueError(
                f"measurement dims ({f_dim}, {g_dim}) do not match state dims {rho.dims}")
    d_a, d_b = rho.dims
    # rr[j, l, i, k] = rho[(k, l), (i, j)]
    rr = rho.mat.reshape(d_a, d_b, d_a, d_b).transpose(3, 1, 2, 0)
    t = rec.g_stack @ rr.reshape(d_b * d_b, d_a * d_a)
    p = np.einsum("max,mbx->mab", rec.f_stack, t)
    return _checked_probs(p, axis=(1, 2))


def _set_statistics(rho: DensityMatrix, rec: _SetRecord) -> tuple:
    """``(p, (H(A,B), H(A), H(B)))`` of a checked state and a set's m
    measurement pairs: the `_joint_stack` joints and their `_joint_entropies`.

    Each record keeps these for the last state it saw, held by weakref, so
    witnesses called one after another on the same state and set contract
    once. States and measurements are immutable and compared by identity, so
    a kept result is exactly what a recomputation would give; callers share
    the arrays and only read them. The slot is read once and written with one
    assignment, which keeps threads that share a set consistent.
    """
    seen = rec.last
    if seen is not None and seen[0]() is rho:
        return seen[1], seen[2]
    p = _joint_stack(rho, rec)
    h = _joint_entropies(p)
    rec.last = (weakref.ref(rho), p, h)
    return p, h


def joint_distribution(rho: DensityMatrix, meas_a, meas_b) -> JointDistribution:
    """Joint outcome distribution P(a, b) = Tr[(E_a (x) E_b) rho].

    Both measurements may be projective bases or POVMs; projective inputs are
    promoted to rank-1 POVMs so a single code path serves both. This is the
    one-pair case of the stacked kernel the witnesses use.
    """
    _state(rho, "joint_distribution")
    p = _joint_stack(rho, _cached(_set_record, ((meas_a, meas_b),)))[0]
    return JointDistribution(*p.shape, p)


def _product_columns(a_mats: np.ndarray, b_mats: np.ndarray) -> np.ndarray:
    # (m, D, D): the product kets a (x) b of m basis pairs (``ProjectiveBasis.matrix`` each)
    m, d_a, d_b = len(a_mats), a_mats.shape[-1], b_mats.shape[-1]
    return np.einsum("mia,mjb->mijab", a_mats, b_mats).reshape(m, d_a * d_b, d_a * d_b)


@lru_cache(maxsize=256)   # a run meets a few shapes: fig1 2, the audit 4, a trial kernel 2
def _einsum_path(subscripts: str, *shapes) -> list:
    # einsum's greedy path (which sets the rounding), searched once per shapes
    return np.einsum_path(subscripts, *(np.broadcast_to(0j, s) for s in shapes), optimize=True)[0]


def _product_joints(mats: np.ndarray, cols: np.ndarray, dims: tuple) -> np.ndarray:
    """Checked joints of m projective basis pairs on s states, ``(s, m, d_a, d_b)``.

    ``mats`` is an ``(s, D, D)`` stack of states and ``cols`` the pairs'
    `_product_columns`, with ``dims`` = (d_a, d_b). Each probability is
    ``<k|rho|k>`` for the product column ``k``, from one three-operand einsum
    (whose path changes at s = 2 and 12). The surveys' value bytes depend on
    this arithmetic, so it is kept apart from `_joint_stack`, whose matmul
    and two-operand einsum round differently.
    """
    subscripts = "mjx,sjk,mkx->smx"
    path = _einsum_path(subscripts, cols.shape, mats.shape, cols.shape)
    p = np.einsum(subscripts, cols.conj(), mats, cols, optimize=path)
    return _checked_probs(p.reshape(-1, len(cols), *dims), axis=(-2, -1))


def _povm_joints(mats: np.ndarray, els_a: np.ndarray, els_b: np.ndarray) -> np.ndarray:
    """Checked joints of one POVM pair on s states, ``(s, n_a, n_b)``.

    ``els_a`` and ``els_b`` are stacked elements (``Povm.stacked``);
    ``P[s, a, b] = Tr[(E_a (x) F_b) rho_s]`` from one einsum.
    """
    d_a, d_b = els_a.shape[-1], els_b.shape[-1]
    rr = mats.reshape(-1, d_a, d_b, d_a, d_b)
    subscripts = "aik,bjl,sklij->sab"
    path = _einsum_path(subscripts, els_a.shape, els_b.shape, rr.shape)
    return _checked_probs(np.einsum(subscripts, els_a, els_b, rr, optimize=path), axis=(-2, -1))


def measurement_distribution(mat: np.ndarray, meas) -> np.ndarray:
    """Outcome distribution of one measurement on a single-party density
    matrix, checked as `qmat.validate_density_stack` checks a stack."""
    m = as_povm(meas)
    a = np.asarray(mat, dtype=complex)
    if a.shape != (m.dim, m.dim):
        raise ValueError(f"state shape {a.shape} does not match measurement dim {m.dim}")
    validate_density_stack(a[None])
    return _checked_probs(np.einsum("aij,ji->a", m.stacked, a))


def overlap_omega(basis_r: ProjectiveBasis, basis_s: ProjectiveBasis) -> float:
    """Minimal inverse squared overlap between two eigenbases.

    ``Omega = min_{i,j} 1 / |<r_i|s_j>|^2``, clipped to [1, dim] against rounding:
    1 when the bases share a vector, dim exactly when they are mutually unbiased.
    """
    basis_r, basis_s = (_state(b, "overlap_omega", ProjectiveBasis) for b in (basis_r, basis_s))
    if basis_r.dim != basis_s.dim:
        raise ValueError("bases must share a dimension")
    ov = np.abs(basis_r.vectors.conj() @ basis_s.vectors.T) ** 2
    return float(np.clip(1.0 / ov.max(), 1.0, basis_r.dim))


def povm_omega(f: Povm | ProjectiveBasis, g: Povm | ProjectiveBasis) -> float:
    """POVM generalization of the overlap constant.

    ``Omega_POVM = min_{i,j} 1 / ||M_i N_j||^2`` where the operator norm
    (largest singular value) is taken over products of the canonical
    measurement operators, the positive square roots of the elements. Using
    element products without the square roots would overstate the constant:
    for smeared qubit elements ``0.8 P + 0.1 I`` from the X and Z bases it
    would give an entropy-sum bound of 1.573 bits while the Z eigenstate
    achieves only 1.469 bits. Projectors are their own square roots, with
    ``||P_i Q_j|| = |<r_i|s_j>|``, so on projective POVMs it agrees with
    ``overlap_omega`` of the underlying bases to rounding (X/Z: 2.000000000000001).

    Bases are taken as their POVMs (`as_povm`). The square roots are cached on
    each POVM; all n_f n_g products and their norms come from one batched
    matmul and one batched SVD.
    """
    f, g = as_povm(f), as_povm(g)
    if f.dim != g.dim:
        raise ValueError("POVMs must share a dimension")
    products = f.roots[:, None] @ g.roots[None, :]
    worst = np.linalg.svd(products, compute_uv=False)[..., 0].max()
    return float(1.0 / worst**2)
