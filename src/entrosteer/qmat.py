"""Dense complex linear algebra for small bipartite quantum systems.

States live on a tensor product H_A (x) H_B with subsystem dimensions
``(d_A, d_B)``; joint indices are row-major, so the product basis vector
|i>_A (x) |j>_B sits at position ``i * d_B + j``. All randomness flows through
an explicit ``numpy.random.Generator`` -- there is no hidden global state.
"""

from __future__ import annotations

import numpy as np

# Structural invariants (Hermiticity, trace or probability total, eigenvalue
# floor, orthonormality, POVM completeness, norm) are checked to 1e-10, well
# above double-precision noise for the dimensions this package targets (<= 32).
STRUCT_TOL = 1e-10


# each check below reduces the whole stack first and looks for the index (plus
# a block's `offset`) only on failure: a stack of one costs what a matrix does
def _raise_at(bad: np.ndarray, message: str, offset: int = 0) -> None:
    i = int(np.argmax(bad))
    if bad.size > 1 or offset:
        message += f" (stack index {offset + i})"
    raise ValueError(message)


def _check_entries(a: np.ndarray, what: str, offset: int = 0) -> None:
    """Raise unless the ``(n, ...)`` stack `a` has entries, each finite and at
    most 2 in size (valid ones are at most 1), before any sum can overflow."""
    if not a.size:
        raise ValueError(f"empty {what}")
    size = np.abs(a).reshape(len(a), -1)
    if not size.max() <= 2.0:
        finite = np.isfinite(size).all(axis=1)
        if finite.all():
            _raise_at(size.max(axis=1) > 2.0, f"{what} has an entry of size above 2", offset)
        _raise_at(~finite, f"{what} contains non-finite entries", offset)


def _hermitian_stack(mats: np.ndarray, what: str, offset: int = 0) -> None:
    """`_check_entries`, then Hermiticity within 1e-10, of an ``(n, D, D)`` stack."""
    _check_entries(mats, what, offset)
    asym = np.abs(mats - mats.conj().swapaxes(-1, -2))
    if not asym.max() <= STRUCT_TOL:
        _raise_at(~(asym.max(axis=(-2, -1)) <= STRUCT_TOL),
                  f"{what} is not Hermitian within 1e-10", offset)


def _floored_eigenvalues(mats: np.ndarray, what: str, offset: int = 0) -> np.ndarray:
    """One batched ``eigvalsh`` of a Hermitian stack, checked to be >= -1e-10."""
    evals = np.linalg.eigvalsh(mats)
    if not evals[:, 0].min() >= -STRUCT_TOL:
        _raise_at(~(evals[:, 0] >= -STRUCT_TOL), f"{what} has an eigenvalue below -1e-10", offset)
    return evals


def validate_density_stack(mats: np.ndarray, offset: int = 0) -> np.ndarray:
    """Check a stack of density matrices at once; return their eigenvalues.

    Parameters
    ----------
    mats : numpy.ndarray
        Complex array of shape ``(n, D, D)``.

    Returns
    -------
    numpy.ndarray
        The ``(n, D)`` ascending eigenvalues, from one batched ``eigvalsh``.

    Raises
    ------
    ValueError
        The checks run over the whole stack in this order: finite entries at
        most 2 in size, Hermitian and unit trace within 1e-10, no eigenvalue
        below -1e-10. The first check that fails names its lowest failing
        index, counted from `offset` when `mats` is a block of a larger stack
        (a whole stack of one gets the bare message, as ``DensityMatrix``).
    """
    _hermitian_stack(mats, "density matrix", offset)
    tr = np.trace(mats, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0)
    if off.max() > STRUCT_TOL:   # finite: the entries are bounded
        i = int(np.argmax(off > STRUCT_TOL))
        _raise_at(off > STRUCT_TOL, f"density matrix trace {tr[i]} differs from 1 beyond 1e-10",
                  offset)
    return _floored_eigenvalues(mats, "density matrix", offset)


def _count(value, name: str, low: int = 1, high: float = float("inf")) -> int:
    """`value` as an int, the one count and dimension check: TypeError unless an
    int or numpy integer (not a bool or float), ValueError outside [low, high]."""
    if type(value) is not int and not isinstance(value, np.integer):   # bool fails too
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if not low <= value <= high:
        raise ValueError(f"{name} must be >= {low}, got {value}" if value < low
                         else f"{name} must be <= {high}, got {value}")
    return int(value)


def _choice(value, options: tuple, name: str):
    """`value`, checked to be one of `options` (ValueError naming `name`)."""
    if value not in options:
        raise ValueError(f"{name} must be {' or '.join(map(repr, options))}, got {value!r}")
    return value


def _subsystem_dims(dims) -> tuple[int, int]:
    d_a, d_b = dims
    return _count(d_a, "subsystem dimension"), _count(d_b, "subsystem dimension")


class _Record:
    """The package's read-only record, equal and hashed by identity.

    Its constructor binds the class's `FIELDS` positionally or by keyword
    (TypeError for a missing, repeated or unknown one), then calls the class's
    ``__post_init__``, which checks the values and may replace them through
    ``vars(self)``. It is the only way in: pickle and copy rebuild a record
    from its fields through it (``__reduce__``), checked and read-only again.
    """

    FIELDS: tuple = ()

    def __init__(self, *values, **named):
        fields = vars(self)
        fields.update(zip(self.FIELDS, values))
        unknown = named.keys() - set(self.FIELDS[len(values):])
        fields.update(named)
        if unknown or len(fields) != len(self.FIELDS) or len(values) > len(self.FIELDS):
            raise TypeError(f"{type(self).__name__} takes the fields {self.FIELDS} once each, "
                            f"got {len(values)} positional and {sorted(named)} by keyword")
        self.__post_init__()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set {name!r}: {type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.FIELDS)

    def __repr__(self) -> str:
        fields = ', '.join(f'{n}={getattr(self, n)!r}' for n in self.FIELDS)
        return f"{type(self).__qualname__}({fields})"


class DensityMatrix(_Record):
    """A validated bipartite density matrix.

    Parameters
    ----------
    dims : tuple of int
        Subsystem dimensions ``(d_A, d_B)``, each >= 1.
    mat : array_like
        Complex matrix of shape ``(d_A*d_B, d_A*d_B)``. Must be Hermitian and
        unit-trace within 1e-10 with eigenvalues >= -1e-10.

    Notes
    -----
    The stored array is copied and marked read-only, so instances are safe to
    share across threads.
    """

    FIELDS = ("dims", "mat")

    def __post_init__(self) -> None:
        d_a, d_b = _subsystem_dims(self.dims)
        m = np.array(self.mat, dtype=complex)
        if m.ndim != 2:
            raise ValueError(f"density matrix must be two-dimensional, got shape {m.shape}")
        n = d_a * d_b
        if m.shape != (n, n):
            raise ValueError(
                f"dims {self.dims} require a {n}x{n} matrix, got shape {m.shape}")
        validate_density_stack(m[None])
        m.setflags(write=False)
        vars(self).update(dims=(d_a, d_b), mat=m)

    @property
    def total_dim(self) -> int:
        return self.dims[0] * self.dims[1]


def _state(value, what: str, cls: type = DensityMatrix):
    """`value`, checked at the public entry point `what` to be a `cls` (TypeError)."""
    if not isinstance(value, cls):
        raise TypeError(f"{what} takes a {cls.__name__}, got {type(value).__name__}")
    return value


def _equal_dims(rho: DensityMatrix, what: str) -> int:
    """The local dimension of `rho`, whose parties must share it (ValueError)."""
    if rho.dims[0] != rho.dims[1]:
        raise ValueError(f"{what} needs equal local dimensions")
    return rho.dims[0]


class PureState(_Record):
    """A bipartite pure state vector, unit-normalized within 1e-10."""

    FIELDS = ("dims", "vec")

    def __post_init__(self) -> None:
        d_a, d_b = _subsystem_dims(self.dims)
        v = np.array(self.vec, dtype=complex).ravel()
        if v.size != d_a * d_b:
            raise ValueError(
                f"dims {self.dims} require a vector of length {d_a * d_b}, got {v.size}")
        _check_entries(v[None], "state vector")
        if not abs(np.linalg.norm(v) - 1.0) <= STRUCT_TOL:
            raise ValueError("state vector is not unit-normalized within 1e-10")
        v.setflags(write=False)
        vars(self).update(dims=(d_a, d_b), vec=v)

    def to_density(self) -> DensityMatrix:
        """Return the rank-1 projector |psi><psi| as a DensityMatrix."""
        return DensityMatrix(self.dims, np.outer(self.vec, self.vec.conj()))


def partial_trace(rho: DensityMatrix, keep: str) -> np.ndarray:
    """Trace out one subsystem of a bipartite density matrix.

    Parameters
    ----------
    rho : DensityMatrix
    keep : {"A", "B"}
        The subsystem whose reduced matrix is returned.

    Returns
    -------
    numpy.ndarray
        Hermitian, unit-trace ``d_keep x d_keep`` matrix.
    """
    d_a, d_b = _state(rho, "partial_trace").dims
    r = rho.mat.reshape(d_a, d_b, d_a, d_b)
    if _choice(keep, ("A", "B"), "keep") == "A":
        return np.einsum("ijkj->ik", r)
    return np.einsum("ijil->jl", r)


def partial_transpose(rho: DensityMatrix, party: str = "B") -> np.ndarray:
    """Transpose one party's indices; eigenvalue negativity flags entanglement.

    For two qubits a nonnegative spectrum of the partial transpose certifies
    separability, which makes this the standard independent check on sampled
    separable states.
    """
    d_a, d_b = _state(rho, "partial_transpose").dims
    r = rho.mat.reshape(d_a, d_b, d_a, d_b)
    axes = (2, 1, 0, 3) if _choice(party, ("A", "B"), "party") == "A" else (0, 3, 2, 1)
    return r.transpose(axes).reshape(rho.total_dim, rho.total_dim)


def singlet_state() -> PureState:
    """The two-qubit singlet (|01> - |10>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    return PureState((2, 2), v)


def werner_state(p: float) -> DensityMatrix:
    """Mixture of the singlet projector (weight p) with the maximally mixed state.

    Parameters
    ----------
    p : float in [0, 1]

    Returns
    -------
    DensityMatrix
        ``p |s><s| + (1 - p) I/4`` with |s> the singlet.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    v = singlet_state().vec   # the projector is validated once, with the mixture
    return DensityMatrix((2, 2), p * np.outer(v, v.conj()) + (1.0 - p) * np.eye(4) / 4.0)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-distributed ``d x d`` unitary.

    QR decomposition of a complex Ginibre matrix, with the R-diagonal phases
    folded back into Q; without that phase correction the distribution is not
    rotation-invariant.
    """
    d = _count(d, "dimension")
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return _haar_unitaries(z)


def _haar_unitaries(z: np.ndarray) -> np.ndarray:
    """The Haar unitary Q of ``z = QR`` with R's diagonal phases folded into
    Q, for one complex Ginibre matrix ``(d, d)`` or a stack ``(..., d, d)``."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(diag)
    # Zero diagonal entries have probability zero; fall back to phase 1.
    phase = np.where(mag > 0, diag, 1.0) / np.where(mag > 0, mag, 1.0)
    return q * phase[..., None, :]


def random_pure_state(d_a: int, d_b: int, rng: np.random.Generator) -> PureState:
    """Haar-uniform pure state on C^{d_a} (x) C^{d_b}.

    A vector of i.i.d. standard complex Gaussians, normalized, is
    rotation-invariant and therefore uniform on the unit sphere.
    """
    d_a, d_b = _subsystem_dims((d_a, d_b))
    n = d_a * d_b
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState((d_a, d_b), v / np.linalg.norm(v))


def random_mixed_state(
    d_a: int, d_b: int, rank: int, rng: np.random.Generator
) -> DensityMatrix:
    """Mixed state from the rank-constrained Hilbert-Schmidt-induced measure.

    Parameters
    ----------
    d_a, d_b : int
        Subsystem dimensions.
    rank : int
        Number of Ginibre columns, ``1 <= rank <= d_a*d_b``. Full rank gives
        the flat Hilbert-Schmidt measure; rank 1 gives random pure projectors.
    rng : numpy.random.Generator

    Returns
    -------
    DensityMatrix
        ``G G^dagger / Tr(G G^dagger)`` for a ``(d_a*d_b) x rank`` complex
        standard-Gaussian matrix G.
    """
    d_a, d_b = _subsystem_dims((d_a, d_b))
    n = d_a * d_b
    rank = _count(rank, "rank", 1, n)
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return DensityMatrix((d_a, d_b), ginibre_density(g))


def ginibre_density(g: np.ndarray) -> np.ndarray:
    """``G G^dagger / Tr(G G^dagger)`` for one complex ``(D, r)`` matrix G or a
    stack ``(n, D, r)`` of them, unvalidated.

    A stack gets exactly the per-element arithmetic of single matrices (one
    matmul per slice, then a division by the real trace), so a batch of states
    is bit-identical to the same states built one at a time.
    """
    w = g @ g.conj().swapaxes(-1, -2)
    return w / np.trace(w, axis1=-2, axis2=-1).real[..., None, None]
