"""Shared fixtures and independent loop-based oracles.

The oracles recompute linear-algebra primitives with explicit index loops so
the vectorized implementations are checked against something dumber than
themselves.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def loop_partial_trace(mat, dims, keep):
    d_a, d_b = dims
    if keep == "A":
        out = np.zeros((d_a, d_a), dtype=complex)
        for i in range(d_a):
            for k in range(d_a):
                for j in range(d_b):
                    out[i, k] += mat[i * d_b + j, k * d_b + j]
        return out
    out = np.zeros((d_b, d_b), dtype=complex)
    for j in range(d_b):
        for m in range(d_b):
            for i in range(d_a):
                out[j, m] += mat[i * d_b + j, i * d_b + m]
    return out


def loop_partial_transpose(mat, dims, party):
    d_a, d_b = dims
    out = np.zeros_like(mat)
    for i in range(d_a):
        for j in range(d_b):
            for k in range(d_a):
                for m in range(d_b):
                    if party == "B":
                        out[i * d_b + m, k * d_b + j] = mat[i * d_b + j, k * d_b + m]
                    else:
                        out[k * d_b + j, i * d_b + m] = mat[i * d_b + j, k * d_b + m]
    return out


def loop_joint_probs(rho_mat, kets_a, kets_b):
    p = np.zeros((len(kets_a), len(kets_b)))
    for a, va in enumerate(kets_a):
        for b, wb in enumerate(kets_b):
            v = np.kron(va, wb)
            p[a, b] = np.real(v.conj() @ rho_mat @ v)
    return p


def loop_povm_joint_probs(rho_mat, els_a, els_b):
    p = np.zeros((len(els_a), len(els_b)))
    for a, ea in enumerate(els_a):
        for b, eb in enumerate(els_b):
            p[a, b] = np.real(np.trace(np.kron(ea, eb) @ rho_mat))
    return p


def loop_entropy(p):
    return float(-sum(x * np.log2(x) for x in np.asarray(p).ravel() if x > 1e-15))


def random_density(rng, d_a=2, d_b=2):
    from entrosteer import random_mixed_state

    rank = int(rng.integers(1, d_a * d_b + 1))
    return random_mixed_state(d_a, d_b, rank, rng)


def random_basis(rng, d):
    from entrosteer import random_unitary
    from entrosteer.measure import ProjectiveBasis

    return ProjectiveBasis(d, random_unitary(d, rng).T)


def random_povm(rng, d, n):
    """A random n-outcome POVM on dimension d: S^(-1/2) A_k S^(-1/2) for
    random PSD A_k with sum S."""
    from entrosteer import Povm

    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    parts = [m @ m.conj().T for m in g]
    vals, vecs = np.linalg.eigh(sum(parts))
    s_inv_half = (vecs / np.sqrt(vals)) @ vecs.conj().T
    els = [s_inv_half @ a @ s_inv_half for a in parts]
    return Povm(d, tuple((e + e.conj().T) / 2 for e in els))


def loop_elements(meas):
    """A basis's rank-1 projectors or a POVM's elements, as a list."""
    if hasattr(meas, "vectors"):
        return [np.outer(v, v.conj()) for v in meas.vectors]
    return [np.asarray(e) for e in meas.elements]


def loop_conditional_entropy(p, given):
    """H(A,B) - H(given) with given "A" (rows) or "B" (columns)."""
    rows, cols = p.shape
    if given == "A":
        marg = [sum(p[a, b] for b in range(cols)) for a in range(rows)]
    else:
        marg = [sum(p[a, b] for a in range(rows)) for b in range(cols)]
    return loop_entropy(p) - loop_entropy(marg)


def loop_mutual_information(p):
    return loop_entropy(p.sum(axis=1)) + loop_entropy(p.sum(axis=0)) - loop_entropy(p)


def loop_modular_entropy(p, sign):
    n = p.shape[0]
    s = 1 if sign == "plus" else -1
    dist = [0.0] * n
    for a in range(n):
        for b in range(n):
            dist[(a + s * b) % n] += p[a, b]
    return loop_entropy(dist)


def loop_omega(meas_r, meas_s):
    """min over element pairs of 1 / ||sqrt(M_i) sqrt(N_j)||^2."""
    def root(m):
        vals, vecs = np.linalg.eigh(m)
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T

    worst = 0.0
    for m in loop_elements(meas_r):
        for n in loop_elements(meas_s):
            worst = max(worst, np.linalg.svd(root(m) @ root(n), compute_uv=False)[0] ** 2)
    return 1.0 / worst


def loop_violation(witness, rho, *meas, direction="AtoB", signs=("plus", "minus")):
    """Violation in bits of one of the five discrete witnesses, recomputed
    one joint at a time with the loop oracles above. ``meas`` is
    (r_a, s_a, r_b, s_b) for the pair witnesses and (bases_a, bases_b) for
    the MUB witnesses."""
    from entrosteer import sanchez_ruiz_bound

    def joint(a, b):
        return loop_povm_joint_probs(rho.mat, loop_elements(a), loop_elements(b))

    given = "A" if direction == "AtoB" else "B"
    if witness in ("mub_conditional", "mub_mi"):
        bases_a, bases_b = meas
        joints = [joint(a, b) for a, b in zip(bases_a, bases_b)]
        n = len(bases_a) - 1
        if witness == "mub_conditional":
            return sanchez_ruiz_bound(n) - sum(loop_conditional_entropy(p, given) for p in joints)
        mi_bound = (n + 1) * np.log2(n) - sanchez_ruiz_bound(n)
        return sum(loop_mutual_information(p) for p in joints) - mi_bound
    r_a, s_a, r_b, s_b = meas
    p_r, p_s = joint(r_a, r_b), joint(s_a, s_b)
    if witness == "pair_conditional":
        omega = loop_omega(r_b, s_b) if direction == "AtoB" else loop_omega(r_a, s_a)
        lhs = loop_conditional_entropy(p_r, given) + loop_conditional_entropy(p_s, given)
        return np.log2(omega) - lhs
    omega = min(loop_omega(r_a, s_a), loop_omega(r_b, s_b))
    if witness == "pair_symmetric_mi":
        n = rho.dims[0]
        return loop_mutual_information(p_r) + loop_mutual_information(p_s) - np.log2(n * n / omega)
    if witness == "sumdiff_discrete":
        lhs = loop_modular_entropy(p_r, signs[0]) + loop_modular_entropy(p_s, signs[1])
        return np.log2(omega) - lhs
    raise ValueError(f"no loop oracle for {witness}")


def tmsv_violations(r):
    """Closed-form violations of the CV witnesses on the two-mode squeezed
    vacuum tmsv(r), by witness name. walborn_cv, in either direction, is
    log2(cosh 2r), from the conditional variances 1 / (2 cosh 2r);
    reid_sumdiff_cv is 1/4 - e^{-4r} and entropic_sumdiff_cv 2r log2(e) - 1,
    from the sum/difference variances e^{-2r}."""
    return {
        "walborn_cv": math.log2(math.cosh(2.0 * r)),
        "reid_sumdiff_cv": 0.25 - math.exp(-4.0 * r),
        "entropic_sumdiff_cv": 2.0 * r / math.log(2.0) - 1.0,
    }


def exact_min_symplectic_eigenvalue(cov, digits=80):
    """The smaller symplectic eigenvalue nu_- of the float64 matrix `cov`
    itself, as an mpmath number good to about `digits` digits. The invariants
    Delta = det A + det B + 2 det C (the 2x2 blocks of cov) and det(cov) are
    exact rationals of the entries; then nu_-^2 = 2 det / (Delta +
    sqrt(Delta^2 - 4 det)), which loses nothing to cancellation."""
    m = [[Fraction(x) for x in row] for row in np.asarray(cov, dtype=float).tolist()]

    def det(rows):   # Laplace expansion along the first row
        if len(rows) == 1:
            return rows[0][0]
        return sum((-1) ** j * rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]])
                   for j in range(len(rows)))

    def block(i, j):
        return m[i][j] * m[i + 1][j + 1] - m[i][j + 1] * m[i + 1][j]

    delta, d = block(0, 0) + block(2, 2) + 2 * block(0, 2), det(m)
    with mpmath.workdps(digits):
        def mp(f):
            return mpmath.mpf(f.numerator) / f.denominator
        return +mpmath.sqrt(2 * mp(d) / (mp(delta) + mpmath.sqrt(mp(delta * delta - 4 * d))))
