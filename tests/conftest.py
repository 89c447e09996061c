"""Shared fixtures and independent loop-based oracles.

The oracles recompute linear-algebra primitives with explicit index loops so
the vectorized implementations are checked against something dumber than
themselves.
"""

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
