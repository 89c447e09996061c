"""The single-state workload: every discrete witness of the public scalar API,
called one state at a time, plus loop-based references for checking it.

Inputs come from the seed alone: Ginibre-induced mixed states built here with
numpy (not with the package's samplers, so sampling changes cannot move this
workload) and wrapped as `DensityMatrix` objects, and the bases and smeared
POVMs, all built once during set-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Two-qubit and two-qutrit states: 70 * 8 + 70 * 7 = 1050 calls per pass, so
# the 99th percentile over calls has at least 10 calls beyond it.
STATES_PER_DIM = {2: 70, 3: 70}
ETA = 0.2                         # smearing of the qubit POVMs: (1-eta) P + eta I/2
ORACLE_TOL = 1e-9                 # bits


@dataclass(frozen=True)
class Call:
    """One witness evaluation. `witness` names a function of the package
    namespace, looked up at call time so that a traced pass sees it."""

    label: str
    witness: str
    args: tuple
    kwargs: dict


def _random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    n = d * d
    rank = int(rng.integers(1, n + 1))
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    w = g @ g.conj().T
    return w / np.trace(w).real


def _smeared(api, basis):
    eye = np.eye(basis.dim, dtype=complex)
    return api.Povm(
        basis.dim,
        tuple((1.0 - ETA) * np.outer(v, v.conj()) + ETA * eye / basis.dim for v in basis.vectors),
    )


def build_calls(api, seed: int) -> list[Call]:
    """All evaluations of one pass, in a fixed order."""
    rng = np.random.default_rng(seed)
    calls = []
    for d, count in STATES_PER_DIM.items():
        mub = api.mub_set(d)
        r, s = mub[0], mub[-1]
        povms = (_smeared(api, r), _smeared(api, s)) if d == 2 else None
        for i in range(count):
            rho = api.DensityMatrix((d, d), _random_density(rng, d))
            tag = f"d{d}/{i}"
            calls += [
                Call(f"{tag}/pair_conditional_AtoB", "pair_conditional",
                     (rho, r, s, r, s), {"direction": "AtoB"}),
                Call(f"{tag}/pair_conditional_BtoA", "pair_conditional",
                     (rho, r, s, r, s), {"direction": "BtoA"}),
                Call(f"{tag}/pair_symmetric_mi", "pair_symmetric_mi", (rho, r, s, r, s), {}),
                Call(f"{tag}/sumdiff_discrete", "sumdiff_discrete", (rho, r, s, r, s), {}),
                Call(f"{tag}/mub_conditional_AtoB", "mub_conditional",
                     (rho, mub, mub), {"direction": "AtoB"}),
                Call(f"{tag}/mub_conditional_BtoA", "mub_conditional",
                     (rho, mub, mub), {"direction": "BtoA"}),
                Call(f"{tag}/mub_mi", "mub_mi", (rho, mub, mub), {}),
            ]
            if povms is not None:
                px, pz = povms
                calls.append(Call(f"{tag}/pair_conditional_povm", "pair_conditional",
                                  (rho, px, pz, px, pz), {"direction": "AtoB"}))
    return calls


# ---------------------------------------------------------------------------
# loop-based references

def _elements(meas) -> list[np.ndarray]:
    if hasattr(meas, "vectors"):
        return [np.outer(v, v.conj()) for v in meas.vectors]
    return [np.asarray(e) for e in meas.elements]


def _joint(rho, meas_a, meas_b) -> np.ndarray:
    ea, eb = _elements(meas_a), _elements(meas_b)
    p = np.zeros((len(ea), len(eb)))
    for a, fa in enumerate(ea):
        for b, fb in enumerate(eb):
            p[a, b] = np.trace(np.kron(fa, fb) @ rho.mat).real
    return p


def _entropy(p) -> float:
    return float(-sum(x * math.log2(x) for x in np.ravel(p) if x > 1e-15))


def _h_cond(p: np.ndarray, given_a: bool) -> float:
    marginal = [sum(row) for row in p] if given_a else [sum(col) for col in p.T]
    return _entropy(p) - _entropy(marginal)


def _mi(p: np.ndarray) -> float:
    return _entropy(p.sum(axis=1)) + _entropy(p.sum(axis=0)) - _entropy(p)


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def _omega(meas_r, meas_s) -> float:
    worst = 0.0
    for m in _elements(meas_r):
        for n in _elements(meas_s):
            sv = np.linalg.svd(_sqrt_psd(m) @ _sqrt_psd(n), compute_uv=False)
            worst = max(worst, float(sv[0]) ** 2)
    return 1.0 / worst


def _mub_floor(n: int) -> float:
    if n % 2 == 0:
        return (n / 2) * math.log2(n / 2) + (n / 2 + 1) * math.log2(n / 2 + 1)
    return (n + 1) * math.log2((n + 1) / 2)


def _modular_entropy(p: np.ndarray, sign: int) -> float:
    n = p.shape[0]
    dist = [0.0] * n
    for a in range(n):
        for b in range(n):
            dist[(a + sign * b) % n] += p[a, b]
    return _entropy(dist)


def reference_violation(call: Call) -> float:
    """The call's violation in bits, recomputed with explicit loops."""
    rho = call.args[0]
    n = rho.dims[1]
    atob = call.kwargs.get("direction", "AtoB") == "AtoB"
    if call.witness in ("pair_conditional", "pair_symmetric_mi", "sumdiff_discrete"):
        _, r_a, s_a, r_b, s_b = call.args
        p_r, p_s = _joint(rho, r_a, r_b), _joint(rho, s_a, s_b)
        if call.witness == "pair_conditional":
            lhs = _h_cond(p_r, atob) + _h_cond(p_s, atob)
            return math.log2(_omega(r_b, s_b) if atob else _omega(r_a, s_a)) - lhs
        omega = min(_omega(r_a, s_a), _omega(r_b, s_b))
        if call.witness == "pair_symmetric_mi":
            return _mi(p_r) + _mi(p_s) - math.log2(n * n / omega)
        return math.log2(omega) - (_modular_entropy(p_r, 1) + _modular_entropy(p_s, -1))
    _, bases_a, bases_b = call.args
    joints = [_joint(rho, a, b) for a, b in zip(bases_a, bases_b)]
    if call.witness == "mub_conditional":
        return _mub_floor(n) - sum(_h_cond(p, atob) for p in joints)
    if call.witness == "mub_mi":
        return sum(_mi(p) for p in joints) - ((n + 1) * math.log2(n) - _mub_floor(n))
    raise ValueError(f"no reference for {call.witness}")


def check_subsample(calls: list[Call], values: list[float], stride: int) -> list[str]:
    """Compare every `stride`-th call's violation with its loop reference."""
    problems = []
    for call, value in list(zip(calls, values))[::stride]:
        expected = reference_violation(call)
        if not abs(value - expected) <= ORACLE_TOL:
            problems.append(f"{call.label}: {value!r} differs from the reference {expected!r}")
    return problems
