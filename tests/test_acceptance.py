"""End-to-end acceptance checks.

Each test evaluates one shipping criterion at its stated scale and tolerance
and prints a single PASS/FAIL line (run pytest with -s to see the lines for
passing tests; failures always show them).
"""

import time

import numpy as np
from conftest import loop_partial_transpose, random_basis

from entrosteer import (
    as_povm,
    entanglement_of_formation,
    entropic_sumdiff_cv,
    mub_conditional,
    mub_mi,
    optimize_bases,
    overlap_omega,
    pair_conditional,
    pair_symmetric_mi,
    partial_trace,
    pauli_bases,
    povm_omega,
    random_mixed_state,
    random_pure_state,
    random_unitary,
    reid_sumdiff_cv,
    rotate_basis,
    sanchez_ruiz_bound,
    separable_audit,
    shannon_entropy,
    singlet_state,
    survey_fig1,
    survey_fig2,
    threshold_bisect,
    tmsv,
    violation_gap,
    von_neumann_entropy,
    walborn_cv,
    werner_state,
)
from entrosteer.cli import main
from entrosteer.measure import measurement_distribution
from entrosteer.montecarlo import _ensemble_stack
from entrosteer.streams import _derived_seeds

SEED = 20260819


def report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"{tag}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_basis_pair(d, g):
    return random_basis(g, d), random_basis(g, d)


def test_01_werner_threshold_two_settings():
    x, _, z = pauli_bases()

    def fam(p):
        return pair_conditional(werner_state(p), x, z, x, z).violation_bits

    t0 = time.perf_counter()
    p_star = threshold_bisect(fam, 0.5, 0.99, tol=1e-6)
    dt = time.perf_counter() - t0
    ok = abs(p_star - 0.7799) <= 5e-4 and dt < 1.0
    report("two-setting Werner threshold 0.7799 +/- 5e-4 in under 1 s", ok,
           f"p*={p_star:.6f}, {dt:.2f} s")


def test_02_werner_threshold_three_settings():
    triple = pauli_bases()

    def fam(p):
        return mub_conditional(werner_state(p), triple, triple).violation_bits

    t0 = time.perf_counter()
    p_star = threshold_bisect(fam, 0.5, 0.99, tol=1e-6)
    dt = time.perf_counter() - t0
    ok = abs(p_star - 0.6517) <= 5e-4 and dt < 1.0
    report("three-setting Werner threshold 0.6517 +/- 5e-4 in under 1 s", ok,
           f"p*={p_star:.6f}, {dt:.2f} s")


def test_03_qubit_mub_mi_bound_and_singlet():
    triple = pauli_bases()
    rho = singlet_state().to_density()
    mi = mub_mi(rho, triple, triple)
    cond = mub_conditional(rho, triple, triple)
    ok = (
        mi.bound_bits == 1.0
        and abs(mi.lhs_bits - 3.0) < 1e-10
        and abs(mi.violation_bits - 2.0) < 1e-10
        and abs(cond.violation_bits - 2.0) < 1e-10
    )
    report("qubit MI bound exactly 1 bit; singlet saturates both triples", ok,
           f"lhs={mi.lhs_bits:.12f}")


def test_04_fig1_survey_dominance_and_quadrant():
    t0 = time.perf_counter()
    blocks = survey_fig1(10_000, "mixed", np.random.default_rng(SEED))
    cols = np.concatenate([c for _, c in blocks])
    v_c = cols[:, 0]   # v_conditional_AtoB
    v_m = cols[:, 2]   # v_symmetric
    dominance = bool(np.all(v_c >= v_m - 1e-12))
    # the states the survey evaluated, rebuilt from the same item seeds
    mats = _ensemble_stack("mixed", _derived_seeds(np.random.default_rng(SEED), 10_000))
    npt = np.array(
        [np.linalg.eigvalsh(loop_partial_transpose(m, (2, 2), "B")).min() < -1e-12
         for m in mats]
    )
    quad = (v_c > 0) & (v_m <= 0)
    frac = quad[npt].sum() / npt.sum()
    dt = time.perf_counter() - t0
    ok = dominance and frac >= 0.01 and dt < 120.0
    report("10k-state survey: conditional dominates; quadrant >= 1% of NPT", ok,
           f"quadrant {100 * frac:.2f}% of {npt.sum()} NPT, {dt:.1f} s")


def test_05_violation_gap_identity_and_chain():
    g = np.random.default_rng(SEED + 1)
    x, _, z = pauli_bases()
    worst_id = 0.0
    chain_ok = True
    for _ in range(1000):
        rho = random_mixed_state(2, 2, int(g.integers(1, 5)), g)
        u_a, u_b = random_unitary(2, g), random_unitary(2, g)
        r_a, s_a = rotate_basis(x, u_a), rotate_basis(z, u_a)
        r_b, s_b = rotate_basis(x, u_b), rotate_basis(z, u_b)
        v_c = pair_conditional(rho, r_a, s_a, r_b, s_b).violation_bits
        v_m = pair_symmetric_mi(rho, r_a, s_a, r_b, s_b).violation_bits
        gap = violation_gap(rho, r_b, s_b)
        worst_id = max(worst_id, abs((v_c - v_m) - gap))
        s_bits = von_neumann_entropy(partial_trace(rho, "B"))
        e_bits = entanglement_of_formation(rho)
        if gap > 2 * (1 - s_bits) + 1e-9 or s_bits < e_bits - 1e-9:
            chain_ok = False
    ok = worst_id < 1e-9 and chain_ok
    report("violation-gap identity to 1e-9 and marginal-entropy chain on 1k states",
           ok, f"max identity error {worst_id:.2e}")


def test_06_separable_audit():
    t0 = time.perf_counter()
    ppt_min, audit = separable_audit(10_000, 4, np.random.default_rng(SEED + 2))
    ppt_ok = ppt_min >= -1e-12
    worst = max(audit.values())
    dt = time.perf_counter() - t0
    ok = ppt_ok and worst <= 1e-9 and dt < 120.0
    report("10k PPT-verified separable states never violate any witness", ok,
           f"worst violation {worst:.2e}, {dt:.1f} s")


def test_07_single_party_uncertainty_floor():
    g = np.random.default_rng(SEED + 3)
    worst = np.inf
    for _ in range(10_000):
        d = int(g.integers(2, 6))
        rho = random_mixed_state(d, 1, int(g.integers(1, d + 1)), g)
        r, s = random_basis_pair(d, g)
        h_sum = (
            shannon_entropy(measurement_distribution(rho.mat, r))
            + shannon_entropy(measurement_distribution(rho.mat, s))
        )
        worst = min(worst, h_sum - np.log2(overlap_omega(r, s)))
    triple = pauli_bases()
    worst_mub = np.inf
    for _ in range(1000):
        rho = random_mixed_state(2, 1, int(g.integers(1, 3)), g)
        total = sum(
            shannon_entropy(measurement_distribution(rho.mat, b)) for b in triple
        )
        worst_mub = min(worst_mub, total - sanchez_ruiz_bound(2))
    ok = worst >= -1e-9 and worst_mub >= -1e-9
    report("single-party entropy sums respect both uncertainty floors", ok,
           f"worst pair slack {worst:.2e}, worst triple slack {worst_mub:.2e}")


def test_08_povm_bound_reduces_to_projective():
    g = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(1000):
        d = int(g.integers(2, 6))
        r, s = random_basis_pair(d, g)
        worst = max(worst, abs(povm_omega(as_povm(r), as_povm(s)) - overlap_omega(r, s)))
    ok = worst < 1e-10
    report("generalized overlap constant matches projective one on 1k pairs", ok,
           f"max |diff| {worst:.2e}")


def test_09_cv_closed_forms_and_flip_points():
    worst = max(
        abs(walborn_cv(tmsv(r)).violation_bits - np.log2(np.cosh(2 * r)))
        for r in (0.0, 0.5, 1.0, 2.0)
    )
    r_reid = threshold_bisect(
        lambda r: reid_sumdiff_cv(tmsv(r)).violation_bits, 0.1, 1.0, tol=1e-6
    )
    r_ent = threshold_bisect(
        lambda r: entropic_sumdiff_cv(tmsv(r)).violation_bits, 0.1, 1.0, tol=1e-6
    )
    ok = worst < 1e-9 and abs(r_reid - 0.3466) <= 1e-4 and abs(r_ent - 0.3466) <= 1e-4
    report("squeezed-state closed forms; both sum/diff flips at r = 0.3466", ok,
           f"r_reid={r_reid:.6f}, r_entropic={r_ent:.6f}")


def test_10_basis_search_convergence_and_one_way():
    t0 = time.perf_counter()
    diffs_small, diffs_large = [], []
    for seed in _derived_seeds(np.random.default_rng(SEED + 5), 200):
        rho = random_pure_state(2, 2, np.random.default_rng(seed)).to_density()
        small = optimize_bases(rho, 500, np.random.default_rng(seed + 1))
        large = optimize_bases(rho, 2000, np.random.default_rng(seed + 1))
        diffs_small.append(abs(small.best_v_AtoB - small.best_v_BtoA))
        diffs_large.append(abs(large.best_v_AtoB - large.best_v_BtoA))
    mean_small = float(np.mean(diffs_small))
    mean_large = float(np.mean(diffs_large))
    out = survey_fig2(300, "mixed", 500, np.random.default_rng(SEED + 6), threads=2)
    one_way = sum(
        1 for res, _ in out if (res.best_v_AtoB > 0) != (res.best_v_BtoA > 0)
    )
    dt = time.perf_counter() - t0
    ok = mean_small < 0.1 and mean_large < mean_small and one_way >= 1 and dt < 600.0
    report("pure-state direction gap small and shrinking; one-way candidates exist",
           ok,
           f"mean|diff| {mean_small:.4f} -> {mean_large:.4f}, "
           f"{one_way} one-way, {dt:.1f} s")


def test_11_cli_byte_reproducibility(tmp_path):
    args = ["fig1", "--n", "2000", "--seed", "5"]
    paths = [tmp_path / n for n in ("a.csv", "b.csv", "c.csv")]
    codes = [
        main([*args, "--threads", "1", "--out", str(paths[0])]),
        main([*args, "--threads", "1", "--out", str(paths[1])]),
        main([*args, "--threads", "4", "--out", str(paths[2])]),
    ]
    blobs = [p.read_bytes() for p in paths]
    ok = codes == [0, 0, 0] and blobs[0] == blobs[1] == blobs[2]
    report("survey CSV byte-identical across reruns and thread counts", ok,
           f"{len(blobs[0])} bytes")
