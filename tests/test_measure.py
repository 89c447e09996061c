from collections import Counter

import numpy as np
import pytest
from conftest import (
    loop_joint_probs,
    loop_povm_joint_probs,
    random_basis,
    random_density,
    random_povm,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from entrosteer import (
    DensityMatrix,
    JointDistribution,
    Povm,
    as_povm,
    is_mub_set,
    joint_distribution,
    measurement_distribution,
    mub_conditional,
    mub_mi,
    mub_set,
    overlap_omega,
    pair_conditional,
    pair_symmetric_mi,
    pauli_bases,
    povm_omega,
    random_pure_state,
    random_unitary,
    rotate_basis,
    sumdiff_discrete,
    werner_state,
)
from entrosteer import measure, witness
from entrosteer.measure import ProjectiveBasis

try:
    from numpy._core import einsumfunc
except ImportError:  # numpy < 2
    from numpy.core import einsumfunc

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class TestProjectiveBasis:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            ProjectiveBasis(2, np.array([[1.0, 0.0], [1.0, 1.0]]) / np.sqrt(2))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ProjectiveBasis(2, np.eye(3))

    def test_matrix_columns_are_kets(self, rng):
        b = random_basis(rng, 3)
        assert np.max(np.abs(b.matrix[:, 1] - b.vectors[1])) < 1e-15
        assert np.max(np.abs(b.matrix.conj().T @ b.matrix - np.eye(3))) < 1e-10


class TestPauliBases:
    def test_eigenvector_order(self):
        x, y, z = pauli_bases()
        for basis, op in ((x, SX), (y, SY), (z, SZ)):
            for sign, v in zip((1, -1), basis.vectors):
                assert np.max(np.abs(op @ v - sign * v)) < 1e-12

    def test_is_complete_mub_set(self):
        assert is_mub_set(pauli_bases())


class TestMubSet:
    def test_qubit_set_is_pauli(self):
        got = mub_set(2)
        want = pauli_bases()
        assert len(got) == 3
        for g, w in zip(got, want):
            assert np.max(np.abs(g.vectors - w.vectors)) < 1e-12

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_prime_dimension_complete_sets(self, d):
        bases = mub_set(d)
        assert len(bases) == d + 1
        assert is_mub_set(bases)

    @pytest.mark.parametrize("d", [1, 4, 6, 9])
    def test_rejects_non_prime(self, d):
        with pytest.raises(ValueError):
            mub_set(d)


class TestIsMubSet:
    def test_rejects_repeated_basis(self):
        x, _, _ = pauli_bases()
        assert not is_mub_set([x, x])

    def test_rejects_slightly_rotated(self):
        x, y, z = pauli_bases()
        theta = 0.05
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        assert not is_mub_set([x, y, rotate_basis(z, u)])

    def test_accepts_pair(self):
        x, _, z = pauli_bases()
        assert is_mub_set([x, z])


class TestRotateBasis:
    def test_preserves_mub_property(self, rng):
        u = random_unitary(2, rng)
        rotated = [rotate_basis(b, u) for b in pauli_bases()]
        assert is_mub_set(rotated)

    def test_rotation_acts_on_kets(self, rng):
        b = random_basis(rng, 3)
        u = random_unitary(3, rng)
        r = rotate_basis(b, u)
        assert np.max(np.abs(r.vectors[0] - u @ b.vectors[0])) < 1e-12


class TestPovm:
    def test_as_povm_projectors(self):
        x, _, _ = pauli_bases()
        p = as_povm(x)
        want = np.outer(x.vectors[0], x.vectors[0].conj())
        assert np.max(np.abs(p.elements[0] - want)) < 1e-14
        assert np.max(np.abs(sum(p.elements) - np.eye(2))) < 1e-10

    def test_rejects_elements_not_summing_to_identity(self):
        with pytest.raises(ValueError, match="identity"):
            Povm(2, (np.eye(2) * 0.5, np.eye(2) * 0.4))

    def test_rejects_non_psd_element(self):
        with pytest.raises(ValueError):
            Povm(2, (np.diag([1.2, 0.0]), np.diag([-0.2, 1.0])))


class TestJointDistribution:
    def test_clamps_dust(self):
        j = JointDistribution(2, 2, np.array([[0.6, -1e-13], [0.4, 1e-13]]))
        assert j.probs[0, 1] == 0.0

    def test_rejects_true_negative(self):
        with pytest.raises(ValueError):
            JointDistribution(2, 2, np.array([[0.6, -1e-9], [0.4, 1e-9]]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            JointDistribution(2, 2, np.full((2, 2), 0.3))


class TestJointDistributionComputation:
    def test_matches_loop_oracle(self, rng):
        for _ in range(10):
            rho = random_density(rng, 2, 3)
            a, b = random_basis(rng, 2), random_basis(rng, 3)
            got = joint_distribution(rho, a, b).probs
            want = loop_joint_probs(rho.mat, list(a.vectors), list(b.vectors))
            assert np.max(np.abs(got - want)) < 1e-12

    def test_povm_inputs_match_projective(self, rng):
        rho = random_density(rng, 2, 2)
        a, b = random_basis(rng, 2), random_basis(rng, 2)
        got = joint_distribution(rho, as_povm(a), as_povm(b)).probs
        want = joint_distribution(rho, a, b).probs
        assert np.max(np.abs(got - want)) < 1e-12

    def test_marginals_match_reduced_state(self, rng):
        from entrosteer import partial_trace

        rho = random_density(rng, 3, 2)
        a, b = random_basis(rng, 3), random_basis(rng, 2)
        j = joint_distribution(rho, a, b)
        pa = measurement_distribution(partial_trace(rho, "A"), a)
        pb = measurement_distribution(partial_trace(rho, "B"), b)
        assert np.max(np.abs(j.probs.sum(axis=1) - pa)) < 1e-12
        assert np.max(np.abs(j.probs.sum(axis=0) - pb)) < 1e-12

    @pytest.mark.parametrize("dims", [(3, 2), (5, 5)])
    def test_bases_match_loop_oracle_across_dims(self, rng, dims):
        d_a, d_b = dims
        for _ in range(5):
            rho = random_density(rng, d_a, d_b)
            a, b = random_basis(rng, d_a), random_basis(rng, d_b)
            got = joint_distribution(rho, a, b).probs
            want = loop_joint_probs(rho.mat, list(a.vectors), list(b.vectors))
            assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (5, 5)])
    def test_general_povms_match_kron_oracle(self, rng, dims):
        # outcome counts differ from the local dimensions on both sides
        d_a, d_b = dims
        f, g = random_povm(rng, d_a, d_a + 2), random_povm(rng, d_b, d_b - 1)
        rho = random_density(rng, d_a, d_b)
        got = joint_distribution(rho, f, g).probs
        assert got.shape == (d_a + 2, d_b - 1)
        want = loop_povm_joint_probs(rho.mat, f.elements, g.elements)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_smeared_and_trine_povms_on_rank_one_state(self, rng):
        eta = 0.2
        x, _, _ = pauli_bases()
        eye = np.eye(2, dtype=complex)
        smeared = Povm(2, tuple((1 - eta) * np.outer(v, v.conj()) + eta * eye / 2
                                for v in x.vectors))
        kets = [np.array([np.cos(t), np.sin(t)]) for t in 2 * np.pi * np.arange(3) / 3]
        trine = Povm(2, tuple(2 / 3 * np.outer(v, v) for v in kets))
        rho = random_pure_state(2, 2, rng).to_density()
        assert np.linalg.matrix_rank(rho.mat, tol=1e-10) == 1
        for f, g in ((smeared, trine), (trine, smeared), (trine, trine)):
            got = joint_distribution(rho, f, g).probs
            want = loop_povm_joint_probs(rho.mat, f.elements, g.elements)
            assert np.max(np.abs(got - want)) < 1e-12
        got = joint_distribution(rho, trine, x).probs
        want = loop_povm_joint_probs(rho.mat, trine.elements, as_povm(x).elements)
        assert np.max(np.abs(got - want)) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 4), st.integers(2, 4), st.integers(1, 5), st.integers(1, 5),
        st.integers(0, 2**32 - 1), st.randoms(use_true_random=False),
    )
    def test_relabelling_outcomes_permutes_joint_exactly(self, d_a, d_b, n_a, n_b, seed, rand):
        rng = np.random.default_rng(seed)
        f, g = random_povm(rng, d_a, n_a), random_povm(rng, d_b, n_b)
        rho = random_density(rng, d_a, d_b)
        perm_a = rand.sample(range(n_a), n_a)
        perm_b = rand.sample(range(n_b), n_b)
        f_perm = Povm(d_a, tuple(f.elements[i] for i in perm_a))
        g_perm = Povm(d_b, tuple(g.elements[j] for j in perm_b))
        p = joint_distribution(rho, f, g).probs
        assert np.array_equal(joint_distribution(rho, f_perm, g).probs, p[perm_a])
        assert np.array_equal(joint_distribution(rho, f, g_perm).probs, p[:, perm_b])

    def test_product_state_factorizes(self, rng):
        a_mat = random_density(rng, 2, 1).mat
        b_mat = random_density(rng, 2, 1).mat
        rho = DensityMatrix((2, 2), np.kron(a_mat, b_mat))
        ba, bb = random_basis(rng, 2), random_basis(rng, 2)
        j = joint_distribution(rho, ba, bb).probs
        want = np.outer(j.sum(axis=1), j.sum(axis=0))
        assert np.max(np.abs(j - want)) < 1e-12


class TestOneTimeWork:
    """Measurements are validated once, when built; the witness path then
    builds, validates and plans nothing per call."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for cls in (Povm, ProjectiveBasis):
            monkeypatch.setattr(cls, "__post_init__",
                                counting(cls.__name__, cls.__post_init__))
        path = counting("einsum_path", einsumfunc.einsum_path)
        monkeypatch.setattr(einsumfunc, "einsum_path", path)
        monkeypatch.setattr(np, "einsum_path", path)
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        kernel = counting("kernel", measure._joint_stack)
        monkeypatch.setattr(measure, "_joint_stack", kernel)
        monkeypatch.setattr(witness, "_joint_stack", kernel)
        return counts

    def test_counters_see_builds_and_path_searches(self, counts):
        x, _, _ = pauli_bases()
        as_povm(x)
        a = np.eye(2)
        np.einsum("ij,jk->ik", a, a, optimize=True)
        assert counts == {"ProjectiveBasis": 3, "Povm": 1, "einsum_path": 1}
        smeared = Povm(2, (np.diag([0.9, 0.1]), np.diag([0.1, 0.9])))
        povm_omega(smeared, smeared)
        joint_distribution(werner_state(0.5), x, smeared)
        assert counts == {"ProjectiveBasis": 3, "Povm": 2, "einsum_path": 1,
                          "eigh": 1, "kernel": 1}

    def test_basis_povm_is_built_lazily_and_cached(self, counts):
        bases = mub_set(3)
        assert counts["Povm"] == 0
        p = as_povm(bases[1])
        assert as_povm(bases[1]) is p
        assert counts["Povm"] == 1

    def test_repeated_witness_calls_do_no_one_time_work(self, counts):
        qubits = pauli_bases()
        x, _, z = qubits
        eye = np.eye(2, dtype=complex)
        fx, fz = (Povm(2, tuple(0.8 * np.outer(v, v.conj()) + 0.1 * eye for v in b.vectors))
                  for b in (x, z))
        kets = [np.array([np.cos(t), np.sin(t)]) for t in 2 * np.pi * np.arange(3) / 3]
        trine = Povm(2, tuple(2 / 3 * np.outer(v, v) for v in kets))
        qutrits = mub_set(3)
        rho2 = werner_state(0.8)
        rho3 = random_density(np.random.default_rng(3), 3, 3)
        rho_b = np.eye(2, dtype=complex) / 2

        def calls():
            mub_conditional(rho2, qubits, qubits)
            mub_conditional(rho3, qutrits, qutrits, direction="BtoA")
            mub_mi(rho3, qutrits, qutrits)
            pair_conditional(rho2, x, z, x, z)
            pair_conditional(rho2, fx, fz, fx, fz)
            pair_conditional(rho2, trine, fz, fx, trine, direction="BtoA")
            pair_symmetric_mi(rho2, x, z, x, z)
            sumdiff_discrete(rho2, x, z, x, z)
            sumdiff_discrete(rho2, trine, fz, trine, fz)
            measurement_distribution(rho_b, z)
            measurement_distribution(rho_b, fx)
            return 9   # witness calls

        calls()   # warm-up: promotes each basis and roots each POVM once
        counts.clear()
        witness_calls = sum(calls() for _ in range(50))
        # one stacked contraction per witness call, and no one-time work
        assert counts == {"kernel": witness_calls}

    def test_cached_arrays_are_read_only(self):
        x, _, _ = pauli_bases()
        smeared = Povm(2, (np.diag([0.9, 0.1]), np.diag([0.1, 0.9])))
        for povm in (as_povm(x), smeared):
            for arr in (povm.stacked, *povm.elements, povm.roots):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 0] = 0.5
            assert povm.stacked.shape == (2, 2, 2)
        with pytest.raises(ValueError):
            x.vectors[0, 0] = 0.0


class TestMeasurementDistribution:
    def test_eigenstate_gives_delta(self):
        x, _, _ = pauli_bases()
        rho = np.outer(x.vectors[0], x.vectors[0].conj())
        p = measurement_distribution(rho, x)
        assert np.max(np.abs(p - np.array([1.0, 0.0]))) < 1e-12


class TestOverlapOmega:
    def test_pauli_pairs(self):
        x, y, z = pauli_bases()
        assert abs(overlap_omega(x, z) - 2.0) < 1e-12
        assert abs(overlap_omega(x, y) - 2.0) < 1e-12
        assert abs(overlap_omega(x, x) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_mub_pair_reaches_dimension(self, d):
        bases = mub_set(d)
        assert abs(overlap_omega(bases[0], bases[1]) - d) < 1e-9

    def test_symmetric(self, rng):
        r, s = random_basis(rng, 4), random_basis(rng, 4)
        assert abs(overlap_omega(r, s) - overlap_omega(s, r)) < 1e-12

    def test_phase_invariant(self, rng):
        r, s = random_basis(rng, 3), random_basis(rng, 3)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
        s2 = ProjectiveBasis(3, s.vectors * phases[:, None])
        assert abs(overlap_omega(r, s) - overlap_omega(r, s2)) < 1e-12

    def test_common_rotation_invariant(self, rng):
        r, s = random_basis(rng, 3), random_basis(rng, 3)
        u = random_unitary(3, rng)
        assert (
            abs(overlap_omega(rotate_basis(r, u), rotate_basis(s, u)) - overlap_omega(r, s))
            < 1e-10
        )


class TestPovmOmega:
    def test_projective_reduction(self, rng):
        for d in (2, 3, 4):
            for _ in range(20):
                r, s = random_basis(rng, d), random_basis(rng, d)
                assert abs(povm_omega(as_povm(r), as_povm(s)) - overlap_omega(r, s)) < 1e-10

    def test_rejects_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            povm_omega(as_povm(random_basis(rng, 2)), as_povm(random_basis(rng, 3)))

    def test_smeared_bound_holds_on_single_system(self):
        # entropy-sum floor from the POVM constant must hold for every state;
        # scan the Bloch sphere as an independent check
        eta = 0.2
        x, _, z = pauli_bases()
        eye = np.eye(2, dtype=complex)
        fx = Povm(2, tuple((1 - eta) * np.outer(v, v.conj()) + eta * eye / 2 for v in x.vectors))
        fz = Povm(2, tuple((1 - eta) * np.outer(v, v.conj()) + eta * eye / 2 for v in z.vectors))
        bound = np.log2(povm_omega(fx, fz))
        worst = np.inf
        for theta in np.linspace(0, np.pi, 60):
            for phi in np.linspace(0, 2 * np.pi, 30):
                v = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
                rho = np.outer(v, v.conj())
                h = 0.0
                for p in (fx, fz):
                    probs = np.array([np.trace(e @ rho).real for e in p.elements])
                    probs = np.clip(probs, 0, 1)
                    h += -np.sum(probs[probs > 0] * np.log2(probs[probs > 0]))
                worst = min(worst, h - bound)
        assert worst > -1e-9
