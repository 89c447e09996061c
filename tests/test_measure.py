import functools
import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
from conftest import (
    loop_joint_probs,
    loop_povm_joint_probs,
    loop_violation,
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

# (witness, direction) of the interleaving test; None for a symmetric witness
_MENU = (("pair_conditional", "AtoB"), ("pair_conditional", "BtoA"),
         ("pair_symmetric_mi", None), ("sumdiff_discrete", None),
         ("mub_conditional", "AtoB"), ("mub_conditional", "BtoA"), ("mub_mi", None))


@functools.cache
def _interleaving_inputs():
    """Three two-qutrit states from fixed seeds and the qutrit MUB set, built
    once, so that each example starts from the slots the last one left."""
    rhos = tuple(random_density(np.random.default_rng(seed), 3, 3) for seed in (5, 6, 7))
    return rhos, mub_set(3)


def _menu_measurements(name, bases):
    r, s = bases[0], bases[-1]
    return (bases, bases) if name.startswith("mub") else (r, s, r, s)


def _menu_call(k, rho, bases):
    name, direction = _MENU[k]
    kwargs = {} if direction is None else {"direction": direction}
    return getattr(witness, name)(rho, *_menu_measurements(name, bases), **kwargs)


# run in a new interpreter: every report of the menu on every state, each
# computed after emptying the set caches, so nothing is reused
_FRESH_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:]
from entrosteer import measure, witness
from test_measure import _MENU, _interleaving_inputs, _menu_call
rhos, bases = _interleaving_inputs()
out = []
for rho in rhos:
    for k in range(len(_MENU)):
        for cache in (measure._set_record, witness._omega, witness._mub_floor):
            cache.cache_clear()
        rep = _menu_call(k, rho, bases)
        out.append([rep.lhs_bits.hex(), rep.bound_bits.hex(), rep.violation_bits.hex()])
print(json.dumps(out))
"""


@functools.cache
def _fresh_process_reports():
    package_root = os.path.dirname(os.path.dirname(measure.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_SCRIPT, os.path.dirname(__file__), package_root],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


@functools.cache
def _menu_oracle(k, i):
    name, direction = _MENU[k]
    rhos, bases = _interleaving_inputs()
    return loop_violation(name, rhos[i], *_menu_measurements(name, bases),
                          direction=direction or "AtoB")


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


def _qubit_measurement(kind: str, value: float):
    """Build a qubit basis, POVM or rotated basis with `value` in one entry of
    its vectors, elements or rotation matrix."""
    m = np.eye(2, dtype=complex) / (2.0 if kind == "POVM element" else 1.0)
    m[0, 0] = value
    if kind == "basis vector":
        return ProjectiveBasis(2, m)
    if kind == "POVM element":
        return Povm(2, (m, np.eye(2) / 2))
    return rotate_basis(pauli_bases()[2], m)


class TestUnboundedEntries:
    @pytest.mark.parametrize("kind", ["basis vector", "POVM element", "rotation matrix"])
    @pytest.mark.parametrize("value,message", [
        (np.nan, "contains non-finite entries"),
        (np.inf, "contains non-finite entries"),
        (-np.inf, "contains non-finite entries"),
        (1e308, "has an entry of size above 2"),
    ], ids=["nan", "inf", "-inf", "1e308"])
    def test_refused_when_built(self, kind, value, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                _qubit_measurement(kind, value)

    @pytest.mark.parametrize("build", [
        lambda: ProjectiveBasis(0, np.zeros((0, 0))),
        lambda: Povm(0, (np.zeros((0, 0)),)),
    ], ids=["basis", "povm"])
    def test_dimension_zero_is_refused(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^empty (basis|POVM element)$"):
                build()

    @pytest.mark.parametrize("build", [
        lambda: ProjectiveBasis(2.0, np.eye(2)),
        lambda: ProjectiveBasis(True, np.eye(1)),
        lambda: Povm(2.0, (np.eye(2),)),
        lambda: JointDistribution(2.0, 2, np.eye(2) / 2),
        lambda: mub_set(3.0),
    ], ids=["basis-float", "basis-bool", "povm-float", "joint-float", "mub-set-float"])
    def test_a_dimension_that_is_no_integer_is_refused(self, build):
        # each of these built, with its dimension truncated to an int
        with pytest.raises(TypeError, match=r"^(dimension|n_a) must be an integer, got "):
            build()


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

    @pytest.mark.parametrize("d", [3, 5, 7, 11])
    def test_prime_dimension_complete_sets(self, d):
        bases = mub_set(d)
        assert len(bases) == d + 1
        assert is_mub_set(bases)

    @pytest.mark.parametrize("d", [1, 4, 6, 9, 25])
    def test_rejects_non_prime(self, d):
        with pytest.raises(ValueError):
            mub_set(d)

    @pytest.mark.parametrize("d", [2**61 - 1, 2**127 - 1, np.int64(2**61 - 1)])
    def test_refuses_a_prime_too_large_to_address_at_once(self, d):
        # Mersenne primes: trial division up to sqrt(d) would take minutes or never end.
        # The numpy integer must not overflow the byte bound.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="would take more than sys.maxsize bytes"):
            mub_set(d)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("d, digest", [(2, "c1e60fb74abea396"), (3, "f271987938e73e23"),
                                           (7, "4a087d2e33ae5c99")])
    def test_small_sets_keep_their_bytes(self, d, digest):
        data = b"".join(b.vectors.tobytes() for b in mub_set(d))
        assert hashlib.sha256(data).hexdigest()[:16] == digest


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

    def test_rejects_empty_and_mixed_dimensions(self):
        x, _, _ = pauli_bases()
        assert not is_mub_set([])
        assert not is_mub_set([x, mub_set(3)[0]])


class TestMeasurementTypes:
    """The public measurement helpers refuse a value of another type with
    TypeError; `povm_omega` takes projective bases as their POVMs."""

    @pytest.mark.parametrize("call", [
        lambda x, z: overlap_omega(x, z.povm),
        lambda x, z: overlap_omega("junk", z),
        lambda x, z: povm_omega(x, "junk"),
        lambda x, z: is_mub_set([x, "junk"]),
        lambda x, z: is_mub_set(np.eye(2)),
        lambda x, z: rotate_basis("junk", np.eye(2)),
        lambda x, z: rotate_basis(z.povm, np.eye(2)),
    ], ids=["overlap-povm", "overlap-str", "povm-str", "mub-set-str", "mub-set-array",
            "rotate-str", "rotate-povm"])
    def test_other_types_raise_type_error(self, call):
        x, _, z = pauli_bases()
        with pytest.raises(TypeError, match=r"(takes a ProjectiveBasis|expected ProjectiveBasis "
                                            r"or Povm), got "):
            call(x, z)

    def test_povm_omega_promotes_bases(self):
        x, _, z = pauli_bases()
        assert povm_omega(x, z) == povm_omega(x.povm, as_povm(z))


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

    def test_rejects_no_elements(self):
        with pytest.raises(ValueError, match="at least one element"):
            Povm(2, ())


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
        monkeypatch.setattr(measure, "_joint_entropies",
                            counting("entropies", measure._joint_entropies))
        monkeypatch.setattr(measure, "_element_stack",
                            counting("element_stack", measure._element_stack))
        for name in ("is_mub_set", "overlap_omega", "povm_omega"):
            monkeypatch.setattr(witness, name, counting(name, getattr(witness, name)))
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
                          "eigh": 1, "kernel": 1, "element_stack": 2}

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

        calls()   # warm-up: promotes each basis, roots each POVM, derives each set once
        assert {"element_stack", "is_mub_set", "overlap_omega", "povm_omega"} <= set(counts)
        counts.clear()
        for _ in range(50):
            calls()
        # each set still holds the statistics of the state it saw last, which
        # is the same state again: no contraction, and no one-time work (no
        # element stack, overlap constant or MUB check is derived again)
        assert counts == {}

    def test_a_round_over_fresh_states_contracts_once_per_state_and_set(self, counts):
        # the single-state benchmark's traffic: 8 calls on 3 sets per state
        qubits = pauli_bases()
        x, _, z = qubits
        eye = np.eye(2, dtype=complex)
        fx, fz = (Povm(2, tuple(0.8 * np.outer(v, v.conj()) + 0.1 * eye for v in b.vectors))
                  for b in (x, z))
        rhos = [random_density(np.random.default_rng(seed), 2, 2) for seed in range(6)]

        def round_():
            for rho in rhos:
                pair_conditional(rho, x, z, x, z)
                pair_conditional(rho, x, z, x, z, direction="BtoA")
                pair_symmetric_mi(rho, x, z, x, z)
                sumdiff_discrete(rho, x, z, x, z)
                mub_conditional(rho, qubits, qubits)
                mub_conditional(rho, qubits, qubits, direction="BtoA")
                mub_mi(rho, qubits, qubits)
                pair_conditional(rho, fx, fz, fx, fz)

        round_()
        assert counts["kernel"] == 3 * len(rhos)
        # only the last state of each set is kept, so a second round over
        # the same states reuses nothing from the first
        round_()
        assert counts["kernel"] == 6 * len(rhos)

    @pytest.mark.parametrize("first", ["sumdiff_discrete", "pair_conditional",
                                       "pair_symmetric_mi"])
    def test_one_contraction_and_one_entropy_pass_per_state_and_set(self, counts, first):
        # whichever witness meets a (state, set) first fills the slot with the
        # joints and their entropies; the others, and repeats, read it
        x, _, z = pauli_bases()
        rho = random_density(np.random.default_rng(4), 2, 2)
        witnesses = {"sumdiff_discrete": sumdiff_discrete, "pair_conditional": pair_conditional,
                     "pair_symmetric_mi": pair_symmetric_mi}
        reports = {first: witnesses[first](rho, x, z, x, z)}
        assert (counts["kernel"], counts["entropies"]) == (1, 1)
        for name, witness_fn in witnesses.items():
            reports.setdefault(name, witness_fn(rho, x, z, x, z))
            assert witness_fn(rho, x, z, x, z) == reports[name]
        assert (counts["kernel"], counts["entropies"]) == (1, 1)

    def test_returning_to_an_earlier_state_recomputes_it(self, counts):
        x, _, z = pauli_bases()
        a, b = werner_state(0.8), random_density(np.random.default_rng(1), 2, 2)
        first = pair_conditional(a, x, z, x, z)
        other = pair_conditional(b, x, z, x, z)
        again = pair_conditional(a, x, z, x, z)
        assert counts["kernel"] == 3
        assert again == first and other != first

    def test_the_kept_state_is_not_kept_alive(self, counts):
        x, _, z = pauli_bases()
        rho = random_density(np.random.default_rng(2), 2, 2)
        before = pair_conditional(rho, x, z, x, z)
        released = weakref.ref(rho)
        del rho
        gc.collect()
        assert released() is None
        # a new state, wherever it is allocated, is contracted afresh
        rho = random_density(np.random.default_rng(2), 2, 2)
        assert pair_conditional(rho, x, z, x, z) == before
        assert counts["kernel"] == 2

    def test_dims_mismatch_raises_on_every_call_and_stores_nothing(self, counts):
        x, _, z = pauli_bases()
        qutrit = random_density(np.random.default_rng(3), 3, 3)
        message = r"dims \(2, 2\) do not match state dims \(3, 3\)"
        for k in range(1, 4):
            for call in (lambda: pair_conditional(qutrit, x, z, x, z),
                         lambda: pair_symmetric_mi(qutrit, x, z, x, z),
                         lambda: sumdiff_discrete(qutrit, x, z, x, z)):
                with pytest.raises(ValueError, match=message):
                    call()
            assert counts["kernel"] == 3 * k
            assert measure._set_record(((x, x), (z, z))).last is None
        # the set still serves a state that fits
        pair_conditional(werner_state(0.8), x, z, x, z)
        assert measure._set_record(((x, x), (z, z))).last is not None

    def test_threads_alternating_two_states_on_one_set_agree_with_serial(self):
        rng = np.random.default_rng(12)
        rhos = [random_density(rng, 3, 3) for _ in range(2)]
        bases = mub_set(3)
        r, s = bases[0], bases[-1]

        def reports(rho):
            return (mub_conditional(rho, bases, bases), mub_mi(rho, bases, bases),
                    mub_conditional(rho, bases, bases, direction="BtoA"),
                    pair_conditional(rho, r, s, r, s), sumdiff_discrete(rho, r, s, r, s))

        serial = [reports(rho) for rho in rhos]
        results = [None] * 4

        def run(k):
            results[k] = [reports(rhos[(k + i) % 2]) for i in range(100)]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for k, got in enumerate(results):
            assert got == [serial[(k + i) % 2] for i in range(100)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, len(_MENU) - 1), st.integers(0, 2)),
                    min_size=1, max_size=40))
    def test_interleaved_calls_match_a_fresh_process_and_the_oracles(self, order):
        rhos, bases = _interleaving_inputs()
        fresh = _fresh_process_reports()
        for k, i in order:
            rep = _menu_call(k, rhos[i], bases)
            bits = [rep.lhs_bits.hex(), rep.bound_bits.hex(), rep.violation_bits.hex()]
            assert bits == fresh[i * len(_MENU) + k], (_MENU[k], i)
            assert abs(rep.violation_bits - _menu_oracle(k, i)) <= 1e-12, (_MENU[k], i)

    def test_non_mub_set_raises_on_every_call(self):
        x, y, z = pauli_bases()
        broken = [x, y, rotate_basis(z, random_unitary(2, np.random.default_rng(2)))]
        for _ in range(3):
            with pytest.raises(ValueError, match="not mutually unbiased"):
                mub_conditional(werner_state(0.5), broken, broken)
            with pytest.raises(ValueError, match="not mutually unbiased"):
                mub_mi(werner_state(0.5), broken, broken)

    def test_equal_sets_built_twice_give_identical_reports(self):
        rho = random_density(np.random.default_rng(4), 3, 3)

        def reports(bases):
            r, s = bases[0], bases[-1]
            smeared = Povm(3, tuple(0.9 * e + 0.1 * np.eye(3) / 3 for e in as_povm(r).elements))
            return [mub_conditional(rho, bases, bases), mub_mi(rho, bases, bases),
                    mub_conditional(rho, bases, bases, direction="BtoA"),
                    pair_conditional(rho, r, s, r, s), pair_symmetric_mi(rho, r, s, r, s),
                    sumdiff_discrete(rho, r, s, r, s),
                    pair_conditional(rho, smeared, s, smeared, s, direction="BtoA")]

        # a second mub_set(3) is new objects with equal values: new cache
        # entries, and float fields equal with ==, so bit for bit
        assert reports(mub_set(3)) == reports(mub_set(3))

    def test_caches_stay_at_their_bound_and_release_old_sets(self):
        rng = np.random.default_rng(6)
        x, _, z = pauli_bases()
        rho = werner_state(0.7)
        first = rotate_basis(x, random_unitary(2, rng))
        released = weakref.ref(first)
        pair_conditional(rho, first, z, first, z)
        del first
        for _ in range(1000):
            u = random_unitary(2, rng)
            r, s = rotate_basis(x, u), rotate_basis(z, u)
            pair_conditional(rho, r, s, r, s)
        assert measure._set_record.cache_info().currsize == measure.SET_CACHE_SIZE
        gc.collect()
        assert released() is None

    def test_bound_caches_stay_at_their_bound_and_release_old_sets(self):
        # the per-pair overlap constants and the per-set MUB floors are kept
        # as the set records are: at most SET_CACHE_SIZE of each
        rng = np.random.default_rng(7)
        qubits = pauli_bases()
        rho = werner_state(0.7)
        u = random_unitary(2, rng)
        first = [rotate_basis(b, u) for b in qubits]
        released = weakref.ref(first[0])
        mub_conditional(rho, qubits, first)
        pair_conditional(rho, *first[::2], *first[::2], direction="BtoA")
        del first
        for _ in range(3 * measure.SET_CACHE_SIZE):
            u = random_unitary(2, rng)
            rotated = [rotate_basis(b, u) for b in qubits]
            mub_conditional(rho, qubits, rotated)
            pair_conditional(rho, *rotated[::2], *rotated[::2], direction="BtoA")
            for cache in (witness._omega, witness._mub_floor):
                assert cache.cache_info().currsize <= measure.SET_CACHE_SIZE
        assert witness._omega.cache_info().currsize == measure.SET_CACHE_SIZE
        assert witness._mub_floor.cache_info().currsize == measure.SET_CACHE_SIZE
        gc.collect()
        assert released() is None

    def test_sets_that_share_a_pair_work_out_its_overlap_constant_once(self, counts):
        # the bound's constant belongs to the steered party's pair, not to the
        # set: a second set with Bob's pair and other bases for Alice reuses it
        x, y, z = pauli_bases()
        eye = np.eye(2, dtype=complex)
        fx, fz = (Povm(2, tuple(0.8 * np.outer(v, v.conj()) + 0.1 * eye for v in b.vectors))
                  for b in (x, z))
        rho = werner_state(0.8)
        first = pair_conditional(rho, x, z, x, z)
        second = pair_conditional(rho, y, x, x, z)
        assert counts["overlap_omega"] == 1 and first.bound_bits == second.bound_bits
        smeared = pair_conditional(rho, x, z, fx, fz)
        assert pair_conditional(rho, y, fz, fx, fz) == pair_conditional(rho, y, fz, fx, fz)
        assert counts["povm_omega"] == 1 and smeared.bound_bits > first.bound_bits
        # and a symmetric witness on the sets reuses both parties' constants
        sumdiff_discrete(rho, y, x, x, z)
        pair_symmetric_mi(rho, y, x, x, z)
        assert counts["overlap_omega"] == 2   # Alice's (y, x) pair, once

    @pytest.mark.parametrize("name", ["pair_conditional", "pair_symmetric_mi",
                                      "sumdiff_discrete", "mub_conditional", "mub_mi"])
    def test_a_warm_call_checks_no_measurement_type(self, monkeypatch, name):
        # types are checked when a set's record (or a steered set's floor) is
        # built; a warm call finds the set and its bound by hash alone. Only
        # pair_symmetric_mi keeps a per-call check: its bound holds for
        # projective bases only, and a POVM pair is a valid key of the caches
        # it shares with pair_conditional
        qubits = pauli_bases()
        x, _, z = qubits
        rho = werner_state(0.8)
        call = {"pair_conditional": lambda: pair_conditional(rho, x, z, x, z, direction="BtoA"),
                "pair_symmetric_mi": lambda: pair_symmetric_mi(rho, x, z, x, z),
                "sumdiff_discrete": lambda: sumdiff_discrete(rho, x, z, x, z),
                "mub_conditional": lambda: mub_conditional(rho, qubits, qubits),
                "mub_mi": lambda: mub_mi(rho, qubits, qubits)}[name]
        first = call()
        checked = Counter()

        def counting(module):
            def isinstance_(value, cls):
                checked[module] += 1
                return isinstance(value, cls)
            return isinstance_

        for module in (measure, witness):
            monkeypatch.setattr(module, "isinstance", counting(module.__name__), raising=False)
        monkeypatch.setattr(measure, "as_povm", lambda meas: pytest.fail("as_povm was called"))
        assert call() == first
        want = {"entrosteer.witness": 4} if name == "pair_symmetric_mi" else {}
        assert checked == want

    def test_threads_on_one_new_set_agree(self):
        # more threads than cores, switching often, all missing the caches of
        # a fresh set at once: every thread gets the same values
        rng = np.random.default_rng(8)
        rhos = [random_density(rng, 3, 3) for _ in range(40)]
        bases = mub_set(3)
        results = [None] * 4

        def run(k):
            results[k] = [(mub_conditional(rho, bases, bases), mub_mi(rho, bases, bases),
                           pair_conditional(rho, bases[0], bases[1], bases[0], bases[1]))
                          for rho in rhos]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results[0] is not None and all(r == results[0] for r in results)

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
        # the cached element stacks are shared by every later call on the set
        rec = measure._set_record(((x, smeared),))
        assert not rec.f_stack.flags.writeable and not rec.g_stack.flags.writeable


class TestMeasurementDistribution:
    def test_eigenstate_gives_delta(self):
        x, _, _ = pauli_bases()
        rho = np.outer(x.vectors[0], x.vectors[0].conj())
        p = measurement_distribution(rho, x)
        assert np.max(np.abs(p - np.array([1.0, 0.0]))) < 1e-12

    @pytest.mark.parametrize(
        "mat,message",
        [
            (2 * np.eye(2), "probabilities sum to .*, not 1 within"),
            (np.array([[0.5, 0.5j], [0.5j, 0.5]]), "non-negligible imaginary part"),
        ],
        ids=["trace-2", "non-hermitian"],
    )
    def test_rejects_what_joint_distribution_rejects(self, mat, message):
        x, _, _ = pauli_bases()
        with pytest.raises(ValueError, match=message):
            measurement_distribution(mat, x)


class TestOverlapOmega:
    def test_pauli_pairs(self):
        x, y, z = pauli_bases()
        assert abs(overlap_omega(x, z) - 2.0) < 1e-12
        assert abs(overlap_omega(x, y) - 2.0) < 1e-12
        assert abs(overlap_omega(x, x) - 1.0) < 1e-12

    def test_rejects_dim_mismatch(self):
        x, _, _ = pauli_bases()
        with pytest.raises(ValueError, match="share a dimension"):
            overlap_omega(x, mub_set(3)[0])

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_mub_pair_reaches_dimension(self, d):
        bases = mub_set(d)
        assert abs(overlap_omega(bases[0], bases[1]) - d) < 1e-9

    def test_clipped_to_its_documented_range(self):
        # rounded overlaps gave 2.0000000000000004 for X/Z and 7 + 1.8e-15
        # for a d = 7 MUB pair, outside [1, dim]
        x, _, z = pauli_bases()
        assert overlap_omega(x, z) == 2.0
        bases = mub_set(7)
        assert overlap_omega(bases[0], bases[1]) == 7.0

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
