import numpy as np
import pytest
from conftest import random_basis, random_density

from entrosteer import (
    DensityMatrix,
    WitnessReport,
    as_povm,
    basis_sweep,
    entanglement_of_formation,
    entropic_sumdiff_cv,
    joint_distribution,
    mub_conditional,
    mub_mi,
    mub_set,
    optimize_bases,
    pair_conditional,
    pair_symmetric_mi,
    partial_trace,
    partial_transpose,
    pauli_bases,
    random_unitary,
    reid_sumdiff_cv,
    rotate_basis,
    sanchez_ruiz_bound,
    singlet_state,
    sumdiff_discrete,
    symplectic_eigenvalues,
    tmsv,
    violation_gap,
    von_neumann_entropy,
    walborn_cv,
    werner_state,
)
from entrosteer import measure


def binary_entropy(q):
    if q in (0.0, 1.0):
        return 0.0
    return -q * np.log2(q) - (1 - q) * np.log2(1 - q)


@pytest.fixture
def xz():
    x, _, z = pauli_bases()
    return x, z


@pytest.fixture
def triple():
    return pauli_bases()


class TestWitnessReport:
    """A report is an immutable record of five named fields, compared and
    hashed by value; `eval` writes its `_asdict()`."""

    def test_fields_repr_equality_hashing_and_immutability(self):
        x, _, z = pauli_bases()
        rep = pair_conditional(werner_state(0.9), x, z, x, z)
        assert WitnessReport._fields == (
            "name", "direction", "lhs_bits", "bound_bits", "violation_bits")
        assert repr(rep) == (
            f"WitnessReport(name='pair_conditional', direction='AtoB', "
            f"lhs_bits={rep.lhs_bits!r}, bound_bits=1.0, violation_bits={rep.violation_bits!r})")
        again = pair_conditional(werner_state(0.9), x, z, x, z)
        assert again == rep and hash(again) == hash(rep) and len({rep, again}) == 1
        assert rep != pair_conditional(werner_state(0.9), x, z, x, z, direction="BtoA")
        with pytest.raises(AttributeError):
            rep.lhs_bits = 0.0
        assert rep._asdict() == {"name": "pair_conditional", "direction": "AtoB",
                                 "lhs_bits": rep.lhs_bits, "bound_bits": 1.0,
                                 "violation_bits": rep.violation_bits}
        assert all(type(v) is float for v in rep[2:])


class TestSanchezRuizBound:
    def test_known_values(self):
        assert sanchez_ruiz_bound(2) == 2.0
        assert sanchez_ruiz_bound(3) == 4.0
        assert abs(sanchez_ruiz_bound(4) - (2.0 + 3.0 * np.log2(3.0))) < 1e-12
        assert abs(sanchez_ruiz_bound(5) - 6.0 * np.log2(3.0)) < 1e-12

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            sanchez_ruiz_bound(1)

    @pytest.mark.parametrize("n", [3.5, 3.0, True, np.float64(4.0)], ids=repr)
    def test_rejects_a_dimension_that_is_no_integer(self, n):
        # the bound exists only for the integer dimension of a complete MUB set
        with pytest.raises(TypeError, match="^dimension must be an integer, got "):
            sanchez_ruiz_bound(n)

    def test_numpy_integer_dimension_gives_the_int_value(self):
        assert sanchez_ruiz_bound(np.int64(3)) == sanchez_ruiz_bound(3) == 4.0


class TestPairConditional:
    def test_singlet_full_violation(self, xz):
        x, z = xz
        rep = pair_conditional(singlet_state().to_density(), x, z, x, z)
        assert abs(rep.violation_bits - 1.0) < 1e-9
        assert abs(rep.lhs_bits) < 1e-9
        assert rep.name == "pair_conditional"
        assert rep.direction == "AtoB"

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.65, 0.78, 0.9, 1.0])
    def test_werner_closed_form(self, xz, p):
        x, z = xz
        rep = pair_conditional(werner_state(p), x, z, x, z)
        assert abs(rep.lhs_bits - 2.0 * binary_entropy((1 + p) / 2)) < 1e-9

    def test_directions_match_for_werner(self, xz):
        x, z = xz
        rho = werner_state(0.83)
        ab = pair_conditional(rho, x, z, x, z, direction="AtoB")
        ba = pair_conditional(rho, x, z, x, z, direction="BtoA")
        assert abs(ab.violation_bits - ba.violation_bits) < 1e-12

    def test_report_identity(self, rng):
        rho = random_density(rng)
        r, s = random_basis(rng, 2), random_basis(rng, 2)
        rep = pair_conditional(rho, r, s, r, s)
        assert abs(rep.violation_bits - (rep.bound_bits - rep.lhs_bits)) < 1e-15

    def test_povm_measurements_accepted(self, xz):
        x, z = xz
        rho = werner_state(0.9)
        rep = pair_conditional(rho, as_povm(x), as_povm(z), as_povm(x), as_povm(z))
        want = pair_conditional(rho, x, z, x, z)
        assert abs(rep.violation_bits - want.violation_bits) < 1e-9

    def test_rejects_bad_direction(self, xz):
        x, z = xz
        with pytest.raises(ValueError):
            pair_conditional(werner_state(0.5), x, z, x, z, direction="sideways")


class TestPairSymmetricMi:
    def test_singlet(self, xz):
        x, z = xz
        rep = pair_symmetric_mi(singlet_state().to_density(), x, z, x, z)
        assert abs(rep.lhs_bits - 2.0) < 1e-9
        assert abs(rep.bound_bits - 1.0) < 1e-12
        assert abs(rep.violation_bits - 1.0) < 1e-9

    @pytest.mark.parametrize("p", [0.2, 0.6, 0.9])
    def test_werner_equals_conditional_violation(self, xz, p):
        # uniform marginals make the symmetric and conditional pair
        # violations coincide exactly
        x, z = xz
        rho = werner_state(p)
        v_mi = pair_symmetric_mi(rho, x, z, x, z).violation_bits
        v_c = pair_conditional(rho, x, z, x, z).violation_bits
        assert abs(v_mi - v_c) < 1e-9

    def test_bound_uses_smaller_omega(self, xz):
        x, z = xz
        theta = 2.0 * np.arccos(np.sqrt(2.0 / 3.0))   # A-side overlap^2 = 2/3
        u = np.array(
            [[np.cos(theta / 2), -np.sin(theta / 2)], [np.sin(theta / 2), np.cos(theta / 2)]],
            dtype=complex,
        )
        s_a = rotate_basis(z, u)
        rep = pair_symmetric_mi(werner_state(0.5), z, s_a, x, z)
        assert abs(rep.bound_bits - np.log2(4.0 / 1.5)) < 1e-9

    def test_rejects_povm(self, xz):
        x, z = xz
        with pytest.raises(TypeError):
            pair_symmetric_mi(werner_state(0.5), as_povm(x), z, x, z)

    def test_rejects_rectangular(self, rng, xz):
        x, z = xz
        rho = random_density(rng, 2, 3)
        with pytest.raises(ValueError):
            pair_symmetric_mi(rho, x, z, random_basis(rng, 3), random_basis(rng, 3))


class TestMubConditional:
    def test_werner_08_value(self, triple):
        rep = mub_conditional(werner_state(0.8), triple, triple)
        assert abs(rep.violation_bits - 0.5930132192321567) < 1e-9

    @pytest.mark.parametrize("p", [0.0, 0.4, 0.7, 1.0])
    def test_werner_closed_form(self, triple, p):
        rep = mub_conditional(werner_state(p), triple, triple)
        assert abs(rep.lhs_bits - 3.0 * binary_entropy((1 + p) / 2)) < 1e-9

    def test_maximally_mixed(self, triple):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        rep = mub_conditional(rho, triple, triple)
        assert abs(rep.violation_bits + 1.0) < 1e-12

    def test_qutrit_isotropic_soundness(self):
        bases = mub_set(3)
        rho = DensityMatrix((3, 3), np.eye(9) / 9)
        rep = mub_conditional(rho, bases, bases)
        assert abs(rep.lhs_bits - 4.0 * np.log2(3.0)) < 1e-9
        assert rep.violation_bits < 0

    def test_rotated_steering_side_keeps_bound_valid(self, rng, triple):
        u = random_unitary(2, rng)
        rotated = [rotate_basis(b, u) for b in triple]
        rep = mub_conditional(werner_state(0.9), rotated, triple)
        want = sanchez_ruiz_bound(2)
        assert rep.bound_bits == want

    def test_rejects_incomplete_steered_set(self, triple):
        with pytest.raises(ValueError, match="complete"):
            mub_conditional(werner_state(0.5), triple[:2], triple[:2])

    def test_rejects_non_mub_steered_set(self, triple):
        x, y, z = triple
        theta = 0.2
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        broken = [x, y, rotate_basis(z, u)]
        with pytest.raises(ValueError, match="unbiased"):
            mub_conditional(werner_state(0.5), broken, broken)

    def test_rejects_steered_basis_of_another_dimension(self, triple):
        x, y, _ = triple
        with pytest.raises(ValueError, match=r"steered-side \(B\) bases must all have dimension 2"):
            mub_conditional(werner_state(0.5), triple, [x, y, mub_set(3)[0]])

    @pytest.mark.parametrize("witness", [mub_conditional, mub_mi])
    def test_steered_checks_come_first_whatever_the_set_record_holds(self, rng, triple, witness):
        # the set record keeps a side's MUB floor once its check passes; the
        # steered side's errors still come before the other side's, and a
        # kept floor does not serve a state of another dimension
        x, y, z = triple
        broken = [x, y, rotate_basis(z, random_unitary(2, rng))]
        with pytest.raises(ValueError, match=r"^steered-side \(B\) needs a complete set of 3"):
            witness(werner_state(0.5), [], [])
        for other in ([x, y, np.eye(2)], [x, y, "junk"]):
            with pytest.raises(ValueError, match="not mutually unbiased"):
                witness(werner_state(0.5), other, broken)
            with pytest.raises(TypeError, match="expected ProjectiveBasis or Povm"):
                witness(werner_state(0.5), other, triple)
        witness(werner_state(0.5), triple, triple)
        qutrits = DensityMatrix((3, 3), np.eye(9) / 9)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"needs a complete set of 4 bases, got 3"):
                witness(qutrits, triple, triple)

    def test_direction_validates_correct_side(self, rng, triple):
        # BtoA steers A, so only the A-side set must be a complete MUB set
        u = random_unitary(2, rng)
        rotated = [rotate_basis(b, u) for b in triple]
        rep = mub_conditional(werner_state(0.7), triple, rotated, direction="BtoA")
        assert rep.direction == "BtoA"


class TestMubMi:
    def test_qubit_bound_is_exactly_one(self, triple):
        rep = mub_mi(werner_state(0.3), triple, triple)
        assert rep.bound_bits == 1.0

    def test_singlet(self, triple):
        rep = mub_mi(singlet_state().to_density(), triple, triple)
        assert abs(rep.lhs_bits - 3.0) < 1e-10
        assert abs(rep.violation_bits - 2.0) < 1e-10

    def test_never_exceeds_conditional(self, rng, triple):
        for _ in range(50):
            rho = random_density(rng)
            v_m = mub_mi(rho, triple, triple).violation_bits
            v_c = mub_conditional(rho, triple, triple).violation_bits
            assert v_m <= v_c + 1e-9


class TestSumdiffDiscrete:
    def test_singlet(self, xz):
        x, z = xz
        rep = sumdiff_discrete(singlet_state().to_density(), x, z, x, z)
        assert abs(rep.violation_bits - 1.0) < 1e-9
        assert rep.direction == "symmetric"

    @pytest.mark.parametrize("p", [0.3, 0.8, 1.0])
    def test_werner_matches_conditional(self, xz, p):
        # uniform A marginal makes H(B (+/-) A) equal H(B|A) exactly here
        x, z = xz
        rho = werner_state(p)
        v_sd = sumdiff_discrete(rho, x, z, x, z).violation_bits
        v_c = pair_conditional(rho, x, z, x, z).violation_bits
        assert abs(v_sd - v_c) < 1e-9

    def test_never_beats_conditional(self, rng, xz):
        x, z = xz
        for _ in range(40):
            rho = random_density(rng)
            v_sd = sumdiff_discrete(rho, x, z, x, z).violation_bits
            v_c = max(
                pair_conditional(rho, x, z, x, z).violation_bits,
                pair_conditional(rho, x, z, x, z, direction="BtoA").violation_bits,
            )
            assert v_sd <= v_c + 1e-9

    def test_qutrit_runs(self, rng):
        bases = mub_set(3)
        rho = random_density(rng, 3, 3)
        rep = sumdiff_discrete(rho, bases[0], bases[1], bases[0], bases[1])
        assert abs(rep.bound_bits - np.log2(3.0)) < 1e-12

    def test_rejects_rectangular(self, rng, xz):
        x, z = xz
        rho = random_density(rng, 2, 3)
        with pytest.raises(ValueError):
            sumdiff_discrete(rho, x, z, random_basis(rng, 3), random_basis(rng, 3))

    def test_rejects_bad_signs(self, xz):
        x, z = xz
        with pytest.raises(ValueError):
            sumdiff_discrete(werner_state(0.5), x, z, x, z, signs=("plus",))


class TestMeasurementTypes:
    """Wrong measurement types raise TypeError at the public boundary, before
    any cache lookup; a bad direction raises before any contraction."""

    @pytest.fixture
    def povms(self, triple):
        return [as_povm(b) for b in triple]

    @pytest.mark.parametrize("direction", ["AtoB", "BtoA"])
    def test_mub_conditional_rejects_povms(self, povms, direction):
        with pytest.raises(TypeError, match="projective bases only, got Povm"):
            mub_conditional(werner_state(0.5), povms, povms, direction=direction)

    def test_mub_mi_rejects_povms_on_the_steered_side(self, triple, povms):
        with pytest.raises(TypeError, match="projective bases only, got Povm"):
            mub_mi(werner_state(0.5), triple, povms)

    def test_mub_witnesses_reject_arrays(self, triple):
        arrays = [np.eye(2)] * 3
        rho = werner_state(0.5)
        with pytest.raises(TypeError, match="projective bases only, got ndarray"):
            mub_conditional(rho, arrays, arrays)
        with pytest.raises(TypeError, match="projective bases only, got ndarray"):
            mub_mi(rho, arrays, arrays)
        # on the side that only conditions, any measurement type will do, but
        # an array is none
        with pytest.raises(TypeError, match="expected ProjectiveBasis or Povm, got ndarray"):
            mub_conditional(rho, arrays, triple)
        with pytest.raises(TypeError, match="expected ProjectiveBasis or Povm, got ndarray"):
            mub_mi(rho, arrays, triple)

    def test_pair_witnesses_reject_arrays(self, xz):
        x, z = xz
        rho = werner_state(0.5)
        message = "expected ProjectiveBasis or Povm, got ndarray"
        for witness in (pair_conditional, sumdiff_discrete):
            with pytest.raises(TypeError, match=message):
                witness(rho, x, np.eye(2), x, z)
        with pytest.raises(TypeError, match="projective bases only"):
            pair_symmetric_mi(rho, x, z, np.eye(2), z)
        with pytest.raises(TypeError, match=message):
            joint_distribution(rho, np.eye(2), z)

    def test_dims_error_names_the_first_pair_that_does_not_fit(self, rng, xz):
        # the element stacks are cached per set; the dims check stays per call
        x, z = xz
        b3 = random_basis(rng, 3)
        rho = werner_state(0.5)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"dims \(3, 3\) do not match state dims \(2, 2\)"):
                pair_conditional(rho, x, b3, x, b3)
            with pytest.raises(ValueError, match=r"dims \(3, 2\) do not match state dims \(2, 2\)"):
                pair_conditional(rho, b3, x, x, z)

    def test_pair_conditional_checks_direction_first(self, rng, xz):
        # the qutrit bases do not fit the qubit state: the direction is named
        x, z = xz
        b3 = random_basis(rng, 3)
        with pytest.raises(ValueError, match="direction must be"):
            pair_conditional(werner_state(0.5), b3, b3, x, z, direction="sideways")


_X, _, _Z = _TRIPLE = pauli_bases()
# each public entry point that takes a state, called with the state `s`
_DISCRETE_ENTRIES = {
    "pair_conditional": lambda s: pair_conditional(s, _X, _Z, _X, _Z),
    "pair_symmetric_mi": lambda s: pair_symmetric_mi(s, _X, _Z, _X, _Z),
    "sumdiff_discrete": lambda s: sumdiff_discrete(s, _X, _Z, _X, _Z),
    "mub_conditional": lambda s: mub_conditional(s, _TRIPLE, _TRIPLE, direction="BtoA"),
    "mub_mi": lambda s: mub_mi(s, _TRIPLE, _TRIPLE),
    "violation_gap": lambda s: violation_gap(s, _X, _Z),
    "joint_distribution": lambda s: joint_distribution(s, _X, _Z),
    "partial_trace": lambda s: partial_trace(s, "B"),
    "partial_transpose": lambda s: partial_transpose(s),
    "optimize_bases": lambda s: optimize_bases(s, 3, np.random.default_rng(0)),
    "basis_sweep": lambda s: basis_sweep(s, 3, np.random.default_rng(0)),
}
_CV_ENTRIES = {
    "walborn_cv": walborn_cv,
    "reid_sumdiff_cv": reid_sumdiff_cv,
    "entropic_sumdiff_cv": entropic_sumdiff_cv,
    "symplectic_eigenvalues": symplectic_eigenvalues,
}


class TestStateTypes:
    """A value that is not the entry point's state class raises TypeError
    naming the entry point, before any cache lookup."""

    @pytest.mark.parametrize(
        "name,state,expected",
        [(name, state, "DensityMatrix") for name in _DISCRETE_ENTRIES
         for state in (np.eye(4) / 4, tmsv(0.5))]
        + [(name, state, "GaussianState") for name in _CV_ENTRIES
           for state in (0.5 * np.eye(4), werner_state(0.5))],
        ids=lambda v: v if isinstance(v, str) else type(v).__name__,
    )
    def test_wrong_state_type_raises(self, name, state, expected):
        entry = _DISCRETE_ENTRIES.get(name) or _CV_ENTRIES[name]
        lookups = measure._set_record.cache_info()
        with pytest.raises(TypeError, match=f"^{name} takes a {expected}, "
                                            f"got {type(state).__name__}$"):
            entry(state)
        info = measure._set_record.cache_info()
        assert (info.hits, info.misses) == (lookups.hits, lookups.misses)


class TestViolationGap:
    def test_identity_on_random_states(self, rng, xz):
        x, z = xz
        for _ in range(100):
            rho = random_density(rng)
            u_a, u_b = random_unitary(2, rng), random_unitary(2, rng)
            r_a, s_a = rotate_basis(x, u_a), rotate_basis(z, u_a)
            r_b, s_b = rotate_basis(x, u_b), rotate_basis(z, u_b)
            v_c = pair_conditional(rho, r_a, s_a, r_b, s_b).violation_bits
            v_m = pair_symmetric_mi(rho, r_a, s_a, r_b, s_b).violation_bits
            assert abs((v_c - v_m) - violation_gap(rho, r_b, s_b)) < 1e-9

    def test_chain_inequalities(self, rng, xz):
        x, z = xz
        for _ in range(100):
            rho = random_density(rng)
            gap = violation_gap(rho, x, z)
            s_b = von_neumann_entropy(partial_trace(rho, "B"))
            e = entanglement_of_formation(rho)
            assert gap <= 2.0 * (1.0 - s_b) + 1e-9
            assert 2.0 * (1.0 - s_b) <= 2.0 * (1.0 - e) + 1e-9

    def test_zero_for_uniform_marginals(self, xz):
        x, z = xz
        assert abs(violation_gap(werner_state(0.42), x, z)) < 1e-12
