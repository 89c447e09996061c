import copy
import pickle

import numpy as np
import pytest
from conftest import loop_partial_trace, loop_partial_transpose, random_density
from hypothesis import given, settings
from hypothesis import strategies as st

from entrosteer import (
    DensityMatrix,
    GaussianState,
    JointDistribution,
    OptimizationResult,
    Povm,
    ProbVector,
    ProjectiveBasis,
    PureState,
    partial_trace,
    partial_transpose,
    random_mixed_state,
    random_pure_state,
    random_unitary,
    singlet_state,
    werner_state,
)
from entrosteer.qmat import validate_density_stack


class TestDensityMatrix:
    def test_valid_construction(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        assert rho.dims == (2, 2)
        assert rho.total_dim == 4
        assert rho.mat.dtype == complex

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="[Hh]ermitian"):
            DensityMatrix((2, 2), m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix((2, 2), np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix((2, 2), m)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            DensityMatrix((2, 3), np.eye(4) / 4)

    def test_matrix_is_read_only(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 1.0

    def test_tiny_negative_eigenvalue_tolerated(self):
        m = np.diag([0.5, 0.5, 5e-11, -5e-11]).astype(complex)
        DensityMatrix((2, 2), m)


def _valid_stack(seed: int, n: int) -> np.ndarray:
    # Ginibre-induced two-qubit states built with numpy alone
    g = np.random.default_rng(seed)
    z = g.standard_normal((n, 4, 4)) + 1j * g.standard_normal((n, 4, 4))
    w = z @ z.conj().swapaxes(-1, -2)
    return w / np.trace(w, axis1=-2, axis2=-1).real[:, None, None]


def _defective(kind: str, m: np.ndarray, size: float, g: np.random.Generator):
    """A copy of m with one defect of the given size, and the message that
    DensityMatrix raises for it."""
    m = m.copy()
    if kind == "hermitian":
        m[0, 1] += size
        return m, "density matrix is not Hermitian within 1e-10"
    if kind == "trace":
        m *= 1.0 + size * g.choice([-0.5, 1.0])
        return m, f"density matrix trace {np.trace(m)} differs from 1 beyond 1e-10"
    if kind == "eigenvalue":
        q, _ = np.linalg.qr(g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4)))
        p = np.array([0.5, 0.3, 0.2 + size, -size])
        m = (q * p) @ q.conj().T
        return (m + m.conj().T) / 2, "density matrix has an eigenvalue below -1e-10"
    m[tuple(g.integers(0, 4, size=2))] = g.choice([np.nan, np.inf, -np.inf])
    return m, "density matrix contains non-finite entries"


class TestValidateDensityStack:
    def test_returns_per_matrix_eigenvalues(self):
        mats = _valid_stack(1, 50)
        evals = validate_density_stack(mats)
        assert evals.shape == (50, 4)
        for m, ev in zip(mats, evals):
            assert np.array_equal(ev, np.linalg.eigvalsh(m))

    def test_tiny_negative_eigenvalue_tolerated(self):
        mats = _valid_stack(2, 3)
        mats[1] = np.diag([0.5, 0.5, 5e-11, -5e-11])
        validate_density_stack(mats)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        pick=st.floats(0.0, 1.0, exclude_max=True),
        kind=st.sampled_from(["hermitian", "trace", "eigenvalue", "non-finite"]),
        log_size=st.floats(-8.0, -0.5),
    )
    def test_names_the_defective_index(self, seed, n, pick, kind, log_size):
        g = np.random.default_rng(seed)
        mats = _valid_stack(seed, n)
        i = int(pick * n)
        mats[i], message = _defective(kind, mats[i], 10.0**log_size, g)
        with pytest.raises(ValueError) as stack_err:
            validate_density_stack(mats)
        assert str(stack_err.value) == f"{message} (stack index {i})"
        with pytest.raises(ValueError) as single_err:
            DensityMatrix((2, 2), mats[i])
        assert str(single_err.value) == message

    def test_first_failing_check_names_its_lowest_index(self):
        mats = _valid_stack(3, 6)
        g = np.random.default_rng(0)
        mats[1], _ = _defective("trace", mats[1], 0.1, g)
        mats[4], herm = _defective("hermitian", mats[4], 0.1, g)
        mats[5], _ = _defective("hermitian", mats[5], 0.1, g)
        with pytest.raises(ValueError, match=rf"^{herm} \(stack index 4\)$"):
            validate_density_stack(mats)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState((2, 2), np.array([1.0, 1.0, 0.0, 0.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PureState((2, 2), np.array([1.0, 0.0]))

    def test_to_density_is_projector(self):
        psi = singlet_state()
        rho = psi.to_density()
        assert np.allclose(rho.mat @ rho.mat, rho.mat, atol=1e-12)
        assert abs(np.trace(rho.mat) - 1.0) < 1e-12


class TestPartialTrace:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 4)])
    @pytest.mark.parametrize("keep", ["A", "B"])
    def test_matches_loop_oracle(self, rng, dims, keep):
        for _ in range(5):
            rho = random_density(rng, *dims)
            got = partial_trace(rho, keep)
            want = loop_partial_trace(rho.mat, dims, keep)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_product_state_factors(self, rng):
        a = random_density(rng, 2, 1).mat
        b = random_density(rng, 3, 1).mat
        rho = DensityMatrix((2, 3), np.kron(a, b))
        assert np.max(np.abs(partial_trace(rho, "A") - a)) < 1e-12
        assert np.max(np.abs(partial_trace(rho, "B") - b)) < 1e-12

    def test_trace_preserved(self, rng):
        rho = random_density(rng, 3, 3)
        assert abs(np.trace(partial_trace(rho, "A")) - 1.0) < 1e-12

    def test_schmidt_marginal_spectra_match(self, rng):
        for _ in range(20):
            psi = random_pure_state(3, 3, rng)
            rho = psi.to_density()
            ev_a = np.linalg.eigvalsh(partial_trace(rho, "A"))
            ev_b = np.linalg.eigvalsh(partial_trace(rho, "B"))
            assert np.max(np.abs(ev_a - ev_b)) < 1e-8

    def test_rejects_bad_keep(self):
        with pytest.raises(ValueError):
            partial_trace(werner_state(0.5), "C")


class TestPartialTranspose:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    @pytest.mark.parametrize("party", ["A", "B"])
    def test_matches_loop_oracle(self, rng, dims, party):
        for _ in range(5):
            rho = random_density(rng, *dims)
            got = partial_transpose(rho, party)
            want = loop_partial_transpose(rho.mat, dims, party)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_involution(self, rng):
        rho = random_density(rng, 2, 3)
        once = partial_transpose(rho, "B")
        twice = loop_partial_transpose(once, (2, 3), "B")
        assert np.max(np.abs(twice - rho.mat)) < 1e-12

    def test_singlet_negativity(self):
        ev = np.linalg.eigvalsh(partial_transpose(singlet_state().to_density(), "B"))
        assert abs(ev.min() + 0.5) < 1e-12

    def test_separable_stays_positive(self, rng):
        a = random_density(rng, 2, 1).mat
        b = random_density(rng, 2, 1).mat
        rho = DensityMatrix((2, 2), np.kron(a, b))
        assert np.linalg.eigvalsh(partial_transpose(rho, "B")).min() > -1e-12


class TestNamedStates:
    def test_singlet_vector(self):
        v = singlet_state().vec
        want = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert np.max(np.abs(v - want)) < 1e-15

    def test_werner_endpoints(self):
        assert np.max(np.abs(werner_state(0.0).mat - np.eye(4) / 4)) < 1e-15
        proj = singlet_state().to_density().mat
        assert np.max(np.abs(werner_state(1.0).mat - proj)) < 1e-15

    def test_werner_formula(self):
        p = 0.37
        proj = singlet_state().to_density().mat
        want = p * proj + (1 - p) * np.eye(4) / 4
        assert np.max(np.abs(werner_state(p).mat - want)) < 1e-15

    @pytest.mark.parametrize("p", [0.0, 0.37, 0.5, 2**-0.5, 0.9, 1.0])
    def test_werner_validates_once_with_the_bits_of_the_projector_state(self, monkeypatch, p):
        # the singlet projector is built as its PureState's to_density builds
        # it, but not validated on its own: one eigvalsh, for the mixture
        want = p * singlet_state().to_density().mat + (1.0 - p) * np.eye(4) / 4.0
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        assert werner_state(p).mat.tobytes() == want.tobytes()
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_werner_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            werner_state(p)


class TestRandomUnitary:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_unitarity(self, rng, d):
        for _ in range(20):
            u = random_unitary(d, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-10

    def test_haar_first_entry_moment(self):
        # E|U_00|^2 = 1/d under the invariant measure; a QR construction
        # without the phase fix fails this badly
        g = np.random.default_rng(7)
        vals = [abs(random_unitary(2, g)[0, 0]) ** 2 for _ in range(10000)]
        assert abs(np.mean(vals) - 0.5) < 0.02

    def test_deterministic_for_fixed_seed(self):
        u1 = random_unitary(3, np.random.default_rng(5))
        u2 = random_unitary(3, np.random.default_rng(5))
        assert np.array_equal(u1, u2)


class TestRandomStates:
    def test_pure_state_valid(self, rng):
        for _ in range(50):
            psi = random_pure_state(2, 3, rng)
            assert abs(np.linalg.norm(psi.vec) - 1.0) < 1e-10

    def test_pure_largest_marginal_eigenvalue_mean(self):
        # Haar two-qubit states: E[max eigenvalue of a marginal] = 7/8
        g = np.random.default_rng(11)
        vals = []
        for _ in range(4000):
            rho = random_pure_state(2, 2, g).to_density()
            vals.append(np.linalg.eigvalsh(partial_trace(rho, "A")).max())
        assert abs(np.mean(vals) - 0.875) < 0.01

    def test_mixed_state_rank(self, rng):
        for rank in (1, 2, 3, 4):
            rho = random_mixed_state(2, 2, rank, rng)
            ev = np.linalg.eigvalsh(rho.mat)
            assert np.sum(ev > 1e-12) == rank

    def test_mixed_rank_one_is_pure(self, rng):
        rho = random_mixed_state(2, 2, 1, rng)
        assert abs(np.trace(rho.mat @ rho.mat).real - 1.0) < 1e-10

    def test_mixed_purity_mean_full_rank(self):
        # Ginibre-induced measure at full rank N = 4: E[Tr rho^2] = 2N/(N^2+1)
        g = np.random.default_rng(13)
        vals = [
            np.trace((m := random_mixed_state(2, 2, 4, g).mat) @ m).real
            for _ in range(10000)
        ]
        assert abs(np.mean(vals) - 8.0 / 17.0) < 0.01

    @pytest.mark.parametrize("rank", [0, 5])
    def test_mixed_rejects_bad_rank(self, rng, rank):
        with pytest.raises(ValueError):
            random_mixed_state(2, 2, rank, rng)


class TestArgumentRules:
    """Counts and dimensions are ints or numpy integers, never bools or
    floats (TypeError), and at least 1 (ValueError); each string option is one
    of its values. One helper of `qmat` holds each rule."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DensityMatrix((2.7, 1), np.eye(2) / 2),
            lambda: DensityMatrix((True, 2), np.eye(2) / 2),
            lambda: PureState((2.0, 2), np.eye(4)[0]),
            lambda: random_pure_state(2, 2.0, np.random.default_rng(0)),
            lambda: random_mixed_state(2, 2, 1.5, np.random.default_rng(0)),
            lambda: random_unitary(2.5, np.random.default_rng(0)),
        ],
        ids=["density-float", "density-bool", "pure-float", "random-pure-float",
             "random-mixed-rank-float", "unitary-float"],
    )
    def test_float_or_bool_counts_raise_type_error(self, build):
        # these built a state with truncated dims, or failed inside numpy
        with pytest.raises(TypeError,
                           match=r"(dimension|rank) must be an integer, got (float|bool)$"):
            build()

    def test_numpy_integer_dims_are_stored_as_ints(self):
        rho = DensityMatrix((np.int64(2), np.int32(2)), np.eye(4) / 4)
        assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: DensityMatrix((0, 2), np.eye(2) / 2),
             "subsystem dimension must be >= 1, got 0"),
            (lambda: random_unitary(0, np.random.default_rng(0)), "dimension must be >= 1, got 0"),
            (lambda: random_mixed_state(2, 2, 5, np.random.default_rng(0)),
             "rank must be <= 4, got 5"),
            (lambda: partial_trace(werner_state(0.5), "C"), "keep must be 'A' or 'B', got 'C'"),
            (lambda: partial_transpose(werner_state(0.5), "C"),
             "party must be 'A' or 'B', got 'C'"),
        ],
        ids=["dims-zero", "unitary-zero", "rank-above", "keep", "party"],
    )
    def test_out_of_range_values_raise_value_error(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


# each record type with valid field values, and its repr as a dataclass printed it
_RECORDS = [
    (DensityMatrix, ((1, 1), [[1]]), "DensityMatrix(dims=(1, 1), mat=array([[1.+0.j]]))"),
    (PureState, ((1, 1), [1]), "PureState(dims=(1, 1), vec=array([1.+0.j]))"),
    (ProjectiveBasis, (1, [[1]]), "ProjectiveBasis(dim=1, vectors=array([[1.+0.j]]))"),
    (Povm, (1, [[[1]]]), "Povm(dim=1, elements=(array([[1.+0.j]]),))"),
    (JointDistribution, (1, 1, [[1.0]]), "JointDistribution(n_a=1, n_b=1, probs=array([[1.]]))"),
    (ProbVector, ([1.0],), "ProbVector(probs=array([1.]))"),
    (GaussianState, (np.eye(4) / 2,),
     "GaussianState(cov=array([[0.5, 0. , 0. , 0. ],\n       [0. , 0.5, 0. , 0. ],\n"
     "       [0. , 0. , 0.5, 0. ],\n       [0. , 0. , 0. , 0.5]]))"),
]


# the three ways to copy a record
_REBUILDS = [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy]


def _arrays(record, name) -> list:
    """The arrays a record holds in field `name`: the field, or its tuple's items."""
    value = getattr(record, name)
    return [v for v in (value if isinstance(value, tuple) else (value,))
            if isinstance(v, np.ndarray)]


class TestRecords:
    """The library's value types are read-only records: built from their
    fields, compared and hashed by identity, printed field by field."""

    @pytest.mark.parametrize("cls, args, text", _RECORDS, ids=[r[0].__name__ for r in _RECORDS])
    def test_record_contract(self, cls, args, text):
        record = cls(*args)
        by_name = cls(**dict(zip(cls.FIELDS, args)))
        assert repr(record) == repr(by_name) == text
        for name in cls.FIELDS:
            value = getattr(record, name)
            assert np.array_equal(np.asarray(value), np.asarray(getattr(by_name, name)))
            assert not isinstance(value, np.ndarray) or not value.flags.writeable
        first = {cls.FIELDS[0]: args[0]}
        for bad in (lambda: cls(*args[:-1]), lambda: cls(*args, args[-1]),
                    lambda: cls(*args, extra=1), lambda: cls(*args, **first)):
            with pytest.raises(TypeError, match=f"{cls.__name__} takes the fields"):
                bad()
        for name in (cls.FIELDS[0], "extra"):
            with pytest.raises(AttributeError, match="is read-only"):
                setattr(record, name, 1)
            with pytest.raises(AttributeError, match="is read-only"):
                delattr(record, name)
        assert record == record and record != by_name
        assert hash(record) == object.__hash__(record) != hash(by_name)

    @pytest.mark.parametrize("rebuild", _REBUILDS, ids=["pickle", "copy", "deepcopy"])
    @pytest.mark.parametrize("cls, args, text", _RECORDS, ids=[r[0].__name__ for r in _RECORDS])
    def test_pickle_and_copy_rebuild_through_the_constructor(self, cls, args, text, rebuild):
        # a copy must pass the constructor's checks and hold read-only arrays
        record = cls(*args)
        back = rebuild(record)
        assert back is not record and repr(back) == text
        assert vars(back).keys() == vars(record).keys()   # the fields, and Povm.stacked
        for name in vars(record):
            assert [a.tobytes() for a in _arrays(back, name)] == [
                a.tobytes() for a in _arrays(record, name)]
            assert not any(a.flags.writeable for a in _arrays(back, name))

    @pytest.mark.parametrize("rebuild", _REBUILDS, ids=["pickle", "copy", "deepcopy"])
    def test_a_copy_drops_the_cached_properties(self, rebuild):
        basis = ProjectiveBasis(2, np.eye(2))
        assert basis.povm.roots.shape == (2, 2, 2)   # fills both caches
        back = rebuild(basis)
        assert "povm" not in vars(back) and "roots" not in vars(rebuild(basis.povm))
        assert back.povm is not basis.povm and repr(back.povm) == repr(basis.povm)

    def test_a_tampered_pickle_is_refused_on_load(self):
        # Hermitian with unit trace, but with an eigenvalue of -0.25: loaded
        # unchecked, it scores a maximal violation of every fig1 witness
        rho = werner_state(0.0)
        mat = np.array(rho.mat)
        mat[0, 3] = mat[3, 0] = 0.5
        vars(rho)["mat"] = mat
        with pytest.raises(ValueError, match="^density matrix has an eigenvalue below -1e-10$"):
            pickle.loads(pickle.dumps(rho))

    def test_optimization_result_compares_by_value(self):
        a, b = (OptimizationResult(1, 0.5, -0.2, 3, 7) for _ in range(2))
        assert a is not b and a == b and hash(a) == hash(b)
        assert repr(a) == ("OptimizationResult(state_id=1, best_v_AtoB=0.5, best_v_BtoA=-0.2, "
                           "trials=3, seed=7)")
