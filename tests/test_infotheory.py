import numpy as np
import pytest
from conftest import loop_entropy, random_density
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entrosteer import (
    ProbVector,
    concurrence,
    conditional_entropy,
    entanglement_of_formation,
    modular_sum_entropy,
    mutual_information,
    shannon_entropy,
    singlet_state,
    von_neumann_entropy,
    werner_state,
)
from entrosteer.infotheory import _entropies, _modular_entropies
from entrosteer.measure import JointDistribution


def _joint(p):
    p = np.asarray(p, dtype=float)
    return JointDistribution(p.shape[0], p.shape[1], p)


def joints(max_side=4):
    return (
        hnp.arrays(
            float,
            st.tuples(st.integers(2, max_side), st.integers(2, max_side)),
            elements=st.floats(0.0, 1.0),
        )
        .filter(lambda a: a.sum() > 1e-6)
        .map(lambda a: _joint(a / a.sum()))
    )


class TestShannonEntropy:
    def test_uniform(self):
        assert abs(shannon_entropy(np.full(8, 0.125)) - 3.0) < 1e-12

    def test_deterministic(self):
        assert shannon_entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_binary_value(self):
        assert abs(shannon_entropy(np.array([0.89, 0.11])) - 0.49991595816452794) < 1e-12

    def test_accepts_prob_vector(self):
        assert abs(shannon_entropy(ProbVector(np.array([0.5, 0.5]))) - 1.0) < 1e-12

    def test_prob_vector_rejects_negative(self):
        with pytest.raises(ValueError):
            ProbVector(np.array([0.5, 0.6, -0.1]))

    def test_prob_vector_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ProbVector(np.array([0.5, 0.4]))


class TestConditionalEntropy:
    def test_independent_equals_marginal(self):
        j = _joint(np.outer([0.3, 0.7], [0.2, 0.8]))
        assert abs(conditional_entropy(j, "B|A") - shannon_entropy(np.array([0.2, 0.8]))) < 1e-12

    def test_perfect_correlation_is_zero(self):
        assert conditional_entropy(_joint(np.diag([0.5, 0.5])), "B|A") == 0.0

    def test_direction_semantics(self):
        # rows = A with 3 outcomes, columns = B with 2
        p = np.array([[0.2, 0.0], [0.0, 0.3], [0.25, 0.25]])
        j = _joint(p)
        h_ab = loop_entropy(p)
        h_a, h_b = loop_entropy(p.sum(axis=1)), loop_entropy(p.sum(axis=0))
        assert abs(conditional_entropy(j, "B|A") - (h_ab - h_a)) < 1e-12
        assert abs(conditional_entropy(j, "A|B") - (h_ab - h_b)) < 1e-12

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            conditional_entropy(_joint(np.diag([0.5, 0.5])), "AB")


class TestMutualInformation:
    def test_product_is_zero(self):
        assert abs(mutual_information(_joint(np.outer([0.4, 0.6], [0.1, 0.9])))) < 1e-12

    def test_perfect_correlation(self):
        assert abs(mutual_information(_joint(np.eye(4) / 4)) - 2.0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(joints())
    def test_information_laws(self, j):
        h_a = shannon_entropy(j.probs.sum(axis=1))
        h_b = shannon_entropy(j.probs.sum(axis=0))
        mi = mutual_information(j)
        assert mi >= 0.0
        assert mi <= min(h_a, h_b) + 1e-9
        assert conditional_entropy(j, "B|A") <= h_b + 1e-9
        assert abs(mi - (h_b - conditional_entropy(j, "B|A"))) < 1e-9


class TestModularSumEntropy:
    def test_matches_brute_force(self, rng):
        for n in (2, 3, 5):
            p = rng.dirichlet(np.ones(n * n)).reshape(n, n)
            j = _joint(p)
            for sign, s in (("plus", 1), ("minus", -1)):
                dist = np.zeros(n)
                for a in range(n):
                    for b in range(n):
                        dist[(a + s * b) % n] += p[a, b]
                assert abs(modular_sum_entropy(j, sign) - loop_entropy(dist)) < 1e-12

    def test_anticorrelated_sum_is_zero(self):
        p = np.zeros((3, 3))
        for a in range(3):
            p[a, (3 - a) % 3] = 1 / 3
        assert modular_sum_entropy(_joint(p), "plus") < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            modular_sum_entropy(_joint(np.full((2, 3), 1 / 6)), "plus")

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            modular_sum_entropy(_joint(np.eye(2) / 2), "xor")

    @settings(max_examples=60, deadline=None)
    @given(joints(3).filter(lambda j: j.n_a == j.n_b))
    def test_never_undercuts_conditional_entropies(self, j):
        # the derivation hinge: H(A +/- B) >= max(H(A|B), H(B|A))
        floor = max(conditional_entropy(j, "B|A"), conditional_entropy(j, "A|B"))
        for sign in ("plus", "minus"):
            assert modular_sum_entropy(j, sign) >= floor - 1e-9


def _add_at_modular_entropies(p, shapes, signs):
    """The modular entropies of a ``(..., m, n_a, n_b)`` stack, each residue's
    probability summed by `np.add.at` in row-major order."""
    *lead, m, n_a, n_b = p.shape
    a, b = np.arange(n_a)[:, None], np.arange(n_b)[None, :]
    idx = np.stack([(a + b) % n if sign == "plus" else (a - b) % n
                    for (n, _), sign in zip(shapes, signs)])
    flat = p.reshape(-1, m, n_a, n_b)
    dist = np.zeros((len(flat), m, max(n_a, n_b)))
    np.add.at(dist, (np.arange(len(flat))[:, None, None, None],
                     np.arange(m)[:, None, None], idx), flat)
    return _entropies(dist).reshape(*lead, m)


class TestModularEntropyStack:
    """`_modular_entropies` sums each residue with `np.bincount` over cached
    bins; it must give the bits of the `np.add.at` sum it replaced."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_bincount_bins_give_the_add_at_bits(self, n):
        rng = np.random.default_rng(n)
        for states in (None, 1, 7, 40):
            lead = () if states is None else (states,)
            m = int(rng.integers(1, 4))
            # a stack side of n or n + 1: joints smaller than the stack are padded
            n_a, n_b = n + int(rng.integers(0, 2)), n + int(rng.integers(0, 2))
            p = np.zeros((*lead, m, n_a, n_b))
            shapes = []
            for i in range(m):
                k = int(rng.integers(2, n + 1)) if i else n
                block = rng.random((*lead, k, k)) * (rng.random((*lead, k, k)) < 0.7)
                block[..., 0, 0] += 1e-3
                p[..., i, :k, :k] = block / block.sum(axis=(-2, -1), keepdims=True)
                shapes.append((k, k))
            signs = list(rng.choice(["plus", "minus"], size=m))
            want = _add_at_modular_entropies(p, shapes, signs)
            for given_signs in (signs, tuple(signs)):
                got = _modular_entropies(p, shapes, given_signs)
                assert got.shape == want.shape == (*lead, m)
                assert np.array_equal(got, want)
                assert got.tobytes() == want.tobytes()   # signed zeros included

    def test_a_sign_that_cannot_be_hashed_is_refused_by_name(self):
        p = np.full((1, 2, 2), 0.25)
        with pytest.raises(ValueError, match=r"sign must be 'plus' or 'minus', got \['plus'\]"):
            _modular_entropies(p, [(2, 2)], [["plus"]])

    def test_the_shape_error_comes_before_the_sign_error(self):
        p = np.full((1, 2, 3), 1 / 6)
        with pytest.raises(ValueError, match="square joint, got shape \\(2, 3\\)"):
            _modular_entropies(p, [(2, 3)], [["plus"]])


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(singlet_state().to_density()) < 1e-12

    def test_maximally_mixed(self):
        from entrosteer import DensityMatrix

        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        assert abs(von_neumann_entropy(rho) - 2.0) < 1e-12

    def test_werner_half(self):
        assert abs(von_neumann_entropy(werner_state(0.5)) - 1.5487949406953985) < 1e-9

    def test_accepts_raw_matrix(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.array([[0.5, 0.3], [0.0, 0.5]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.5, np.nan)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entries(self, bad, where):
        m = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        m[where] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            von_neumann_entropy(m)

    def test_spectrum_entropy_bit_for_bit(self, rng):
        # the one Shannon sum over the clipped eigvalsh spectrum: every entry
        # is summed, and entries <= 1e-15 contribute a zero term
        for d in (2, 3, 5):
            for _ in range(20):
                rho = random_density(rng, d, d)
                ev = np.clip(np.linalg.eigvalsh(rho.mat), 0.0, 1.0)
                terms = -(ev * np.log2(np.where(ev > 1e-15, ev, 1.0)))
                assert von_neumann_entropy(rho) == float(terms.sum())


class TestConcurrence:
    def test_singlet(self):
        assert abs(concurrence(singlet_state().to_density()) - 1.0) < 1e-12

    def test_product_state(self, rng):
        from entrosteer import DensityMatrix

        a = random_density(rng, 2, 1).mat
        b = random_density(rng, 2, 1).mat
        assert concurrence(DensityMatrix((2, 2), np.kron(a, b))) < 1e-8

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0])
    def test_werner_closed_form(self, p):
        want = max(0.0, (3 * p - 1) / 2)
        assert abs(concurrence(werner_state(p)) - want) < 1e-9

    def test_rejects_wrong_dims(self, rng):
        with pytest.raises(ValueError):
            concurrence(random_density(rng, 2, 3))

    @pytest.mark.parametrize("measure", [concurrence, entanglement_of_formation])
    def test_refuses_a_pure_state_by_its_own_name(self, measure):
        with pytest.raises(TypeError, match=f"^{measure.__name__} takes a DensityMatrix, "
                                            "got PureState$"):
            measure(singlet_state())


class TestEntanglementOfFormation:
    def test_werner_08(self):
        assert abs(entanglement_of_formation(werner_state(0.8)) - 0.5918574071706767) < 1e-9

    def test_singlet_is_one_bit(self):
        assert abs(entanglement_of_formation(singlet_state().to_density()) - 1.0) < 1e-12

    def test_pure_state_equals_marginal_entropy(self, rng):
        from entrosteer import partial_trace, random_pure_state

        for _ in range(20):
            rho = random_pure_state(2, 2, rng).to_density()
            want = von_neumann_entropy(partial_trace(rho, "B"))
            assert abs(entanglement_of_formation(rho) - want) < 1e-7

    def test_monotone_in_werner_weight(self):
        vals = [entanglement_of_formation(werner_state(p)) for p in np.linspace(0.4, 1.0, 13)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))



def _outcome(fn, *args):
    """What a call gives: the array's bits, dtype, shape and flags, or the
    exception's type and message."""
    try:
        p = fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return p.tobytes(), p.dtype, p.shape, p.flags.writeable


def _method_checked_probs(p, axis=None):
    # the probability checks written with the array methods, as they were
    # before `_checked_probs` called the ufunc reductions directly
    p = np.asarray(p)
    if p.dtype.kind == "c":
        if not np.abs(p.imag).max() <= 1e-8:
            raise ValueError("joint probabilities acquired a non-negligible imaginary part")
        p = p.real
    p = np.array(p, dtype=float)
    low = p.min()
    if not low >= -1e-12:
        raise ValueError(f"negative probability {low:.3e} exceeds the clamping tolerance 1e-12")
    if low < 0.0:
        p[p < 0.0] = 0.0
    s = p.sum(axis=axis)
    bad = np.abs(s - 1.0) > 1e-10
    if bad.any():
        total = np.ravel(s)[np.ravel(bad)][0]
        raise ValueError(f"probabilities sum to {total!r}, not 1 within 1e-10")
    p.setflags(write=False)
    return p


_SPOILERS = ["none", "dust", "below-dust", "total-in", "total-out", "imag-in", "imag-out",
             "nan", "inf", "-inf", "nan-imag", "zeros"]


def _spoiled_probs(seed: int, shape, axis, spoiler: str, where: int):
    # valid probabilities (each total 1 over `axis`), then one entry spoiled
    rng = np.random.default_rng(seed)
    p = rng.random(shape) * (rng.random(shape) < 0.8)
    p[(..., 0, 0) if axis else 0] += 0.1   # no total is 0
    p = p / p.sum(axis=axis, keepdims=axis is not None)
    flat = p.reshape(-1)
    k = where % flat.size
    if spoiler == "dust":
        flat[k] = -0.9e-12
    elif spoiler == "below-dust":
        flat[k] = -1.1e-12
    elif spoiler in ("total-in", "total-out"):
        flat[k] += 0.99e-10 if spoiler == "total-in" else 1.01e-10
    elif spoiler in ("nan", "inf", "-inf"):
        flat[k] = float(spoiler)
    elif spoiler == "zeros":
        flat[:] = 0.0
    if spoiler.startswith(("imag", "nan-imag")):
        p = p + 0j
        p.reshape(-1)[k] += {"imag-in": 0.99e-8j, "imag-out": 1.01e-8j, "nan-imag": np.nan * 1j}[
            spoiler]
    return p


class TestProbabilityChecks:
    """`_checked_probs` gives, on any input, the array bits or the exception
    type and message of the same checks written with the array methods; a
    single state's joints and a survey's stacks alike."""

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           layout=st.sampled_from([((1,), None), ((5,), None), ((39,), None), ((40,), None),
                                   ((6, 7), None), ((2, 2, 2), (1, 2)), ((3, 2, 2), (1, 2)),
                                   ((4, 3, 3), (1, 2)), ((5, 3, 3), (1, 2)), ((1, 6, 6), (1, 2)),
                                   ((2, 3, 2, 2), (-2, -1)), ((300, 3, 2, 2), (-2, -1))]),
           spoiler=st.sampled_from(_SPOILERS), where=st.integers(0, 5000),
           complex_input=st.booleans())
    def test_matches_the_array_method_checks(self, seed, layout, spoiler, where, complex_input):
        from entrosteer.infotheory import _checked_probs

        shape, axis = layout
        p = _spoiled_probs(seed, shape, axis, spoiler, where)
        if complex_input:
            p = p + 0j
        with np.errstate(invalid="ignore"):   # NaN and inf totals
            assert _outcome(_checked_probs, p, axis) == _outcome(_method_checked_probs, p, axis)

    def test_a_nan_imaginary_part_is_refused(self):
        # NaN compares false with the 1e-8 limit; it must not hide a larger part
        from entrosteer.infotheory import _checked_probs

        for p in ([complex(0.5, np.nan), 0.5], [complex(0.5, np.nan), complex(0.5, 0.3)]):
            with pytest.raises(ValueError, match="non-negligible imaginary part"):
                _checked_probs(np.array(p))
