import math
import warnings

import numpy as np
import pytest
from conftest import exact_min_symplectic_eigenvalue, tmsv_violations

from entrosteer import (
    GaussianState,
    entropic_sumdiff_cv,
    reid_sumdiff_cv,
    symplectic_eigenvalues,
    threshold_bisect,
    tmsv,
    walborn_cv,
)
from entrosteer.cvgauss import TMSV_R_MAX

LOG2E = np.log2(np.e)


def random_single_mode_cov(rng):
    theta = rng.uniform(0, 2 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    diag = np.diag(0.5 * np.exp(rng.uniform(0, 2, size=2)))
    return rot @ diag @ rot.T


def random_two_mode_cov(rng):
    a = rng.normal(size=(4, 4))
    return a @ a.T + 0.5 * np.eye(4)


class TestGaussianState:
    def test_vacuum_accepted(self):
        state = GaussianState(0.5 * np.eye(4))
        assert state.cov.shape == (4, 4)

    def test_rejects_asymmetric(self):
        cov = 0.5 * np.eye(4)
        cov[0, 1] = 0.3
        with pytest.raises(ValueError):
            GaussianState(cov)

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            GaussianState(0.1 * np.eye(4))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            GaussianState(0.5 * np.eye(3))

    def test_rejects_complex(self):
        # the imaginary part was dropped with a ComplexWarning, and the state
        # was accepted
        with pytest.raises(ValueError, match="^covariance has a nonzero imaginary part$"):
            GaussianState(0.5 * np.eye(4) + 1j * np.eye(4))

    def test_complex_with_zero_imaginary_part_is_taken_as_real(self):
        state = GaussianState(0.5 * np.eye(4).astype(complex))
        assert state.cov.dtype == float and np.array_equal(state.cov, 0.5 * np.eye(4))

    @pytest.mark.parametrize("r", [8.0, 10.0, 12.0])
    def test_highly_squeezed_state_is_physical(self, r):
        # a pure state's zero eigenvalue rounds to about -1e-9 at r = 8, below
        # an absolute floor of -1e-10; the floor scales with the entries
        assert tmsv(r).cov[0, 0] == pytest.approx(np.cosh(2.0 * r) / 2.0)

    def test_scaled_floor_still_rejects_unphysical(self):
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianState(0.4 * np.eye(4))
        # positions and momenta both correlated: var(x_A - x_B) and
        # var(k_A - k_B) are both e^{-16}, far below what [x, k] = i allows
        c, s = np.cosh(16.0) / 2.0, np.sinh(16.0) / 2.0
        cov = c * np.eye(4) + s * np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(2))
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianState(cov)

    def test_small_mode_beside_a_large_entry_is_refused(self):
        # var(x_A) var(k_A) = 0 < 1/4, but the spectral floor, scaled by the
        # 1e6 entry, let it through, and walborn_cv then failed on it
        with pytest.raises(ValueError, match="^covariance violates the uncertainty condition$"):
            GaussianState(np.diag([0.0, 1e6, 0.5, 0.5]))
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianState(np.diag([0.5, 0.5, 1e6, 1e-7]))

    def test_tmsv_constructs_over_its_whole_range(self):
        r_max = math.log(4.0 * 2.0**511) / 2.0   # cosh(2r) / 2 reaches 2**511
        for r in [*np.linspace(0.0, r_max, 400).tolist(), 7.17, 8.0, r_max]:
            assert tmsv(r).cov[0, 0] == math.cosh(2.0 * r) / 2.0

    def test_cov_read_only(self):
        state = tmsv(0.5)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 9.0


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        nu = symplectic_eigenvalues(GaussianState(0.5 * np.eye(4)))
        assert np.allclose(nu, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.5])
    def test_tmsv_is_pure(self, r):
        nu = symplectic_eigenvalues(tmsv(r))
        assert np.allclose(nu, [0.5, 0.5], atol=1e-9)

    def test_thermal(self):
        nu = symplectic_eigenvalues(GaussianState(np.diag([1.5, 1.5, 0.8, 0.8])))
        assert np.allclose(nu, [0.8, 1.5], atol=1e-12)

    def test_random_physical_above_half(self, rng):
        for _ in range(50):
            nu = symplectic_eigenvalues(GaussianState(random_two_mode_cov(rng)))
            assert np.all(nu >= 0.5 - 1e-10)


class TestSymplecticOracle:
    """`symplectic_eigenvalues` against the exact nu_- of the same float64
    matrix (`conftest.exact_min_symplectic_eigenvalue`): within
    16 eps max(1, ||cov||_2)^2, the error to expect of a backward-stable
    eigenvalue routine. On tmsv(r) the matrix's own nu_- leaves 1/2 from
    r ~ 5, so only the oracle, not 1/2, can pin the routine there."""

    @staticmethod
    def _check(g):
        got = symplectic_eigenvalues(g)[0]
        norm = max(1.0, float(np.linalg.norm(g.cov, 2)))
        exact = exact_min_symplectic_eigenvalue(g.cov)
        assert abs(got - float(exact)) <= 16 * np.finfo(float).eps * norm**2, (got, exact)
        return exact

    def test_tmsv_over_r_0_to_8(self):
        exact = [self._check(tmsv(r)) for r in np.linspace(0.0, 8.0, 161).tolist()]
        assert exact[0] == 0.5
        assert exact[-1] < 0.4983   # r = 8: the stored matrix is below 1/2

    def test_oracle_on_a_product_of_thermal_modes(self):
        exact = exact_min_symplectic_eigenvalue(np.diag([1.5, 1.5, 0.8, 0.8]))
        assert abs(exact - 0.8) < 1e-70   # 0.8 as a float, not as a decimal

    def test_random_physical_covariances(self):
        rng = np.random.default_rng(71)
        for scale in np.logspace(-1, 2, 200).tolist():
            a = rng.normal(size=(4, 4)) * scale
            self._check(GaussianState(a @ a.T + 0.5 * np.eye(4)))


class TestWalbornCv:
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
    def test_tmsv_closed_form(self, r):
        rep = walborn_cv(tmsv(r))
        assert abs(rep.violation_bits - np.log2(np.cosh(2 * r))) < 1e-9
        assert abs(rep.bound_bits - np.log2(np.pi * np.e)) < 1e-12

    def test_directions_equal_on_tmsv(self):
        state = tmsv(0.8)
        ab = walborn_cv(state, direction="AtoB")
        ba = walborn_cv(state, direction="BtoA")
        assert abs(ab.violation_bits - ba.violation_bits) < 1e-12

    def test_thermal_product_no_violation(self):
        rep = walborn_cv(GaussianState(np.diag([1.5, 1.5, 0.7, 0.7])))
        assert rep.violation_bits <= 1e-12

    def test_random_product_no_violation(self, rng):
        for _ in range(50):
            cov = np.zeros((4, 4))
            cov[:2, :2] = random_single_mode_cov(rng)
            cov[2:, 2:] = random_single_mode_cov(rng)
            rep = walborn_cv(GaussianState(cov))
            assert rep.violation_bits <= 1e-10

    def test_sign_matches_conditional_variance_product(self, rng):
        for _ in range(50):
            cov = random_two_mode_cov(rng)
            vx = cov[2, 2] - cov[0, 2] ** 2 / cov[0, 0]
            vk = cov[3, 3] - cov[1, 3] ** 2 / cov[1, 1]
            rep = walborn_cv(GaussianState(cov))
            assert (rep.violation_bits > 0) == (vx * vk < 0.25)

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            walborn_cv(tmsv(1.0), direction="both")

    def test_zero_conditioning_variance_raises(self):
        # var(x_A) = 0: the AtoB conditional variances divide by it; either
        # the constructor or the witness refuses the state
        with pytest.raises(ValueError):
            walborn_cv(GaussianState(np.diag([0.0, 1e6, 0.5, 0.5])))


class TestReidSumdiffCv:
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.2])
    def test_tmsv_closed_form(self, r):
        rep = reid_sumdiff_cv(tmsv(r))
        assert abs(rep.lhs_bits - np.exp(-4 * r)) < 1e-9
        assert abs(rep.bound_bits - 0.25) < 1e-15

    def test_flip_at_half_ln2(self):
        r_star = threshold_bisect(
            lambda r: reid_sumdiff_cv(tmsv(r)).violation_bits, 0.1, 1.0, tol=1e-9
        )
        assert abs(r_star - np.log(2) / 2) < 1e-4

    def test_vacuum_no_violation(self):
        rep = reid_sumdiff_cv(GaussianState(0.5 * np.eye(4)))
        assert rep.violation_bits <= 0

    def test_rejects_bad_signs(self):
        with pytest.raises(ValueError):
            reid_sumdiff_cv(tmsv(1.0), signs=("minus", "minus", "plus"))


class TestEntropicSumdiffCv:
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
    def test_tmsv_closed_form(self, r):
        rep = entropic_sumdiff_cv(tmsv(r))
        assert abs(rep.lhs_bits - (np.log2(2 * np.pi * np.e) - 2 * r * LOG2E)) < 1e-9
        assert abs(rep.violation_bits - (2 * r * LOG2E - 1.0)) < 1e-9

    def test_flip_at_half_ln2(self):
        r_star = threshold_bisect(
            lambda r: entropic_sumdiff_cv(tmsv(r)).violation_bits, 0.1, 1.0, tol=1e-9
        )
        assert abs(r_star - np.log(2) / 2) < 1e-4

    def test_flips_together_with_reid_on_tmsv(self):
        for r in np.linspace(0.05, 1.2, 24):
            v_e = entropic_sumdiff_cv(tmsv(r)).violation_bits
            v_r = reid_sumdiff_cv(tmsv(r)).violation_bits
            if abs(r - np.log(2) / 2) > 1e-3:
                assert (v_e > 0) == (v_r > 0)

    def test_random_product_no_violation(self, rng):
        for _ in range(50):
            cov = np.zeros((4, 4))
            cov[:2, :2] = random_single_mode_cov(rng)
            cov[2:, 2:] = random_single_mode_cov(rng)
            rep = entropic_sumdiff_cv(GaussianState(cov))
            assert rep.violation_bits <= 1e-10

    def test_entropic_at_least_reid_strength_on_random_states(self, rng):
        # Gaussian saturation: the entropic sum/diff witness fires whenever
        # the variance-product version does
        for _ in range(50):
            state = GaussianState(random_two_mode_cov(rng))
            if reid_sumdiff_cv(state).violation_bits > 1e-9:
                assert entropic_sumdiff_cv(state).violation_bits > 0


class TestTmsvOracle:
    """Each CV witness against its closed form (`conftest.tmsv_violations`)
    on tmsv(r) over the whole usable range. The error grows with the
    cancellation TestCancellation describes, as e^{4r} rounding units: it is
    8.9e-6 at r = 6.2."""

    @pytest.mark.parametrize("witness,args", [
        (walborn_cv, ("AtoB",)), (walborn_cv, ("BtoA",)), (reid_sumdiff_cv, ()),
        (entropic_sumdiff_cv, ()),
    ], ids=["walborn_cv-AtoB", "walborn_cv-BtoA", "reid_sumdiff_cv", "entropic_sumdiff_cv"])
    def test_matches_the_closed_form(self, witness, args):
        for r in [*np.linspace(0.0, TMSV_R_MAX, 311).tolist(), TMSV_R_MAX]:
            got = witness(tmsv(r), *args).violation_bits
            want = tmsv_violations(r)[witness.__name__]
            assert abs(got - want) <= 1e-12 + 4e-16 * math.exp(4.0 * r), r


class TestCancellation:
    """A TMSV variance is e^{-2r}, taken as a difference of terms of size
    e^{2r}; past TMSV_R_MAX the witnesses raise instead of losing digits."""

    @pytest.mark.parametrize("r", [6.0, TMSV_R_MAX])
    def test_inside_the_range_keeps_its_digits(self, r):
        state = tmsv(r)
        # conditional variances 1 / (2 cosh 2r); sum/difference variances e^{-2r}
        for direction in ("AtoB", "BtoA"):
            assert walborn_cv(state, direction).violation_bits == pytest.approx(
                np.log2(np.cosh(2.0 * r)), abs=2e-5
            )
        assert entropic_sumdiff_cv(state).violation_bits == pytest.approx(
            2.0 * r / np.log(2) - 1.0, abs=2e-5
        )
        assert 0.25 - reid_sumdiff_cv(state).violation_bits == pytest.approx(
            np.exp(-4.0 * r), rel=1e-4
        )

    @pytest.mark.parametrize("r", [9.0, 10.0])
    @pytest.mark.parametrize(
        "witness", [walborn_cv, reid_sumdiff_cv, entropic_sumdiff_cv]
    )
    def test_beyond_the_range_raises(self, r, witness):
        # r = 9 used to be off by 0.03 bits; r = 10 failed with a math domain error
        with pytest.raises(ValueError, match=r"usable for 0 <= r <= 6\.2$"):
            witness(tmsv(r))

    @pytest.mark.parametrize("r", [7.0, 200.0, 400.0, 1e308, float("inf")])
    @pytest.mark.parametrize(
        "witness", [walborn_cv, reid_sumdiff_cv, entropic_sumdiff_cv]
    )
    def test_far_beyond_the_range_raises_before_overflow(self, r, witness):
        # r = 200 used to square past float64 (a RuntimeWarning), r = 400
        # overflowed math.cosh in tmsv; every r past the range names it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"usable for 0 <= r <= 6\.2$"):
                witness(tmsv(r))

    def test_entries_too_large_to_square_are_refused(self):
        # a legal but huge covariance: its squares would overflow in the witnesses
        cov = 1e160 * np.eye(4) + 0.9e160 * np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"too large to square; .* <= 6\.2$"):
                GaussianState(cov)

    @pytest.mark.parametrize("r", [-1.0, float("nan")])
    def test_tmsv_rejects_negative_and_nan(self, r):
        with pytest.raises(ValueError, match="must be >= 0"):
            tmsv(r)

    def test_range_is_below_the_cut(self):
        # the cut falls where e^{4r} reaches 2**36
        assert TMSV_R_MAX < 36 * np.log(2) / 4 < TMSV_R_MAX + 0.05
