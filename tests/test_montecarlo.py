import inspect
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from entrosteer import (
    BracketError,
    DensityMatrix,
    Povm,
    basis_sweep,
    concurrence,
    mub_conditional,
    mub_mi,
    optimize_bases,
    pair_conditional,
    partial_trace,
    pauli_bases,
    random_mixed_state,
    random_pure_state,
    separable_audit,
    singlet_state,
    soundness_audit,
    survey_fig1,
    survey_fig2,
    threshold_bisect,
    von_neumann_entropy,
    werner_state,
)
from entrosteer.montecarlo import (
    _BLOCK,
    _ensemble_stack,
    _fig1_kernel,
    _sampled_blocks,
    _separable_stack,
    _soundness_audit,
    _worker_count,
)
from entrosteer.streams import _derived_seeds

AUDIT_KEYS = {
    "pair_conditional_AtoB",
    "pair_conditional_BtoA",
    "pair_symmetric_mi",
    "mub_conditional_AtoB",
    "mub_conditional_BtoA",
    "mub_mi",
    "sumdiff_discrete",
    "povm_pair_conditional_AtoB",
    "povm_pair_conditional_BtoA",
}


def smeared_pair(eta=0.2):
    x, _, z = pauli_bases()
    eye = np.eye(2, dtype=complex)

    def smear(basis):
        els = tuple(
            (1 - eta) * np.outer(v, v.conj()) + eta * eye / 2 for v in basis.vectors
        )
        return Povm(2, els)

    return smear(x), smear(z)


@pytest.mark.parametrize(
    "threads,items,cpus,expected",
    [
        (1, 10, 8, 1),
        (4, 10, 8, 4),
        (10_000, 5, 8, 5),       # never more threads than work items
        (10_000, 10_000, 2, 2),  # never more threads than CPUs
        (4, 0, 8, 1),
        (4, 10, None, 4),        # CPU count unknown: the other caps hold
        (10_000, 5, None, 5),
    ],
)
def test_worker_count_is_capped(threads, items, cpus, expected):
    assert _worker_count(threads, items, cpus) == expected


def _ensemble_states(n: int, ensemble: str, seed: int) -> list[DensityMatrix]:
    # the states `survey_fig1(n, ensemble, default_rng(seed))` evaluates
    seeds = _derived_seeds(np.random.default_rng(seed), n)
    return [DensityMatrix((2, 2), m) for m in _ensemble_stack(ensemble, seeds)]


def _separable_states(n: int, k_max: int, seed: int) -> list[DensityMatrix]:
    # the states `separable_audit(n, k_max, default_rng(seed))` audits
    seeds = _derived_seeds(np.random.default_rng(seed), n)
    return [DensityMatrix((2, 2), m) for m in _separable_stack(seeds, k_max)]


class TestSampleEnsemble:
    def test_deterministic(self):
        a = [cols for _, cols in survey_fig1(6, "mixed", np.random.default_rng(3))]
        b = [cols for _, cols in survey_fig1(6, "mixed", np.random.default_rng(3))]
        assert len(a) == len(b) == 1 and np.array_equal(a[0], b[0])

    def test_pure_ensemble_is_pure(self):
        for s in _ensemble_states(20, "pure", 4):
            assert abs(np.trace(s.mat @ s.mat).real - 1.0) < 1e-12

    def test_mixed_ensemble_spans_ranks(self):
        ranks = {int(np.sum(np.linalg.eigvalsh(s.mat) > 1e-10))
                 for s in _ensemble_states(200, "mixed", 5)}
        assert ranks == {1, 2, 3, 4}

    def test_rejects_bad_ensemble(self):
        with pytest.raises(ValueError):
            survey_fig1(3, "thermal", np.random.default_rng(0))
        with pytest.raises(ValueError):
            survey_fig1(0, "pure", np.random.default_rng(0))


class TestSurveyFig1:
    def test_records_match_single_state_witnesses(self):
        states = _ensemble_states(40, "mixed", 8)
        triple = pauli_bases()
        [(_, cols)] = survey_fig1(40, "mixed", np.random.default_rng(8))
        assert cols.shape == (40, 4)
        for (c_ab, c_ba, c_sym, purity), rho in zip(cols.tolist(), states):
            v_ab = mub_conditional(rho, triple, triple).violation_bits
            v_ba = mub_conditional(rho, triple, triple, direction="BtoA").violation_bits
            v_m = mub_mi(rho, triple, triple).violation_bits
            pur = 1.0 - von_neumann_entropy(rho) / 2.0
            assert abs(c_ab - v_ab) < 1e-12
            assert abs(c_ba - v_ba) < 1e-12
            assert abs(c_sym - v_m) < 1e-12
            assert purity == pur   # one spectral entropy rule

    def test_conditional_dominates_symmetric(self):
        for _, cols in survey_fig1(300, "mixed", np.random.default_rng(9)):
            assert np.all(cols[:, 0] >= cols[:, 2] - 1e-12)

    def test_pure_ensemble_purity_is_one(self):
        for _, cols in survey_fig1(20, "pure", np.random.default_rng(11)):
            assert np.all(np.abs(cols[:, 3] - 1.0) < 1e-9)

    def test_state_ids_sequential(self):
        # each block's offset is the state id of its first row
        blocks = survey_fig1(2500, "mixed", np.random.default_rng(12))
        ids = [lo + i for lo, cols in blocks for i in range(len(cols))]
        assert ids == list(range(2500))

    @pytest.mark.parametrize("stream", [
        lambda n, rng: survey_fig1(n, "mixed", rng),
        lambda n, rng: _sampled_blocks(n, rng, lambda seeds: _separable_stack(seeds, 1),
                                       lambda mats, _: _soundness_audit(mats)),
    ], ids=["survey_fig1", "separable-blocks"])
    def test_first_blocks_of_a_huge_survey_hold_one_block(self, stream):
        # the first two blocks of 10**8 states peak as those of 2048 states do:
        # nothing is built for the blocks not reached (a list of all 97657
        # blocks' slices took about 12 MB)
        peaks = []
        for n in (2048, 10**8, 2048, 10**8):   # the first two, one-time allocations
            tracemalloc.start()
            try:
                for _ in itertools.islice(stream(n, np.random.default_rng(3)), 2):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[3] <= 1.1 * peaks[2]
        assert peaks[3] < 2 * 2**20


class TestOptimizeBases:
    def test_singlet_approaches_two(self):
        res = optimize_bases(
            singlet_state().to_density(), 500, np.random.default_rng(21)
        )
        assert res.best_v_AtoB > 1.6
        assert abs(res.best_v_AtoB - res.best_v_BtoA) < 1e-9

    def test_more_trials_never_worse(self):
        rho = werner_state(0.85)
        small = optimize_bases(rho, 300, np.random.default_rng(22))
        large = optimize_bases(rho, 1200, np.random.default_rng(22))
        assert large.best_v_AtoB >= small.best_v_AtoB
        assert large.best_v_BtoA >= small.best_v_BtoA

    def test_product_state_never_violates(self, rng):
        vec = np.kron([1, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)]).astype(complex)
        rho = DensityMatrix((2, 2), np.outer(vec, vec.conj()))
        res = optimize_bases(rho, 400, np.random.default_rng(23))
        assert res.best_v_AtoB < 1e-9
        assert res.best_v_BtoA < 1e-9

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            optimize_bases(werner_state(0.5), 0, np.random.default_rng(0))


class TestBasisSweep:
    def test_maximally_mixed_constant(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        for v_ab, v_ba in basis_sweep(rho, 50, np.random.default_rng(31)):
            assert abs(v_ab + 1.0) < 1e-9
            assert abs(v_ba + 1.0) < 1e-9

    def test_werner_directions_coincide(self):
        pairs = basis_sweep(werner_state(0.9), 200, np.random.default_rng(32))
        for v_ab, v_ba in pairs:
            assert abs(v_ab - v_ba) < 1e-9

    def test_prefix_stability(self):
        rho = werner_state(0.8)
        long = basis_sweep(rho, 1300, np.random.default_rng(33))
        short = basis_sweep(rho, 400, np.random.default_rng(33))
        assert long[:400] == short

    def test_bounded_above_by_ideal(self):
        pairs = basis_sweep(singlet_state().to_density(), 300, np.random.default_rng(34))
        for v_ab, v_ba in pairs:
            assert v_ab <= 2.0 + 1e-9
            assert v_ba <= 2.0 + 1e-9


class TestSurveyFig2:
    def test_shapes_and_ids(self):
        out = survey_fig2(6, "mixed", 60, np.random.default_rng(41))
        assert [res.state_id for res, _ in out] == list(range(6))
        for res, purity in out:
            assert 0.0 <= purity <= 1.0 + 1e-12
            assert res.trials == 60

    def test_numpy_integer_counts_give_python_numbers(self):
        # the checked counts are bound: `trials` came back a numpy.int64,
        # which json.dumps refuses
        out = survey_fig2(np.int64(2), "mixed", np.int64(3), np.random.default_rng(44),
                          threads=np.int64(2))
        assert len(out) == 2
        for res, purity in out:
            values = [getattr(res, name) for name in res._fields] + [purity]
            assert [type(v) for v in values] == [int, float, float, int, int, float]
        json.dumps(out)

    def test_thread_count_does_not_change_results(self):
        a = survey_fig2(8, "pure", 40, np.random.default_rng(42), threads=1)
        b = survey_fig2(8, "pure", 40, np.random.default_rng(42), threads=2)
        assert a == b

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("ensemble", ["pure", "mixed"])
    def test_items_replayable_from_recorded_seed(self, ensemble, threads):
        # each row again from its seed alone: the scalar constructor's draws,
        # then the trials, on the same stream
        out = survey_fig2(8, ensemble, 50, np.random.default_rng(43), threads=threads)
        for res, _ in out:
            g = np.random.default_rng(res.seed)
            if ensemble == "pure":
                rho = random_pure_state(2, 2, g).to_density()
            else:
                rho = random_mixed_state(2, 2, int(g.integers(1, 5)), g)
            again = optimize_bases(rho, 50, g)
            assert again.best_v_AtoB == res.best_v_AtoB
            assert again.best_v_BtoA == res.best_v_BtoA


class TestThresholdBisect:
    def test_linear_root(self):
        assert abs(threshold_bisect(lambda x: x - 0.3, 0.0, 1.0, tol=1e-9) - 0.3) < 1e-8

    def test_werner_pair_threshold(self):
        x, _, z = pauli_bases()

        def fam(p):
            return pair_conditional(werner_state(p), x, z, x, z).violation_bits

        p_star = threshold_bisect(fam, 0.5, 0.99, tol=1e-7)
        assert abs(p_star - 0.7799442711232785) < 1e-5

    def test_werner_mub_threshold(self):
        triple = pauli_bases()

        def fam(p):
            return mub_conditional(werner_state(p), triple, triple).violation_bits

        p_star = threshold_bisect(fam, 0.5, 0.99, tol=1e-7)
        assert abs(p_star - 0.6520953371812113) < 1e-5

    def test_no_bracket_raises(self):
        with pytest.raises(BracketError):
            threshold_bisect(lambda x: x - 0.3, 0.5, 1.0, tol=1e-6)
        with pytest.raises(BracketError):
            threshold_bisect(lambda x: x - 0.3, 0.0, 0.2, tol=1e-6)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            threshold_bisect(lambda x: x, -1.0, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            threshold_bisect(lambda x: x, -1.0, 1.0, tol=float("nan"))

    @pytest.mark.parametrize(
        "family,where",
        [
            # a NaN midpoint moved `hi`, and 0.3000000002793968 came back
            (lambda p: math.nan if 0.3 < p < 0.6 else p - 0.7, "0.5"),
            (lambda p: math.nan if p == 0.0 else p - 0.7, "0.0"),
            (lambda p: math.nan if p == 1.0 else p - 0.7, "1.0"),
        ],
        ids=["inside", "lo", "hi"],
    )
    def test_a_nan_value_raises_naming_the_parameter(self, family, where):
        with pytest.raises(ValueError, match=rf"^witness family is NaN at parameter {where}$"):
            threshold_bisect(family, 0.0, 1.0, tol=1e-9)

    @pytest.mark.parametrize(
        "family,lo,hi",
        [
            (lambda p: -1.0 if p < 0.5 else 1.0, -math.inf, 1.0),
            (lambda p: -1.0 if p < 0.5 else 1.0, 0.0, math.inf),
            (lambda p: -1.0 if p < 0.5 else 1.0, 0.0, math.nan),
            # a midpoint sum overflows once lo has moved past 8e307
            (lambda p: p - 1.65e308, -1e307, 1.7e308),
        ],
        ids=["lo-inf", "hi-inf", "hi-nan", "sum-overflows"],
    )
    def test_endpoints_beyond_2_1022_raise(self, family, lo, hi):
        # each of these returned an infinite or NaN crossing
        with pytest.raises(ValueError, match=r"^bracket endpoints must lie within 2\*\*1022"):
            threshold_bisect(family, lo, hi, tol=1e-6)

    @pytest.mark.parametrize("lo,hi", [(0.9, 0.1), (0.5, 0.5)], ids=["reversed", "empty"])
    def test_endpoints_out_of_order_raise(self, lo, hi):
        # a reversed bracket passed the sign check and came back unbisected as 0.5
        with pytest.raises(ValueError, match=r"^bracket needs lo < hi, got "):
            threshold_bisect(lambda p: 0.3 - p, lo, hi, tol=1e-6)

    def test_tolerance_below_float_spacing_stops(self):
        calls = []

        def fam(p):
            calls.append(p)
            if len(calls) > 200:
                raise AssertionError("bisection did not stop")
            return p - 0.7

        p_star = threshold_bisect(fam, 0.5, 0.99, tol=1e-300)
        assert abs(p_star - 0.7) <= math.ulp(0.7)


class TestSeparableSample:
    def test_all_ppt(self):
        ppt_min, _ = separable_audit(300, 4, np.random.default_rng(51))
        assert ppt_min >= -1e-12

    def test_valid_density_matrices(self):
        for s in _separable_states(50, 3, 52):
            assert abs(np.trace(s.mat).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(s.mat).min() > -1e-12

    def test_kmax_one_gives_products(self):
        for s in _separable_states(40, 1, 53):
            assert concurrence(s) < 1e-7

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            separable_audit(0, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            separable_audit(5, 0, np.random.default_rng(0))


class TestPptMinEigenvalue:
    def test_singlet(self):
        assert abs(soundness_audit([singlet_state().to_density()])[0] + 0.5) < 1e-12

    def test_batch_takes_minimum(self):
        states = [werner_state(0.0), singlet_state().to_density()]
        assert abs(soundness_audit(states)[0] + 0.5) < 1e-12


class TestSoundnessAudit:
    def test_key_set(self):
        _, audit = soundness_audit([werner_state(0.5)])
        assert set(audit) == AUDIT_KEYS

    def test_separable_states_never_violate(self):
        _, audit = separable_audit(400, 4, np.random.default_rng(61))
        for name, worst in audit.items():
            assert worst <= 1e-9, name

    @pytest.mark.parametrize("n,k_max,seed", [(2100, 4, 5), (3000, 12, 13)])
    def test_a_list_audit_folds_as_the_sampled_audit(self, n, k_max, seed):
        # the states of a sampled audit, given as a list, run through the same
        # blocks and fold: the PPT minimum and every maximum agree bit for bit
        assert len(range(0, n, _BLOCK)) == 3
        ppt_min, maxima = separable_audit(n, k_max, np.random.default_rng(seed))
        again, maxima_again = soundness_audit(_separable_states(n, k_max, seed))
        assert again.hex() == ppt_min.hex()
        assert {k: v.hex() for k, v in maxima_again.items()} == {
            k: v.hex() for k, v in maxima.items()}

    def test_xz_bound_is_the_pair_witness_bound(self):
        # the singlet's X/Z conditional sums are exactly 0 in the audit, so
        # its two values are the bound itself; log2 of an unclipped
        # overlap_omega(X, Z) read 1.0000000000000002
        rho = singlet_state().to_density()
        _, audit = soundness_audit([rho])
        x, _, z = pauli_bases()
        bound = pair_conditional(rho, x, z, x, z).bound_bits
        assert audit["pair_conditional_AtoB"] == audit["pair_conditional_BtoA"] == bound == 1.0

    def test_values_match_public_witnesses(self):
        rho = werner_state(0.9)
        _, audit = soundness_audit([rho])
        x, _, z = pauli_bases()
        triple = pauli_bases()
        px, pz = smeared_pair()
        assert abs(
            audit["pair_conditional_AtoB"]
            - pair_conditional(rho, x, z, x, z).violation_bits
        ) < 1e-9
        assert abs(
            audit["mub_conditional_AtoB"]
            - mub_conditional(rho, triple, triple).violation_bits
        ) < 1e-9
        assert abs(audit["mub_mi"] - mub_mi(rho, triple, triple).violation_bits) < 1e-9
        assert abs(
            audit["povm_pair_conditional_AtoB"]
            - pair_conditional(rho, px, pz, px, pz).violation_bits
        ) < 1e-9

    def test_singlet_triggers_every_projective_witness(self):
        _, audit = soundness_audit([singlet_state().to_density()])
        for name in AUDIT_KEYS - {"povm_pair_conditional_AtoB",
                                  "povm_pair_conditional_BtoA"}:
            assert audit[name] > 0.5, name

    def test_rejects_non_two_qubit(self, rng):
        from conftest import random_density

        with pytest.raises(ValueError):
            soundness_audit([random_density(rng, 3, 3)])

    def test_an_audit_of_three_blocks_keeps_the_callers_cached_sets(self, monkeypatch, tmp_path):
        # the audit builds its measurements and bounds once and adds nothing
        # to the witnesses' set cache, so a caller's full cache survives it
        from entrosteer import measure, montecarlo, random_unitary, rotate_basis
        from entrosteer.cli import main

        monkeypatch.setattr(montecarlo, "_BLOCK", 4)
        rng = np.random.default_rng(7)
        x, _, z = pauli_bases()
        sets = []
        for _ in range(measure.SET_CACHE_SIZE):
            u = random_unitary(2, rng)
            r, s = rotate_basis(x, u), rotate_basis(z, u)
            pair_conditional(werner_state(0.7), r, s, r, s)
            sets.append(((r, r), (s, s)))
        montecarlo._audit_constants.cache_clear()
        omegas = []
        monkeypatch.setattr(montecarlo, "povm_omega",
                            lambda *a: omegas.append(a) or measure.povm_omega(*a))
        before = measure._set_record.cache_info()
        states = _separable_states(12, 2, 3)
        assert len(range(0, len(states), montecarlo._BLOCK)) == 3   # blocks of 4, 4 and 4
        soundness_audit(states)
        assert main(["separable-audit", "--n", "10", "--out", str(tmp_path / "a.json")]) == 0
        assert len(omegas) == 1
        assert measure._set_record.cache_info() == before
        for pairs in sets:
            measure._set_record(pairs)
        assert measure._set_record.cache_info().misses == before.misses


_SINGLET = singlet_state().to_density().mat


class TestStateListInputs:
    """The one entry point that takes a list of states checks it at its
    boundary: two-qubit `DensityMatrix` states, at least one of them."""

    @pytest.mark.parametrize("entry", [soundness_audit], ids=["soundness_audit"])
    @pytest.mark.parametrize(
        "states,error,match",
        [
            ([], ValueError, "needs at least one state"),
            # the singlet's matrix read as a (4, 1) state: its 2x2 partial
            # transpose is negative, but the (4, 1) one is not
            ([DensityMatrix((4, 1), _SINGLET)], ValueError, r"got dims \(4, 1\)"),
            ([DensityMatrix((3, 3), np.eye(9) / 9)], ValueError, r"got dims \(3, 3\)"),
            (_SINGLET, TypeError, "takes DensityMatrix states, got ndarray"),
            ([werner_state(0.5), _SINGLET], TypeError, "got ndarray"),
        ],
        ids=["empty", "dims-4x1", "dims-3x3", "bare-array", "array-in-list"],
    )
    def test_rejects(self, entry, states, error, match):
        with pytest.raises(error, match=match):
            entry(states)


def _one_bad_state(fault):
    # an unvalidated stack of Werner states with one faulty matrix in it
    mats = np.stack([werner_state(p).mat for p in (0.2, 0.5, 0.9)])
    if fault == "non-hermitian":
        mats[1, 0, 1] += 0.1    # <k|rho|k> gains an imaginary part for Y (x) Y
    else:
        mats[1] *= 1.1          # trace 1.1: every joint sums to 1.1
    return mats


@pytest.mark.parametrize(
    "fault,message",
    [
        ("non-hermitian", "non-negligible imaginary part"),
        ("off-trace", "probabilities sum to .*, not 1 within"),
    ],
    ids=["non-hermitian", "off-trace"],
)
@pytest.mark.parametrize(
    "kernel",
    [
        lambda mats: _fig1_kernel(mats, np.full((len(mats), 4), 0.25)),
        lambda mats: _soundness_audit(mats),
    ],
    ids=["fig1", "audit"],
)
def test_survey_kernels_run_the_probability_checks(kernel, fault, message):
    with pytest.raises(ValueError, match=message):
        kernel(_one_bad_state(fault))


class TestThreadCounts:
    """`survey_fig2`, the one survey with a thread pool, takes `threads`: a
    count >= 1, checked before anything is drawn from the caller's generator.
    The others run on one thread and take no `threads` at all."""

    _CALLS = {"survey_fig2": lambda rng, threads: survey_fig2(2, "mixed", 3, rng, threads=threads)}

    def _call(self, entry, rng, threads):
        return self._CALLS[entry](rng, threads)

    @pytest.mark.parametrize("entry", [survey_fig1, soundness_audit, separable_audit,
                                       _sampled_blocks, _fig1_kernel, _soundness_audit],
                             ids=lambda entry: entry.__name__)
    def test_serial_surveys_take_no_thread_count(self, entry):
        assert "threads" not in inspect.signature(entry).parameters

    @pytest.mark.parametrize("entry", sorted(_CALLS))
    @pytest.mark.parametrize("threads,error,message", [
        (0, ValueError, "threads must be >= 1, got 0"),
        (-5, ValueError, "threads must be >= 1, got -5"),
        (2.0, TypeError, "threads must be an integer, got float"),
        (True, TypeError, "threads must be an integer, got bool"),
    ], ids=["zero", "negative", "float", "bool"])
    def test_refused_before_sampling(self, entry, threads, error, message):
        # zero and negative counts ran one thread without a word
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(error, match=f"^{message}$"):
            self._call(entry, rng, threads)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("entry", sorted(_CALLS))
    def test_numpy_integer_threads_run(self, entry):
        a = self._call(entry, np.random.default_rng(5), np.int64(2))
        assert a == self._call(entry, np.random.default_rng(5), 1)


class TestSamplerArguments:
    """Every sampler checks all of its arguments before it draws the item
    seeds from the caller's generator, so a refused call leaves it as it was."""

    @pytest.mark.parametrize("call,error,message", [
        (lambda rng: survey_fig1(3, "thermal", rng), ValueError,
         "ensemble must be 'pure' or 'mixed', got 'thermal'"),
        (lambda rng: survey_fig2(3, "thermal", 2, rng), ValueError,
         "ensemble must be 'pure' or 'mixed', got 'thermal'"),
        # survey_fig1 checks its arguments when called, not when its stream is drained
        (lambda rng: survey_fig1(0, "mixed", rng), ValueError, "n must be >= 1, got 0"),
        (lambda rng: separable_audit(0, 2, rng), ValueError, "n must be >= 1, got 0"),
        (lambda rng: separable_audit(3, 0, rng), ValueError, "k_max must be >= 1, got 0"),
        (lambda rng: separable_audit(3, 2.0, rng), TypeError,
         "k_max must be an integer, got float"),
    ], ids=["survey_fig1-ensemble", "survey_fig2-ensemble", "survey_fig1-zero-n",
            "separable_audit-zero-n", "separable_audit-zero-k_max",
            "separable_audit-float-k_max"])
    def test_refused_before_sampling(self, call, error, message):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(error, match=f"^{message}$"):
            call(rng)
        assert rng.bit_generator.state == before
