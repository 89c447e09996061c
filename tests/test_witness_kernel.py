"""The five discrete witnesses against the loop oracles, and the physics
invariants every witness must keep.

Each witness call computes all its joint distributions in one stacked
contraction, padding the joints of measurements with fewer outcomes; the
configurations below mix bases and POVMs with 2, 3 and 4 outcomes so that
padded and unpadded joints share a stack.
"""

import numpy as np
import pytest
from conftest import loop_violation, random_basis, random_density, random_povm
from hypothesis import given, settings
from hypothesis import strategies as st

import entrosteer
from entrosteer import (
    DensityMatrix,
    Povm,
    ProjectiveBasis,
    mub_set,
    random_unitary,
    rotate_basis,
    violation_gap,
)

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.sampled_from([2, 3])


def trine(rng, d):
    """Three outcomes: the qubit trine in a random frame for d = 2, a random
    three-outcome POVM otherwise."""
    if d != 2:
        return random_povm(rng, d, 3)
    u = random_unitary(2, rng)
    kets = [u @ np.array([np.cos(t), np.sin(t)]) for t in 2 * np.pi * np.arange(3) / 3]
    return Povm(2, tuple(2 / 3 * np.outer(v, v.conj()) for v in kets))


def configuration(seed, d):
    """A random two-qudit state and one call of every witness form:
    (witness name, measurements, keyword arguments)."""
    rng = np.random.default_rng(seed)
    rho = random_density(rng, d, d)
    u = random_unitary(d, rng)
    mub = [rotate_basis(b, u) for b in mub_set(d)]
    bases = [random_basis(rng, d) for _ in range(4)]
    three, two = trine(rng, d), random_povm(rng, d, 2)
    many = random_povm(rng, d, int(rng.integers(2, 5)))
    # a conditioning side of mixed outcome counts for the MUB witnesses
    others = [three, bases[0], two, many][: d + 1]
    signs = tuple(rng.choice(["plus", "minus"], size=2))
    calls = []
    for direction in ("AtoB", "BtoA"):
        calls += [
            # the r pair has 3 and 2 outcomes: the stack must group unequal counts
            ("pair_conditional", (three, bases[0], two, many), {"direction": direction}),
            ("pair_conditional", tuple(bases), {"direction": direction}),
        ]
    calls += [
        ("pair_symmetric_mi", tuple(bases), {}),
        ("sumdiff_discrete", tuple(bases), {"signs": signs}),
        # a 3 x 3 joint and a 2 x 2 joint, padded into one stack
        ("sumdiff_discrete", (three, two, three, two), {"signs": signs}),
        ("mub_conditional", (others, mub), {"direction": "AtoB"}),
        ("mub_conditional", (mub, others), {"direction": "BtoA"}),
        ("mub_mi", (others, mub), {}),
    ]
    return rho, calls


def violations(rho, calls):
    return [getattr(entrosteer, name)(rho, *meas, **kw).violation_bits
            for name, meas, kw in calls]


def mapped(calls, fn):
    """The calls with every measurement m replaced by fn(name, alice, m);
    Alice's measurements are the first half of each call's arguments."""
    def one(name, alice, m):
        return [fn(name, alice, x) for x in m] if isinstance(m, list) else fn(name, alice, m)
    return [(name, tuple(one(name, 2 * k < len(meas), m) for k, m in enumerate(meas)), kw)
            for name, meas, kw in calls]


@settings(max_examples=40, deadline=None)
@given(SEEDS, DIMS)
def test_every_witness_matches_the_loop_oracle(seed, d):
    rho, calls = configuration(seed, d)
    for (name, meas, kw), got in zip(calls, violations(rho, calls)):
        want = loop_violation(name, rho, *meas, **kw)
        assert abs(got - want) < 1e-12, (name, kw)


@settings(max_examples=30, deadline=None)
@given(SEEDS, DIMS)
def test_relabelling_outcomes_leaves_every_violation_unchanged(seed, d):
    rho, calls = configuration(seed, d)
    rng = np.random.default_rng(seed + 1)

    def relabel(name, alice, m):
        n = len(m.vectors) if isinstance(m, ProjectiveBasis) else len(m.elements)
        # modular sums keep their entropy under cyclic relabellings only
        perm = ((np.arange(n) + rng.integers(n)) % n if name == "sumdiff_discrete"
                else rng.permutation(n))
        if isinstance(m, ProjectiveBasis):
            return ProjectiveBasis(m.dim, m.vectors[perm])
        return Povm(m.dim, tuple(m.elements[i] for i in perm))

    before = violations(rho, calls)
    after = violations(rho, mapped(calls, relabel))
    assert np.max(np.abs(np.subtract(after, before))) < 1e-12


@settings(max_examples=30, deadline=None)
@given(SEEDS, DIMS)
def test_local_unitaries_leave_every_violation_unchanged(seed, d):
    rho, calls = configuration(seed, d)
    rng = np.random.default_rng(seed + 1)
    u, v = random_unitary(d, rng), random_unitary(d, rng)
    w = np.kron(u, v)
    rotated = DensityMatrix(rho.dims, w @ rho.mat @ w.conj().T)

    def rotate(name, alice, m):
        g = u if alice else v
        if isinstance(m, ProjectiveBasis):
            return rotate_basis(m, g)
        return Povm(m.dim, tuple(g @ e @ g.conj().T for e in m.elements))

    before = violations(rho, calls)
    after = violations(rotated, mapped(calls, rotate))
    assert np.max(np.abs(np.subtract(after, before))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(SEEDS, DIMS)
def test_maximally_mixed_b_marginal_gives_zero_gap(seed, d):
    # a mixture of locally rotated maximally entangled states and product
    # states sigma_A (x) I/d: every term has B marginal I/d
    rng = np.random.default_rng(seed)
    phi = np.eye(d).reshape(d * d) / np.sqrt(d)
    mat = np.zeros((d * d, d * d), dtype=complex)
    weights = rng.dirichlet(np.ones(3))
    for k in range(2):
        psi = np.kron(random_unitary(d, rng), np.eye(d)) @ phi
        mat += weights[k] * np.outer(psi, psi.conj())
    mat += weights[2] * np.kron(random_density(rng, d, 1).mat, np.eye(d) / d)
    rho = DensityMatrix((d, d), mat)
    assert abs(violation_gap(rho, random_basis(rng, d), random_basis(rng, d))) < 1e-12


def test_unequal_outcome_counts_share_one_stack():
    # a qubit trine on Alice, a two-outcome POVM on Bob: the padded 3 x 3
    # slice holds the 3 x 2 joint and a zero column
    from entrosteer.measure import _set_record, _set_statistics

    rng = np.random.default_rng(5)
    rho = random_density(rng, 2, 2)
    three, two = trine(rng, 2), random_povm(rng, 2, 2)
    x = random_basis(rng, 2)
    p, _ = _set_statistics(rho, _set_record(((three, two), (x, three))))
    assert p.shape == (2, 3, 3)
    assert np.all(p[0, :, 2] == 0.0) and np.all(p[1, 2, :] == 0.0)
    assert not p.flags.writeable
    for k, (a, b) in enumerate([(three, two), (x, three)]):
        joint = entrosteer.joint_distribution(rho, a, b).probs
        assert np.array_equal(p[k, : joint.shape[0], : joint.shape[1]], joint)


@pytest.mark.parametrize("d", [2, 3])
def test_mixed_counts_in_sumdiff_need_square_joints(d):
    rng = np.random.default_rng(d)
    rho = random_density(rng, d, d)
    three, two = trine(rng, d), random_povm(rng, d, 2)
    with pytest.raises(ValueError, match="square joint, got shape \\(3, 2\\)"):
        entrosteer.sumdiff_discrete(rho, three, two, two, two)


@pytest.mark.parametrize("m", range(2, 9))
def test_one_state_left_sum_gives_the_survey_bits(m):
    # one state's terms are added as Python floats, a survey's column by
    # column; both must round alike, signed zeros included
    from entrosteer.witness import _left_sum

    rng = np.random.default_rng(m)
    mixed = np.where(rng.random(m) < 0.5, -0.0, rng.random(m) * 1e-9)
    for terms in (rng.random(m) * 3.0, np.full(m, -0.0), mixed):
        one, survey = _left_sum(terms), _left_sum(terms[None])
        assert survey.shape == (1,)
        assert float(one).hex() == float(survey[0]).hex()


def test_full_mub_conditional_on_a_qudit_7_state_matches_the_loop_oracle():
    # 8 terms: the first sum that numpy's pairwise `.sum()` would round differently
    rng = np.random.default_rng(7)
    rho = random_density(rng, 7, 7)
    mub = mub_set(7)
    for direction in ("AtoB", "BtoA"):
        got = entrosteer.mub_conditional(rho, mub, mub, direction=direction).violation_bits
        want = loop_violation("mub_conditional", rho, mub, mub, direction=direction)
        assert abs(got - want) < 1e-12


def _bits(x) -> bytes:
    # a float's bits; every NaN alike, since only the value is the contract
    return b"nan" if x != x else np.float64(x).tobytes()


_ENTROPY = st.one_of(st.floats(0.0, 8.0), st.sampled_from([0.0, -0.0, 1e-300, 5e-324]),
                     st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_ENTROPY, _ENTROPY, _ENTROPY), min_size=1, max_size=9))
def test_one_state_sums_give_row_zero_of_the_stack_bit_for_bit(terms):
    # one state's entropies go through Python floats, a survey's through
    # numpy: the same subtractions, clamps and left fold, so the same bits
    from entrosteer.witness import _conditional_sum, _mi_sum

    h_joint, h_a, h_b = (np.array(column) for column in zip(*terms))
    with np.errstate(invalid="ignore", over="ignore"):   # inf - inf in the stack path
        for one, stack in [
            (_conditional_sum(h_joint, h_a), _conditional_sum(h_joint[None], h_a[None])),
            (_conditional_sum(h_joint, h_b), _conditional_sum(h_joint[None], h_b[None])),
            (_mi_sum(h_joint, h_a, h_b), _mi_sum(h_joint[None], h_a[None], h_b[None])),
        ]:
            assert type(one) is float and stack.shape == (1,)
            assert _bits(one) == _bits(stack[0])
