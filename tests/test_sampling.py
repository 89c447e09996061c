"""Pinned survey output and per-item replay of the batched samplers.

The digests are SHA-256 sums of data files written by the per-object
samplers that preceded the batched ones (numpy 2.4, OpenBLAS 0.3.31, x86-64);
the batched samplers must reproduce them byte for byte. The fig2 and sweep
digests also pin the basis-search trial kernel. The replay tests rebuild
single items from their recorded seeds with the scalar constructors.
"""

import ctypes
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrosteer import (
    random_mixed_state,
    random_pure_state,
    sample_ensemble,
    separable_sample,
    survey_fig1,
)
from entrosteer import montecarlo, qmat, streams
from entrosteer.cli import main, save_state
from entrosteer.streams import _derived_seeds

PINNED = [
    (
        ["fig1", "--ensemble", "mixed", "--n", "2000", "--seed", "5"],
        "1bc0d0f7abf95005d0da0730d59095d7c9853fa66876c0a3fda1442a8c81046b",
    ),
    (
        ["fig1", "--ensemble", "pure", "--n", "2000", "--seed", "5"],
        "ab0c66e77370c3b15ef928f90798e069b232abeec81d161d7a8ede7321a85c5b",
    ),
    (
        ["separable-audit", "--n", "500", "--k-max", "4", "--seed", "5"],
        "86f99c64d9836385ccd2147994d00ab7147ad99f5266b07f425ce2634a4e0e85",
    ),
    (
        ["fig2", "--ensemble", "mixed", "--n", "30", "--trials", "200", "--seed", "5",
         "--threads", "2"],
        "3191ae254ed4b137424d7ded8c65e200e81a0f847bba566f328d91daf216691c",
    ),
    (
        ["fig2", "--ensemble", "pure", "--n", "30", "--trials", "200", "--seed", "5"],
        "8b0120126a3110558edcb7ab65a2d86cefef7aa9dc6d7ff06f721bd7b6dc9aee",
    ),
    (
        ["sweep", "--werner", "0.7", "--n", "2000", "--seed", "5"],
        "900eb1e43abbb979cefd8088ba6803c10ec67f03bfd943c72e97e275c41b3808",
    ),
    (
        # QUTRITS is replaced by a file holding random_mixed_state(3, 3, 2, default_rng(5))
        ["sweep", "--state-file", "QUTRITS", "--n", "2000", "--seed", "5"],
        "2270ae4e6c1406577bf5c86630fe3cac62d775fd54fb3c048f09fbf6969ce622",
    ),
]


@pytest.mark.parametrize(
    "argv,digest",
    PINNED,
    ids=["fig1-mixed", "fig1-pure", "separable-audit", "fig2-mixed", "fig2-pure",
         "sweep-werner", "sweep-qutrits"],
)
def test_pinned_output_digest(tmp_path, argv, digest):
    qutrits = tmp_path / "q3.json"
    save_state(str(qutrits), random_mixed_state(3, 3, 2, np.random.default_rng(5)))
    argv = [str(qutrits) if arg == "QUTRITS" else arg for arg in argv]
    out = tmp_path / "out.dat"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_mixed_items_replay_from_seed():
    states, seeds = sample_ensemble(300, "mixed", np.random.default_rng(61))
    ranks = set()
    for rho, seed in zip(states, seeds):
        g = np.random.default_rng(seed)
        rank = int(g.integers(1, 5))
        ranks.add(rank)
        assert np.array_equal(rho.mat, random_mixed_state(2, 2, rank, g).mat)
    assert ranks == {1, 2, 3, 4}


def test_pure_items_replay_from_seed():
    states, seeds = sample_ensemble(300, "pure", np.random.default_rng(62))
    for rho, seed in zip(states, seeds):
        again = random_pure_state(2, 2, np.random.default_rng(seed)).to_density()
        assert np.array_equal(rho.mat, again.mat)


def _separable_item(seed: int, k_max: int) -> np.ndarray:
    # the per-item construction: Dirichlet weights, then factor pairs in term order
    g = np.random.default_rng(seed)
    k = int(g.integers(1, k_max + 1))
    weights = g.dirichlet(np.ones(k))
    m = np.zeros((4, 4), dtype=complex)
    for w in weights:
        fa = random_mixed_state(2, 1, int(g.integers(1, 3)), g).mat
        fb = random_mixed_state(2, 1, int(g.integers(1, 3)), g).mat
        m += w * np.kron(fa, fb)
    return m


@pytest.mark.parametrize("n,k_max,seed", [
    pytest.param(200, 1, 63, id="1"),
    pytest.param(200, 4, 63, id="4"),
    pytest.param(3000, 4, 12, id="4-many-terms"),
    # from 8 terms on, .sum() adds pairwise: the weights must still be dirichlet's
    pytest.param(600, 12, 74, id="12"),
])
def test_separable_items_replay_from_seed(n, k_max, seed):
    states = separable_sample(n, k_max, np.random.default_rng(seed))
    seeds = _derived_seeds(np.random.default_rng(seed), n)
    for rho, item_seed in zip(states, seeds):
        assert np.array_equal(rho.mat, _separable_item(item_seed, k_max))
    if n == 3000:
        # the audit workload's draw: more terms than the expected count, plus slack
        terms = sum(int(np.random.default_rng(s).integers(1, k_max + 1)) for s in seeds)
        assert terms > n * (k_max + 1) // 2 + 64


@pytest.mark.parametrize("sample", [sample_ensemble, survey_fig1])
def test_unknown_ensemble_is_rejected(sample):
    with pytest.raises(ValueError, match="ensemble must be 'pure' or 'mixed', got 'bell'"):
        sample(3, "bell", np.random.default_rng(0))


@pytest.mark.parametrize("ensemble,n,stacks", [
    pytest.param("pure", 50, [(50, 4, 4)], id="pure"),
    pytest.param("mixed", 50, [(50, 4, 4)], id="mixed"),
    pytest.param("mixed", 1500, [(1024, 4, 4), (476, 4, 4)], id="mixed-two-blocks"),
])
def test_fig1_survey_validates_its_stack_once(monkeypatch, ensemble, n, stacks):
    # counts every DensityMatrix built and every eigvalsh call during a
    # survey: one validation, and one eigvalsh, per block of states
    calls = {"objects": 0, "eigvalsh": [], "stacks": []}
    post_init = qmat.DensityMatrix.__post_init__
    eigvalsh = np.linalg.eigvalsh
    validate = montecarlo.validate_density_stack

    def counted_post_init(self):
        calls["objects"] += 1
        post_init(self)

    def counted_eigvalsh(a, *args, **kwargs):
        calls["eigvalsh"].append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    def counted_validate(mats, offset=0):
        calls["stacks"].append(mats.shape)
        return validate(mats, offset)

    monkeypatch.setattr(qmat.DensityMatrix, "__post_init__", counted_post_init)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(montecarlo, "validate_density_stack", counted_validate)
    blocks = survey_fig1(n, ensemble, np.random.default_rng(64))
    assert sum(len(cols) for _, cols in blocks) == n
    assert calls == {"objects": 0, "eigvalsh": stacks, "stacks": stacks}


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 5000])
def test_sampled_blocks_draw_the_seeds_of_one_up_front_draw(n):
    # each block draws its seeds when it is reached: the same seeds, in the
    # same order, and the same final generator state as one draw of all n
    seen = []

    def sample(seeds):
        seen.extend(seeds)
        return np.tile(np.eye(4) / 4, (len(seeds), 1, 1))

    rng, reference = np.random.default_rng(n), np.random.default_rng(n)
    offsets = [lo for lo, _ in montecarlo._sampled_blocks(n, rng, sample, lambda *_: None)]
    assert offsets == list(range(0, n, montecarlo._BLOCK))
    assert seen == _derived_seeds(reference, n)
    assert rng.bit_generator.state == reference.bit_generator.state


# ---------------------------------------------------------------------------
# per-item streams derived in one vectorised SeedSequence and PCG64 pass

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 2]
_M64 = 2**64 - 1
# seed words whose limb sums and products carry in every column, and none
EDGE_WORDS = [
    [_M64] * 4,
    [0] * 4,
    [_M64, _M64, 0, 0],
    [0, 0, _M64, _M64],
    [_M64, 0, _M64, 0],
    [0, _M64, 0, _M64],
    [2**63, 2**63 - 1, 2**63, 2**63 - 1],
    [2**32 - 1, 2**32, 2**64 - 2**32, 2**32 - 1],
]


class _FixedWords(np.random.bit_generator.ISeedSequence):
    # a seed sequence handing PCG64 the given words, so numpy itself seeds
    # from words that no integer seed is known to hash to
    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert n_words == 4 and dtype == np.uint64
        return self.words.copy()


def _state_dict(state_hi, state_lo, inc_hi, inc_lo, uinteger=None) -> dict:
    # a `PCG64.state` from uint64 halves, with a buffered half word if given
    return {
        "bit_generator": "PCG64",
        "state": {"state": int(state_hi) << 64 | int(state_lo),
                  "inc": int(inc_hi) << 64 | int(inc_lo)},
        "has_uint32": int(uinteger is not None),
        "uinteger": int(uinteger or 0),
    }


def _derived_states(words):
    """The streams `_pcg64_states` derives from (n, 4) seed words, as
    `PCG64.state` dicts: seeded, and after the first `integers(1, 5)`, with
    that rank."""
    seeded, (hi, lo, uinteger, ranks) = streams._pcg64_states(
        np.array(words, dtype=np.uint64), ranked=True
    )
    inc = seeded[2:]
    return [
        (_state_dict(*(a[k] for a in seeded)),
         int(ranks[k]),
         _state_dict(hi[k], lo[k], inc[0][k], inc[1][k], uinteger[k]))
        for k in range(len(words))
    ]


def _numpy_states(g):
    # numpy's own seeded state, first integers(1, 5) and state after it
    seeded = g.bit_generator.state
    rank = int(g.integers(1, 5))
    return seeded, rank, g.bit_generator.state


def _check_seeds(seeds):
    words = streams._seed_words(seeds)
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for seed, w in zip(seeds, words):
        assert np.array_equal(w, np.random.SeedSequence(seed).generate_state(4, np.uint64))
    got = _derived_states(words)
    assert got == [_numpy_states(np.random.default_rng(s)) for s in seeds]


def test_seed_words_and_states_match_numpy_at_the_edges():
    _check_seeds(EDGE_SEEDS)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**63 - 2), min_size=1, max_size=8))
def test_seed_words_and_states_match_numpy(seeds):
    _check_seeds(seeds)


def test_states_match_numpy_on_carrying_words():
    got = _derived_states(EDGE_WORDS)
    expected = [_numpy_states(np.random.Generator(np.random.PCG64(_FixedWords(w))))
                for w in EDGE_WORDS]
    assert got == expected
    assert {rank for _, rank, _ in got} == {1, 2, 3, 4}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, _M64) | st.sampled_from([0, _M64, 2**63, 2**32]),
                         min_size=4, max_size=4), min_size=1, max_size=6))
def test_states_match_numpy_on_any_words(words):
    expected = [_numpy_states(np.random.Generator(np.random.PCG64(_FixedWords(w))))
                for w in words]
    assert _derived_states(words) == expected


def _draws(g):
    # an odd count of 32-bit draws leaves a buffered half word in the generator
    return (
        g.integers(0, 2**32, size=3, dtype=np.uint32).tolist(),
        g.standard_normal(5).tolist(),
        g.dirichlet(np.ones(3)).tolist(),
        int(g.integers(1, 5)),
    )


def test_item_streams_draw_as_default_rng():
    # the buffered half word `_draws` leaves must not reach the next item
    seeds = EDGE_SEEDS + _derived_seeds(np.random.default_rng(65), 20)
    got = [_draws(g) for g in streams._item_streams(seeds)]
    assert got == [_draws(np.random.default_rng(s)) for s in seeds]
    ranks = np.full(len(seeds), -1, dtype=np.intp)
    got = [_draws(g) for g in streams._item_streams(seeds, ranks=ranks)]
    expected = [_numpy_states(np.random.default_rng(s)) for s in seeds]
    assert ranks.tolist() == [rank for _, rank, _ in expected]
    ranked = []
    for s in seeds:
        g = np.random.default_rng(s)
        g.integers(1, 5)
        ranked.append(_draws(g))
    assert got == ranked


def test_live_item_streams_load_only_their_own_generator():
    # two loaders stepped in turn, one ranked: each writes its state words
    # into its own generator's memory only
    seeds = {False: _derived_seeds(np.random.default_rng(72), 8),
             True: EDGE_SEEDS[:4] + _derived_seeds(np.random.default_rng(73), 4)}
    ranks = np.full(8, -1, dtype=np.intp)
    items = {False: streams._item_streams(seeds[False]),
             True: streams._item_streams(seeds[True], ranks)}
    got = {False: [], True: []}
    for _ in range(8):
        for ranked in (False, True):
            got[ranked].append(_draws(next(items[ranked])))
    assert next(items[False], None) is None and next(items[True], None) is None
    for ranked in (False, True):
        expected = []
        for s in seeds[ranked]:
            g = np.random.default_rng(s)
            if ranked:
                g.integers(1, 5)
            expected.append(_draws(g))
        assert got[ranked] == expected
    assert ranks.tolist() == [int(np.random.default_rng(s).integers(1, 5)) for s in seeds[True]]


def _wrong_words(seeds, seed_words=streams._seed_words):
    words = seed_words(seeds)
    words[:, 0] ^= np.uint64(1)
    return words


def _halves_swapped(bit_gen, state_memory=streams._state_memory):
    # the derivation stays right; each state word is written where the other
    # half of its 128-bit value goes
    memory, order = state_memory(bit_gen)
    return memory, [j ^ 1 for j in order]


def _carry_dropped(hi, lo, add_hi, add_lo):
    # `_add128` with the low half's carry lost
    return hi + add_hi, lo + add_lo


@pytest.mark.parametrize(
    "attr,wrong",
    [("_seed_words", _wrong_words), ("_PCG_MULT", streams._PCG_MULT + 2),
     ("_add128", _carry_dropped), ("_state_memory", _halves_swapped)],
    ids=["words", "multiplier", "carry", "word-order"],
)
@pytest.mark.parametrize(
    "sample",
    [
        lambda rng: list(survey_fig1(4, "mixed", rng)),
        lambda rng: sample_ensemble(4, "pure", rng),
        lambda rng: separable_sample(4, 2, rng),
    ],
    ids=["fig1", "pure", "separable"],
)
def test_seeding_guard_refuses_a_wrong_state(monkeypatch, attr, wrong, sample):
    monkeypatch.setattr(streams, attr, wrong)
    with pytest.raises(RuntimeError, match="seeds default_rng differently"):
        sample(np.random.default_rng(66))


class _UnwrittenState:
    # a bit generator whose setter never writes the words its state address
    # leads to: an array of their own, or `offset` bytes past the head
    def __init__(self, offset=None):
        self.head, self.words = (ctypes.c_uint64 * 8)(), (ctypes.c_uint64 * 4)()
        self.head[0] = ctypes.addressof(self.words if offset is None else self.head) + (offset or 0)
        self.ctypes = SimpleNamespace(state_address=ctypes.addressof(self.head))
        self.state = None


def test_state_memory_refuses_an_unknown_layout():
    # state words more than 8 bytes of padding past uinteger, or over it, are
    # refused before the setter runs; within the padding, its marks are missing
    for offset in (None, 8, 16, 24, 32):
        bit_gen = _UnwrittenState(offset)
        before = bytes(bit_gen.head) + bytes(bit_gen.words)
        with pytest.raises(RuntimeError, match="does not lay out the PCG64 state"):
            streams._state_memory(bit_gen)
        assert (bit_gen.state is None) == (offset not in (16, 24))
        assert bytes(bit_gen.head) + bytes(bit_gen.words) == before


def _later_words_wrong(seeds, seed_words=streams._seed_words):
    words = seed_words(seeds)
    words[1:, 1] ^= np.uint64(1 << 40)
    return words


def _rank_wrong(words, ranked=False, states=streams._pcg64_states):
    seeded, drawn = states(words, ranked)
    hi, lo, uinteger, ranks = drawn
    return seeded, (hi, lo, uinteger, ranks % 4 + 1)


def _buffer_wrong(words, ranked=False, states=streams._pcg64_states):
    seeded, drawn = states(words, ranked)
    hi, lo, uinteger, ranks = drawn
    return seeded, (hi, lo, uinteger ^ np.uint64(1), ranks)


@pytest.mark.parametrize(
    "attr,wrong",
    [("_seed_words", _later_words_wrong), ("_pcg64_states", _rank_wrong),
     ("_pcg64_states", _buffer_wrong)],
    ids=["later-block", "rank", "buffered-word"],
)
def test_seeding_guard_checks_blocks_ranks_and_draw_state(monkeypatch, attr, wrong):
    # only item 0 is right in the first case: the last item of the loader
    # call must be checked too; the others break only what the mixed draw sets
    monkeypatch.setattr(streams, attr, wrong)
    with pytest.raises(RuntimeError, match="seeds default_rng differently"):
        list(survey_fig1(5, "mixed", np.random.default_rng(68)))


def test_separable_audit_validates_its_stack_once(monkeypatch, tmp_path):
    calls = {"objects": 0, "stacks": []}
    post_init = qmat.DensityMatrix.__post_init__
    validate = montecarlo.validate_density_stack

    def counted_post_init(self):
        calls["objects"] += 1
        post_init(self)

    def counted_validate(mats, offset=0):
        calls["stacks"].append(mats.shape)
        return validate(mats, offset)

    monkeypatch.setattr(qmat.DensityMatrix, "__post_init__", counted_post_init)
    monkeypatch.setattr(montecarlo, "validate_density_stack", counted_validate)
    argv = ["separable-audit", "--n", "40", "--seed", "3", "--out", str(tmp_path / "a.json")]
    assert main(argv) == 0
    assert calls == {"objects": 0, "stacks": [(40, 4, 4)]}
