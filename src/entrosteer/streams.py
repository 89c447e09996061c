"""Per-item random streams of the seeded surveys.

Each work item gets one integer seed, drawn from the caller's generator
(`_derived_seeds`, all at once or a block at a time: the draw is prefix-stable),
and owns a fresh stream in the state of `np.random.default_rng(seed)`.
`_item_streams` derives the streams of a list of seeds in one vectorised pass
of numpy's SeedSequence and PCG64 seeding, checked against numpy itself, and
loads each item into one Generator with one write of its state bytes.
"""

from __future__ import annotations

import ctypes

import numpy as np


def _derived_seeds(rng: np.random.Generator, n: int) -> list[int]:
    return rng.integers(0, 2**63 - 1, size=n).tolist()


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and the
# PCG64 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# the hash constant before each hash step and after the last, as uint32 columns
_CHAIN_A = np.array([_INIT_A * _MULT_A**i & _MASK32 for i in range(17)], np.uint32)[:, None]
_CHAIN_B = np.array([_INIT_B * _MULT_B**i & _MASK32 for i in range(9)], np.uint32)[:, None]


def _hashed(value, chain, first: int, steps: int):
    # hash steps first .. first + steps - 1, one per row: step i xors with row i, times row i + 1
    value = (value ^ chain[first : first + steps]) * chain[first + 1 : first + steps + 1]
    return value ^ value >> _XSHIFT


def _seed_words(seeds) -> np.ndarray:
    """`SeedSequence(s).generate_state(4, np.uint64)` for every seed s in
    [0, 2**64), as one (n, 4) uint64 array.

    This is numpy's SeedSequence hash on a (4, n) uint32 pool; each source
    word's three hashmix and mix steps into the other words run as one (3, n)
    step. A seed's entropy is its 32-bit words, low word first; a one-word
    seed's zero padding equals a zero high word, so all take the two-word path.
    """
    pool = np.zeros((4, len(seeds)), np.uint32)   # fromiter is faster than asarray on a list
    pool[:2] = np.fromiter(seeds, "<u8", len(seeds)).view("<u4").reshape(-1, 2).T
    pool = _hashed(pool, _CHAIN_A, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * _hashed(
            pool[src], _CHAIN_A, 4 + 3 * src, 3)
        pool[dst] = mixed ^ mixed >> _XSHIFT
    state = _hashed(np.concatenate((pool, pool)), _CHAIN_B, 0, 8).astype(np.uint64)
    return (state[0::2] | state[1::2] << 32).T   # pairs of 32-bit words, low word first


def _add128(hi, lo, add_hi, add_lo):
    # (hi:lo + add_hi:add_lo) mod 2**128 on uint64 halves: the low sum carries when it wraps
    low = lo + add_lo
    return hi + add_hi + (low < lo), low


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, hi:lo * _PCG_MULT + inc mod 2**128, on uint64
    halves. lo * MULT_LO wraps to its exact low half; its high half sums the
    four 32-bit limb products, made in one (2, 2, n) step; the cross products
    lo * MULT_HI and hi * MULT_LO only reach the high half, mod 2**64."""
    m_hi, m_lo = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 2**64 - 1)
    p = np.array([lo & _MASK32, lo >> 32])[:, None] * np.array([[m_lo & _MASK32], [m_lo >> 32]])
    mid = (p[0, 0] >> 32) + (p[0, 1] & _MASK32) + (p[1, 0] & _MASK32)
    high = p[1, 1] + (p[0, 1] >> 32) + (p[1, 0] >> 32) + (mid >> 32)
    return _add128(high + lo * m_hi + hi * m_lo, lo * m_lo, inc_hi, inc_lo)


def _pcg64_states(words: np.ndarray, ranked: bool = False):
    """Every item's PCG64 stream from its `(n, 4)` seed words, in one
    vectorised pass over uint64 halves; returns `(seeded, drawn)`.

    `seeded` is (state_hi, state_lo, inc_hi, inc_lo) as
    `pcg_setseq_128_srandom_r` leaves it, with initial state w0:w1 and
    sequence w2:w3: inc = w2:w3 << 1 | 1, state = (inc + w0:w1) * MULT + inc.
    `drawn` is None or, when `ranked`, the stream after a first
    `integers(1, 5)`: (state_hi, state_lo, uinteger, rank). That draw takes
    one LCG step and its XSL-RR output; Lemire's method on the output's low
    32 bits never rejects for a range of 4, so the rank is 1 plus their top
    two bits, and the high 32 bits stay buffered as `uinteger`.
    """
    w0, w1, w2, w3 = words.T
    inc = w2 << 1 | w3 >> 63, w3 << 1 | 1
    state = _lcg_step(*_add128(*inc, w0, w1), *inc)
    seeded = (*state, *inc)
    if not ranked:
        return seeded, None
    hi, lo = _lcg_step(*state, *inc)
    xor, rot = hi ^ lo, hi >> 58
    out = xor >> rot | xor << (64 - rot & 63)
    return seeded, (hi, lo, out >> 32, (1 + ((out & _MASK32) >> 30)).astype(np.intp))


def _item_streams(seeds, ranks: np.ndarray | None = None):
    """An iterator that yields, for each seed in turn, a Generator in the
    state of `np.random.default_rng(seed)`: one Generator, loaded with each
    item's state (`_seed_words`, `_pcg64_states`) by one write into its state
    memory. Draw each item before asking for the next. A `ranks` array is
    filled at once with each item's `integers(1, 5)`, worked out from its
    stream's first output, and each Generator is past that draw.

    The first and the last item are checked when called, each loaded, against
    a real `default_rng`: its whole `bit_generator.state` and its rank. A numpy
    that seeds, draws or lays out its state differently raises RuntimeError.
    """
    seeded, drawn = _pcg64_states(_seed_words(seeds), ranks is not None)
    g = np.random.default_rng(0)
    memory, order = _state_memory(g.bit_generator)
    width = memory.nbytes
    # one row of state bytes per item, in memory order (the padding left 0): a load is one write
    rows = np.zeros((len(seeds), width // 8), np.uint64)
    if drawn is not None:
        seeded = (*drawn[:2], *seeded[2:])
        flags = rows.view(np.uint32)   # has_uint32, uinteger
        flags[:, 0], flags[:, 1] = 1, drawn[2]
        ranks[:] = drawn[3]
    rows[:, -4:] = np.array(seeded)[order].T
    items = memoryview(rows).cast("B")
    for i in {0, len(seeds) - 1}:   # the guard: the first and the last item
        memory[:] = items[i * width : (i + 1) * width]
        reference = np.random.default_rng(seeds[i])
        same = ranks is None or reference.integers(1, 5) == ranks[i]
        if not (same and g.bit_generator.state == reference.bit_generator.state):
            raise RuntimeError(f"numpy {np.__version__} seeds default_rng differently from the "
                               "vectorised SeedSequence and PCG64 derivation, or lays out its "
                               "state otherwise; the per-item streams cannot be reproduced")
    return _loaded(g, memory, items)


def _state_memory(bit_gen):
    """A writable byte view, through numpy's `ctypes.state_address`, of a
    PCG64's `pcg64_state` {pointer to {state, inc}, has_uint32, uinteger},
    from has_uint32 through {state, inc}, which must follow within 8 bytes of
    alignment padding (else RuntimeError before any write); and which of
    (state_hi, state_lo, inc_hi, inc_lo) each state word holds, from numpy's setter."""
    head = bit_gen.ctypes.state_address
    pointer = ctypes.c_void_p.from_address(head).value or 0
    marks = [0x1111111111111111 * j for j in range(1, 5)]
    words = None
    if pointer - head in (16, 24):   # only padding between uinteger and the state words
        words = np.frombuffer((ctypes.c_uint64 * ((pointer - head + 24) // 8)).from_address(
            head + 8), np.uint64)
        state, inc = marks[0] << 64 | marks[1], marks[2] << 64 | marks[3]
        bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 1, "uinteger": 0x5EED}
    if (words is None or sorted(words[-4:].tolist()) != marks
            or words[:1].view(np.uint32).tolist() != [1, 0x5EED]):
        raise RuntimeError(f"numpy {np.__version__} does not lay out the PCG64 state as a "
                           "pointer to {state, inc}, then has_uint32 and uinteger, then "
                           "{state, inc} past at most 8 bytes of padding")
    return memoryview(words.view(np.uint8)), [marks.index(w) for w in words[-4:].tolist()]


def _loaded(g, memory, items):
    # the iterator of `_item_streams`: g, with each row of `items` loaded in turn
    for i in range(0, len(items), memory.nbytes):
        memory[:] = items[i : i + memory.nbytes]
        yield g
