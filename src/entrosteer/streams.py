"""Per-item random streams of the seeded surveys.

Each work item gets one integer seed, drawn from the caller's generator
(`_derived_seeds`, all at once or a block at a time: the draw is prefix-stable),
and owns a fresh stream in the state of `np.random.default_rng(seed)`.
`_item_streams` derives the streams of a list of seeds in one vectorised pass
of numpy's SeedSequence and PCG64 seeding, checked against numpy itself.
"""

from __future__ import annotations

import ctypes

import numpy as np

_BLOCK = 4096   # items per guard check and per block of ordered state words


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


def _seed_words(seeds) -> np.ndarray:
    """`SeedSequence(s).generate_state(4, np.uint64)` for every seed s in
    [0, 2**64), as one (n, 4) uint64 array.

    This is numpy's SeedSequence hash with each scalar uint32 word replaced by
    an array of that word over all seeds; the hash constants do not depend on
    the data, so they run as Python integers. A seed's entropy is its 32-bit
    words, low word first; numpy mixes a one-word seed with zero padding,
    which equals a zero high word, so every seed takes the two-word path.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(s.shape, np.uint32)
    entropy = [(s & _MASK32).astype(np.uint32), (s >> 32).astype(np.uint32), zero, zero]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(word) for word in entropy]
    for src in range(len(pool)):
        for dst in range(len(pool)):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    state = np.empty(s.shape + (8,), np.uint32)
    for k in range(8):
        value = pool[k % len(pool)] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[..., k] = value ^ (value >> _XSHIFT)
    # pairs of 32-bit words, low word first, whatever the host byte order
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _limbs(hi, lo):
    # the 32-bit limbs of the 128-bit values hi:lo, least significant first
    return [lo & _MASK32, lo >> 32, hi & _MASK32, hi >> 32]


def _carried(cols):
    """The (hi, lo) uint64 halves of the 128-bit values whose 32-bit columns,
    least significant first, hold `cols` (each below 2**64): each column's
    carry goes into the next, and the last one's is dropped (mod 2**128)."""
    limbs, carry = [], 0
    for col in cols:
        col = col + carry
        limbs.append(col & _MASK32)
        carry = col >> 32
    return limbs[3] << 32 | limbs[2], limbs[1] << 32 | limbs[0]


def _lcg_step(hi, lo, inc):
    """One PCG64 LCG step, hi:lo * _PCG_MULT + inc mod 2**128, with `inc`
    given as its `_limbs`: schoolbook multiplication by the constant, each
    limb product (below 2**64) split between its column and the next."""
    x = _limbs(hi, lo)
    mult = [np.uint64(_PCG_MULT >> 32 * j & _MASK32) for j in range(4)]
    cols = list(inc)
    for i in range(4):
        for j in range(4 - i):
            p = x[i] * mult[j]
            cols[i + j] = cols[i + j] + (p & _MASK32)
            if i + j < 3:
                cols[i + j + 1] = cols[i + j + 1] + (p >> 32)
    return _carried(cols)


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
    inc_hi, inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
    inc = _limbs(inc_hi, inc_lo)
    state = _lcg_step(*_carried([a + b for a, b in zip(inc, _limbs(w0, w1))]), inc)
    seeded = (*state, inc_hi, inc_lo)
    if not ranked:
        return seeded, None
    hi, lo = _lcg_step(*state, inc)
    xor, rot = hi ^ lo, hi >> 58
    out = xor >> rot | xor << (64 - rot & 63)
    return seeded, (hi, lo, out >> 32, (1 + ((out & _MASK32) >> 30)).astype(np.intp))


def _item_streams(seeds, ranks: np.ndarray | None = None):
    """An iterator that yields, for each seed in turn, a Generator in the
    state of `np.random.default_rng(seed)`: one Generator, loaded with each
    item's state (derived in one vectorised pass by `_seed_words` and
    `_pcg64_states`) by writing it into its state memory. Draw each item
    before asking for the next.

    A `ranks` array is filled at once with each item's `integers(1, 5)`, worked
    out from its stream's first output, and each Generator is past that draw.

    The first item of every `_BLOCK` is checked, once loaded, against a real
    `default_rng`: its whole `bit_generator.state` and its rank. A numpy that
    seeds, draws or lays out its state differently raises RuntimeError.
    """
    seeded, drawn = _pcg64_states(_seed_words(seeds), ranks is not None)
    flags = np.zeros((len(seeds), 2), np.uint32)   # has_uint32, uinteger
    if drawn is not None:
        seeded = (*drawn[:2], *seeded[2:])
        flags[:, 0], flags[:, 1] = 1, drawn[2]
        ranks[:] = drawn[3]
    return _loaded(seeds, seeded, flags, ranks)


def _state_memory(bit_gen):
    """Writable views, through numpy's `ctypes.state_address`, of a PCG64's
    `pcg64_state` {pointer to {state, inc}, has_uint32, uinteger}: the four
    uint64 words pointed to and the two uint32 words after the pointer; and
    which of (state_hi, state_lo, inc_hi, inc_lo) each word holds, read back
    from numpy's own setter (low word first for a native `__uint128_t`)."""
    pointer = ctypes.c_void_p.from_address(bit_gen.ctypes.state_address)
    words = np.frombuffer((ctypes.c_uint64 * 4).from_address(pointer.value), np.uint64)
    flags = np.frombuffer((ctypes.c_uint32 * 2).from_address(
        ctypes.addressof(pointer) + ctypes.sizeof(pointer)), np.uint32)
    marks = [0x1111111111111111 * j for j in range(1, 5)]
    state, inc = marks[0] << 64 | marks[1], marks[2] << 64 | marks[3]
    bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                     "has_uint32": 1, "uinteger": 0x5EED}
    if sorted(words.tolist()) != marks or flags.tolist() != [1, 0x5EED]:
        raise RuntimeError(f"numpy {np.__version__} does not lay out the PCG64 state as a "
                           "pointer to {state, inc}, then has_uint32 and uinteger")
    return words, flags, [marks.index(w) for w in words.tolist()]


def _loaded(seeds, halves, flags, ranks):
    # the iterator of `_item_streams`; the state words are put in memory order block by block
    g = np.random.default_rng(0)
    words, flag_words, order = _state_memory(g.bit_generator)
    for lo in range(0, len(seeds), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        block_words, block_flags = np.stack([halves[j][block] for j in order], axis=1), flags[block]
        words[:], flag_words[:] = block_words[0], block_flags[0]
        reference = np.random.default_rng(seeds[lo])
        same = ranks is None or reference.integers(1, 5) == ranks[lo]
        if not (same and g.bit_generator.state == reference.bit_generator.state):
            raise RuntimeError(f"numpy {np.__version__} seeds default_rng differently from the "
                               "vectorised SeedSequence and PCG64 derivation, or lays out its "
                               "state otherwise; the per-item streams cannot be reproduced")
        for w, f in zip(block_words, block_flags):
            words[:] = w
            flag_words[:] = f
            yield g
