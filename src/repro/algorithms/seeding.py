"""Many short seeded NumPy streams, seeded in one vectorized pass.

Code that wants reproducible per-key randomness often writes
``np.random.default_rng(seed).standard_normal(k)`` once per key.  Each such
call hashes the seed with NumPy's ``SeedSequence`` and builds a new
``PCG64`` and ``Generator``; at tens of thousands of keys that
construction, not the draw, is the cost.

:func:`standard_normal_runs` produces the same numbers bit for bit.  It
computes every stream's initial ``PCG64`` ``(state, inc)`` at once with
array arithmetic, then draws each stream through one reused ``Generator``
whose state it sets per stream.  The two seeding steps it reproduces are
NumPy's documented algorithms:

* ``SeedSequence`` (pool of four 32-bit words): the seed's little-endian
  32-bit words are hashed into the pool, the pool words are cross-mixed,
  and ``generate_state`` hashes the pool into eight output words.  All of
  it is 32-bit wraparound arithmetic with fixed constants.  A seed of up to
  four words is padded with hashes of zero, so one-, two-, three- and
  four-word seeds all take the same path here and a run of seeds may cross
  ``2**32`` freely.
* ``PCG64`` seeding: the output words form ``initstate`` and ``initseq``;
  ``inc = (initseq << 1) | 1``, ``state = 0``, one LCG step, add
  ``initstate``, one more step.

The 32-bit products are split into 16-bit halves and the 128-bit LCG
arithmetic into 16-bit limbs, so every intermediate stays exact in int64.
Seeds outside ``[0, 2**128)`` take NumPy's own per-stream seeding, which
also makes a negative seed raise NumPy's own ``ValueError``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

_M16 = 0xFFFF
_M32 = 0xFFFFFFFF

# SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.asarray(0xCA01F9DD, dtype=np.int64)
_MIX_MULT_R = np.asarray(0x4973F715, dtype=np.int64)
_POOL_SIZE = 4
#: Words of SeedSequence output PCG64 consumes (four uint64s).
_STATE_WORDS = 8

#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: 16-bit limbs in a 128-bit number.
_LIMBS = 8
#: Seeds the vectorized pool covers: four 32-bit words.
_SEED_LIMIT = 1 << (32 * _POOL_SIZE)

Words = npt.NDArray[np.int64]


def _hash_consts(init: int, mult: int, calls: int) -> Words:
    """The hash constant before each of ``calls`` hash calls, and after."""
    consts = [init]
    for _ in range(calls):
        consts.append((consts[-1] * mult) & _M32)
    return np.asarray(consts, dtype=np.int64)[:, None]


#: mix_entropy hashes each pool word once, then once per ordered pair.
_CONSTS_A = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_CONSTS_B = _hash_consts(_INIT_B, _MULT_B, _STATE_WORDS)

#: ``_PCG_MULT_LIMBS @ a`` gives the limb column sums of ``a * _PCG_MULT``
#: modulo ``2**128`` (a lower-triangular Toeplitz matrix of its limbs).
_PCG_MULT_LIMBS = np.asarray(
    [
        [(_PCG_MULT >> (16 * (m - i))) & _M16 if m >= i else 0 for i in range(_LIMBS)]
        for m in range(_LIMBS)
    ],
    dtype=np.int64,
)


def _mul32(a: Words, k: Words) -> Words:
    """``a * k mod 2**32`` for 32-bit ``a`` and ``k``, exact in int64."""
    low: Words = a * (k & _M16)
    high: Words = ((a * (k >> 16)) & _M16) << 16
    return (low + high) & _M32


def _hashmix(value: Words, consts: Words, first: int, calls: int) -> Words:
    """SeedSequence ``hashmix`` calls ``first .. first + calls - 1``."""
    value = value ^ consts[first : first + calls]
    mixed = _mul32(value, consts[first + 1 : first + calls + 1])
    return mixed ^ (mixed >> 16)


def _mix(x: Words, y: Words) -> Words:
    mixed = (_mul32(x, _MIX_MULT_L) - _mul32(y, _MIX_MULT_R)) & _M32
    return mixed ^ (mixed >> 16)


def _seed_sequence_state(words: Words) -> Words:
    """``SeedSequence(seed).generate_state(8)`` for every column of ``words``.

    ``words`` is ``(4, n)``: each seed's little-endian 32-bit words, padded
    with zeros.  Returns the ``(8, n)`` output words.  Within one source
    word of the cross-mix, the three destination updates read only the
    unchanged source, so they run as one ``(3, n)`` step.
    """
    pool = _hashmix(words, _CONSTS_A, 0, _POOL_SIZE)
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = _hashmix(pool[src], _CONSTS_A, call, len(dst))
        pool[dst] = _mix(pool[dst], hashed)
        call += len(dst)
    cycle = [i % _POOL_SIZE for i in range(_STATE_WORDS)]
    return _hashmix(pool[cycle], _CONSTS_B, 0, _STATE_WORDS)


def _limbs(words: Words) -> Words:
    """Split ``(k, n)`` 32-bit words into ``(2k, n)`` 16-bit limbs."""
    limbs = np.empty((2 * len(words), words.shape[1]), dtype=np.int64)
    limbs[0::2] = words & _M16
    limbs[1::2] = words >> 16
    return limbs


def _carry(columns: Words) -> Words:
    """Normalize limb column sums into limbs, modulo ``2**128``."""
    limbs = np.empty_like(columns)
    carry = np.zeros_like(columns[0])
    for m in range(_LIMBS):
        value = columns[m] + carry
        limbs[m] = value & _M16
        carry = value >> 16
    return limbs


def _ints(limbs: Words) -> list[int]:
    """Every 128-bit number held in ``(8, n)`` limbs, as a Python int."""
    halves = np.ascontiguousarray(limbs.T, dtype="<u2").view("<u8").tolist()
    return [lo | (hi << 64) for lo, hi in halves]


def _pcg64_states(seed_words: Words) -> tuple[list[int], list[int]]:
    """Initial ``PCG64`` ``(state, inc)`` of ``default_rng(seed)`` per seed.

    ``seed_words`` is ``(4, n)``: each seed's little-endian 32-bit words.
    """
    out = _seed_sequence_state(seed_words)
    # generate_state(4, uint64) pairs the words little-endian; PCG64 reads
    # uint64 words 0/1 as the high/low halves of initstate, 2/3 of initseq.
    limbs = _limbs(out[[2, 3, 0, 1, 6, 7, 4, 5]])
    initstate, initseq = limbs[:_LIMBS], limbs[_LIMBS:]
    # Limbs may exceed 16 bits until _carry; the excess of the top limb is
    # a multiple of 2**128 and drops out there.
    inc = initseq << 1
    inc[0] |= 1
    state = _carry(_PCG_MULT_LIMBS @ (inc + initstate) + inc)
    return _ints(state), _ints(_carry(inc))


def standard_normal_runs(
    bases: Sequence[int], out: npt.NDArray[np.float64]
) -> None:
    """Fill ``out[i, j]`` with ``default_rng(bases[i] + j).standard_normal``.

    ``out`` is a C-contiguous ``(len(bases), count, size)`` float64 array:
    row ``i`` holds ``count`` streams seeded with the consecutive seeds
    ``bases[i], ..., bases[i] + count - 1``, each drawing ``size`` values.
    The result is bit-identical to drawing each stream from its own
    ``np.random.default_rng(seed)``.
    """
    n, count, _ = out.shape
    if len(bases) != n:
        raise ValueError(f"{len(bases)} bases for {n} rows of streams")
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    if n == 0 or count == 0:
        return
    # Per base: its four 32-bit words, or zeros when the base's run leaves
    # the range the vectorized pool covers (seeded one by one below).
    rows: list[list[int]] = []
    wide: list[int] = []
    for i, base in enumerate(bases):
        in_pool = 0 <= base <= _SEED_LIMIT - count
        if not in_pool:
            wide.append(i)
        rows.append(
            [(base >> (32 * w)) & _M32 if in_pool else 0 for w in range(_POOL_SIZE)]
        )
    # Seed words of base + j, seed-major: add j to the low word and carry.
    seeds = np.repeat(np.asarray(rows, dtype=np.int64).T, count, axis=1)
    carry = seeds[0] + np.tile(np.arange(count, dtype=np.int64), n)
    for w in range(_POOL_SIZE):
        if w:
            carry = carry + seeds[w]
        seeds[w] = carry & _M32
        carry = carry >> 32
    states, incs = _pcg64_states(seeds)
    for i in wide:
        for j in range(count):
            # NumPy's own seeding; raises its ValueError for a negative seed.
            pcg = np.random.PCG64(bases[i] + j).state["state"]
            states[i * count + j], incs[i * count + j] = pcg["state"], pcg["inc"]

    bitgen = np.random.PCG64(0)
    generator = np.random.Generator(bitgen)
    # A freshly seeded PCG64's state dict, with no buffered 32-bit draw;
    # only its state and inc change from stream to stream.
    value = bitgen.state
    slot = value["state"]
    for row, state, inc in zip(out.reshape(n * count, -1), states, incs):
        slot["state"] = state
        slot["inc"] = inc
        bitgen.state = value
        generator.standard_normal(out=row)
