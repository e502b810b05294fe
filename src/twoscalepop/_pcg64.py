"""numpy's default generator's uniform draws, in Python integers and floats.

``uniform(seed, high, rows, cols)`` returns, bit for bit, the rows of
``numpy.random.default_rng(seed).uniform(0.0, high, size=(rows, cols))``,
so a run draws its convergence samples without loading ``numpy.random``
(its Cython modules and, through ``secrets``, OpenSSL).  It follows
numpy's own code:

- ``SeedSequence(seed)``: the seed's little-endian 32-bit words are mixed
  into a pool of four words, and ``generate_state(4, uint64)`` hashes the
  pool into four 64-bit words (M. E. O'Neill's seed_seq design);
- ``PCG64``: the PCG XSL-RR 128/64 generator (M. E. O'Neill, *PCG: A
  Family of Simple Fast Space-Efficient Statistically Good Algorithms for
  Random Number Generation*, HMC-CS-2014-0905, 2014), seeded by
  ``pcg_setseq_128_srandom_r`` from those words;
- ``Generator.uniform``: ``low + (high - low) * u``, where ``u`` is the
  top 53 bits of one 64-bit output times 2**-53, filled in C order.
"""
from __future__ import annotations

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence's entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # its generate_state hash
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier


def _words(seed: int) -> list[int]:
    """The seed as little-endian 32-bit words; 0 is one zero word."""
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def _pool(entropy: list[int]) -> list[int]:
    """SeedSequence's ``mix_entropy``: the four-word pool of the seed."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state_words(pool: list[int]) -> list[int]:
    """``generate_state(4, uint64)``: eight hashed 32-bit words, paired low first."""
    hash_const = _INIT_B
    out = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> _XSHIFT)
    return [out[i] | out[i + 1] << 32 for i in range(0, len(out), 2)]


def uniform(seed: int, high: float, rows: int, cols: int) -> list[list[float]]:
    """``default_rng(seed).uniform(0.0, high, (rows, cols))`` as a list of rows."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    words = _state_words(_pool(_words(seed)))
    initstate = words[0] << 64 | words[1]
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
    # pcg_setseq_128_srandom_r: step from 0, add initstate, step again
    state = 0
    state = (state * _MULTIPLIER + inc) & _MASK128
    state = (state + initstate) & _MASK128
    state = (state * _MULTIPLIER + inc) & _MASK128

    low = 0.0
    span = high - low
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            state = (state * _MULTIPLIER + inc) & _MASK128
            xored = (state >> 64 ^ state) & _MASK64
            rot = state >> 122
            bits = (xored >> rot | xored << (64 - rot)) & _MASK64
            row.append(low + span * ((bits >> 11) * 2.0**-53))
        out.append(row)
    return out
