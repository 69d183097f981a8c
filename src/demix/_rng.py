"""Counter-based random streams for reproducible instance generation.

Every consumer derives an independent Philox stream from (master_seed, tag).
Normal variates are produced by an explicit Box-Muller transform over the
stream's uniforms, so the sampled values are pinned by this file rather than
by numpy's Generator.normal implementation.

A draw of n normal pairs takes n uniforms u1, then n uniforms u2, and gives
r cos(theta) + 1j r sin(theta) with r = sqrt(-2 log(1 - u1)) and theta =
2 pi u2. _box_muller evaluates that formula in blocks of _BLOCK entries
from two block streams: u1 from a second Philox generator that starts where
the stream does, and u2 from the stream itself, once it has skipped past
the n u1 draws by Philox.advance. Its working memory beyond the complex
output is three block buffers, and its values and the stream position it
leaves are those of the unblocked formula, which tests/oracles.py pins.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1

# stream tags (second word of the Philox key, low byte)
TAG_DESIGN = 1
TAG_TRUTH = 2
TAG_NOISE = 3
TAG_AUX = 4


def stream(seed: int, tag: int) -> np.random.Generator:
    """Independent Generator keyed by (seed, tag).

    Monte-Carlo loops get one seed per trial from derive_seed and key their
    streams with it.
    """
    if not 0 <= tag < 256:
        raise ValueError(f"stream tag out of range: {tag}")
    key = np.array([np.uint64(seed & _MASK64), np.uint64(tag)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Entries per Box-Muller block: three float64 block buffers stay in L2.
_BLOCK = 1 << 14
# numpy divides a complex array by sqrt(2) as a multiply by fl(1/sqrt(2)).
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# 64-bit outputs per Philox counter step.
_PHILOX_OUTPUTS = 4


def _skip(bitgen: np.random.Philox, k: int) -> None:
    """Move bitgen past k 64-bit outputs, to where k draws would leave it.

    Philox makes outputs four at a time: the rest of the current four are
    drawn, whole fours are skipped with advance (one step is four outputs),
    and the last k % 4 are drawn. advance also drops the buffered outputs,
    so it is called only when there is a whole four to skip.
    """
    head = min(k, _PHILOX_OUTPUTS - bitgen.state["buffer_pos"])
    bitgen.random_raw(head)
    steps, tail = divmod(k - head, _PHILOX_OUTPUTS)
    if steps:
        bitgen.advance(steps)
    bitgen.random_raw(tail)


def _box_muller(gen: np.random.Generator, n: int, scale: float) -> np.ndarray:
    """n complex Box-Muller pairs, each part multiplied by scale.

    Each block draws its u1 from g1, a copy of the Philox stream at its
    start, and its u2 from gen, which has skipped past the n u1 draws; the
    output is only written. gen must be Philox, whose advance counts in
    fours of outputs.
    """
    if not isinstance(gen.bit_generator, np.random.Philox):
        name = type(gen.bit_generator).__name__
        raise TypeError(f"Box-Muller draws need a Philox stream, got {name}")
    out = np.empty(n, dtype=complex)
    real, imag = out.real, out.imag
    g1 = np.random.Generator(np.random.Philox())
    g1.bit_generator.state = gen.bit_generator.state
    _skip(gen.bit_generator, n)
    r_buf, theta_buf, part_buf = np.empty((3, min(n, _BLOCK)))
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        r, theta, part = r_buf[: b - a], theta_buf[: b - a], part_buf[: b - a]
        g1.random(out=r)
        gen.random(out=theta)
        # u1 is in [0, 1); 1 - u1 is in (0, 1] so the log is finite.
        np.negative(r, r)
        np.log1p(r, r)
        np.multiply(r, -2.0, r)
        np.sqrt(r, r)
        np.multiply(2.0 * np.pi, theta, theta)
        np.cos(theta, part)
        np.multiply(r, part, part)
        np.multiply(part, scale, real[a:b])
        np.sin(theta, part)
        np.multiply(r, part, part)
        np.multiply(part, scale, imag[a:b])
    return out


def normal_pairs(gen: np.random.Generator, n: int):
    """n Box-Muller pairs of independent N(0, 1) variates, as (re, im)."""
    z = _box_muller(gen, n, 1.0)
    return z.real, z.imag


def complex_standard_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) array: real and imaginary parts each N(0, 1/2).

    Working memory is the output and three block buffers; values and
    stream position equal the unblocked formula's.
    """
    return _box_muller(gen, math.prod(shape), _INV_SQRT2).reshape(shape)


def derive_seed(seed: int, k: int) -> int:
    """Deterministic per-trial seed for Monte-Carlo loops (splitmix-style mix)."""
    v = (seed + (k + 1) * 0x9E3779B97F4A7C15) & _MASK64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (v ^ (v >> 31)) & _MASK64
