"""Counter-based random streams for reproducible instance generation.

Every consumer derives an independent Philox stream from (master_seed, tag).
Normal variates are produced by an explicit Box-Muller transform over the
stream's uniforms, so the sampled values are pinned by this file rather than
by numpy's Generator.normal implementation.
"""

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


def normal_pairs(gen: np.random.Generator, n: int):
    """n Box-Muller pairs of independent N(0, 1) variates."""
    u1 = gen.random(n)
    u2 = gen.random(n)
    # u1 is in [0, 1); 1 - u1 is in (0, 1] so the log is finite.
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = 2.0 * np.pi * u2
    return r * np.cos(theta), r * np.sin(theta)


def complex_standard_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) array: real and imaginary parts each N(0, 1/2)."""
    n = int(np.prod(shape))
    z_re, z_im = normal_pairs(gen, n)
    out = (z_re + 1j * z_im) / np.sqrt(2.0)
    return out.reshape(shape)


def derive_seed(seed: int, k: int) -> int:
    """Deterministic per-trial seed for Monte-Carlo loops (splitmix-style mix)."""
    v = (seed + (k + 1) * 0x9E3779B97F4A7C15) & _MASK64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (v ^ (v >> 31)) & _MASK64
