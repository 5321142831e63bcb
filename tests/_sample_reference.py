"""The sampler written out one whole chunk at a time: referee for oracle.sample.

sample makes each chunk's normals one block of rows at a time, in buffers
that every block reuses, and takes Box-Muller's cosine and sine from a table
of knots and two polynomials.  Here chunk c of `chunk_size` rows is made at
once, from the raw Philox bits of counter c * 2^128, by the same transform
written out as array expressions on a table of its own, rounded from mpmath.
The tests hold sample to it bit for bit at one BLAS thread.  libm_normals is
the textbook transform radius * (cos, sin)(2 pi u2) on numpy's cos and sin,
the referee of the transform's accuracy.
"""

import math

import mpmath
import numpy as np

KNOTS = 256
with mpmath.workprec(200):
    # (cos, sin)(2 pi j / KNOTS), each rounded once to a double
    TABLE_COS = np.array([float(mpmath.cospi(mpmath.mpf(2 * j) / KNOTS)) for j in range(KNOTS + 1)])
    TABLE_SIN = np.array([float(mpmath.sinpi(mpmath.mpf(2 * j) / KNOTS)) for j in range(KNOTS + 1)])


def uniforms(seed, chunk, pairs):
    """(u1, u2) of the first `pairs` pairs of chunk `chunk` of the stream for `seed`."""
    bits = np.random.Philox(key=seed, counter=chunk << 128).random_raw(2 * pairs) >> np.uint64(11)
    # top 53 bits -> uniforms; u1 in (0, 1] so log never sees 0
    return (bits[0::2] + np.uint64(1)) * 2.0**-53, bits[1::2] * 2.0**-53


def cos_sin_turns(u):
    """(cos, sin)(2 pi u) as sample forms them: nearest knot j, then a turn of at most pi / KNOTS."""
    v = u * KNOTS
    j = np.rint(v)
    t = (v - j) * (2.0 * math.pi / KNOTS)
    z = t * t
    sin_t = (z * (1.0 / 120.0) - 1.0 / 6.0) * z * t + t
    cos_t = ((z * (-1.0 / 720.0) + 1.0 / 24.0) * z - 0.5) * z
    knot = j.astype(np.int64)
    c, s = TABLE_COS[knot], TABLE_SIN[knot]
    return c + (c * cos_t - s * sin_t), s + (s * cos_t + c * sin_t)


def _normals(seed, chunk, count, cos_sin):
    pairs = (count + 1) // 2
    u1, u2 = uniforms(seed, chunk, pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    cos, sin = cos_sin(u2)
    z = np.empty(2 * pairs)
    z[0::2] = radius * cos
    z[1::2] = radius * sin
    return z[:count]


def textbook_normals(seed, chunk, count):
    """`count` standard normals from chunk `chunk` of the stream for `seed`."""
    return _normals(seed, chunk, count, cos_sin_turns)


def libm_normals(seed, chunk, count):
    """The same normals with numpy's cos and sin of the rounded angle 2 pi u2."""
    return _normals(seed, chunk, count, lambda u: (np.cos(2.0 * np.pi * u), np.sin(2.0 * np.pi * u)))


def chunk_loop(form, n, seed, chunk_size, matrix=False):
    """n draws of the form, one whole chunk of `chunk_size` rows at a time.

    With matrix=True the form is a QuadraticForm and the draws are z'Az + b'z
    without any reduction, the referee of reduce in law.
    """
    out = np.empty(n)
    for chunk, lo in enumerate(range(0, n, chunk_size)):
        m = min(chunk_size, n - lo)
        z = textbook_normals(seed, chunk, m * form.p).reshape(m, form.p)
        if matrix:
            out[lo : lo + m] = np.einsum("ij,jk,ik->i", z, form.matrix, z) + z @ form.b
        else:
            out[lo : lo + m] = (z * z) @ form.a + z @ form.b
    return out
