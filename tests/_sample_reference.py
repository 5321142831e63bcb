"""The sampler written out one whole chunk at a time: referee for oracle.sample.

sample makes each chunk's normals one block of rows at a time, in buffers
that every block reuses.  Here chunk c of `chunk_size` rows is made at once,
from the raw Philox bits of counter c * 2^128, by the textbook Box-Muller
transform radius * (cos, sin)(angle).  The tests hold sample to it bit for
bit at one BLAS thread.
"""

import numpy as np


def textbook_normals(seed, chunk, count):
    """`count` standard normals from chunk `chunk` of the stream for `seed`."""
    pairs = (count + 1) // 2
    bits = np.random.Philox(key=seed, counter=chunk << 128).random_raw(2 * pairs) >> np.uint64(11)
    # top 53 bits -> uniforms; u1 in (0, 1] so log never sees 0
    u1 = (bits[0::2] + np.uint64(1)) * 2.0**-53
    u2 = bits[1::2] * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]


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
