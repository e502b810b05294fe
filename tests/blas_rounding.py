"""Whether numpy's BLAS rounds a dispersal product as H_k's kernel does.

The kernels of H_k and H (``threestage.make_system``) form the
block-diagonal dispersal product in plain floats: two-term sums on rows
0-3, a fused multiply-add on rows 4-5.  OpenBLAS's SkylakeX gemv rounds the
same way; a gemv kernel that fuses nothing (SandyBridge, for one) gives
plain sums on every row.  The ``metapop`` oracle forms its products with
gemv, so its H_k and H bytes equal the kernels' only on a kernel of the
first kind.
"""
import functools

import numpy as np

from twoscalepop import _native
from twoscalepop.threestage import _fma

PRODUCTS = 300


@functools.cache
def gemv_rounds_as_the_kernels() -> bool:
    """True when ``a.dot(x)`` equals the kernels' product bit for bit on
    ``PRODUCTS`` random block-diagonal products."""
    rng = np.random.default_rng(20_240_601)
    a = np.zeros((6, 6))
    for e, x in zip(rng.random((PRODUCTS, 12)).tolist(),
                    (10.0 ** rng.uniform(-8.0, 3.0, (PRODUCTS, 6))).tolist()):
        a[_native._ROWS, _native._COLS] = e
        model = (e[0] * x[0] + e[1] * x[1], e[2] * x[0] + e[3] * x[1],
                 e[4] * x[2] + e[5] * x[3], e[6] * x[2] + e[7] * x[3],
                 _fma(e[8], x[4], e[9] * x[5]), _fma(e[10], x[4], e[11] * x[5]))
        if a.dot(np.array(x)).tobytes() != np.array(model).tobytes():
            return False
    return True
