"""Finite-difference gradient checking for the tests.

Import as `from gradcheck import finite_difference_check`; pytest puts this
directory on sys.path for the test modules beside it.
"""

import numpy as np

from cmvae.autodiff import backward


def finite_difference_check(f, params: dict, h: float = 1e-3) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    ``f`` maps the parameter dict to a scalar Tensor and must be
    deterministic given fixed noise inputs.  The difference is the fourth-order
    stencil (8[f(x+h) - f(x-h)] - [f(x+2h) - f(x-2h)]) / 12h.  Error per coordinate is
    |fd - grad| / (|grad| + 1e-8); the max over all coordinates is returned.
    """
    loss = f(params)
    if not np.isfinite(loss.value):
        raise FloatingPointError("objective is non-finite at the evaluation point")
    grads = backward(loss, params)

    worst = 0.0
    for name in sorted(params):
        p = params[name]
        g = grads[name]
        flat = p.value.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            values = []
            for step in (h, -h, 2 * h, -2 * h):
                flat[i] = keep + step
                values.append(float(f(params).value))
            flat[i] = keep
            if not np.isfinite(values).all():
                raise FloatingPointError("objective is non-finite during differencing")
            fd = (8.0 * (values[0] - values[1]) - (values[2] - values[3])) / (12.0 * h)
            err = abs(fd - gflat[i]) / (abs(gflat[i]) + 1e-8)
            worst = max(worst, err)
    return worst
