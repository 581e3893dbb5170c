"""Finite-difference gradient oracle shared by the test modules, and ``tsum``.

Central differences with h = 1e-6 in float64. The oracle only evaluates
scalar re-runs of a loss closure; it never touches the autodiff path it
is checking. ``tsum`` reduces an op's output to the scalar the tests
differentiate; the library itself never needs it.
"""

import numpy as np

from ewas import tensor as T

H = 1e-6
REL_TOL = 1e-4


def tsum(x: T.Tensor) -> T.Tensor:
    """Sum of all elements, as a scalar tensor."""
    shape = x.data.shape
    return T._result(
        np.asarray(x.data.sum(), dtype=x.data.dtype),
        (x,),
        lambda g: (np.broadcast_to(g, shape).copy(),),
    )


def fd_gradient(loss_fn, array: np.ndarray, indices=None, h: float = H) -> dict:
    """Central-difference dLoss/dArray[i] for chosen flat indices.

    ``loss_fn`` takes no arguments and must see mutations of ``array``.
    Returns {flat_index: derivative}.
    """
    flat = array.reshape(-1)
    if indices is None:
        indices = range(flat.size)
    grads = {}
    for i in indices:
        old = flat[i]
        flat[i] = old + h
        up = loss_fn()
        flat[i] = old - h
        down = loss_fn()
        flat[i] = old
        grads[i] = (up - down) / (2.0 * h)
    return grads


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def assert_grad_matches(loss_fn, array: np.ndarray, analytic: np.ndarray,
                        indices=None, tol: float = REL_TOL, what: str = "") -> float:
    """Assert analytic gradients match central differences; returns worst error."""
    grads = fd_gradient(loss_fn, array, indices)
    flat = analytic.reshape(-1)
    worst = 0.0
    for i, fd in grads.items():
        err = rel_err(fd, flat[i])
        assert err <= tol, (
            f"{what} grad mismatch at flat index {i}: fd={fd:.10g} "
            f"analytic={flat[i]:.10g} rel={err:.3g}"
        )
        worst = max(worst, err)
    return worst
