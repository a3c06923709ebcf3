"""Named test functions exercised by the convergence experiments.

Each takes a float, or a float64 array for its value at every point with
the same bits.  The + - * / run as written on either, and numpy rounds them
as Python floats do; exp and sin come from the C library through math, one
point at a time (_pointwise), since numpy's own may differ in the last bit.
(A power on an array takes C's pow through np.float_power, which calls it
at each element, and never np.power; see expressions._compile.)  So each
function is its own ``at_points``, which operators._sample runs on a whole
array; a caller that passes a list goes point by point.
"""

from __future__ import annotations

import math


def _pointwise(fn, a):
    """fn(a) for a number, and fn at each point of the array a, as an array of its shape."""
    if not getattr(a, "ndim", 0):
        return fn(a)
    import numpy as np

    return np.fromiter(map(fn, a.ravel().tolist()), float, a.size).reshape(a.shape)


def one_(t: float) -> float:
    """Constant 1."""
    return t ** 0.0  # 1.0 at every t, inf and nan included, in C's pow and numpy's power


def bbh_metric(t: float) -> float:
    """t/(1+t), the half-line metric coordinate."""
    return t / (1.0 + t)


def bbh_metric_sq(t: float) -> float:
    """(t/(1+t))^2."""
    u = t / (1.0 + t)
    return u * u


# A float calls math directly: evaluate and represent sample floats one point
# at a time, and the helper's call would add about 0.1 µs to each.


def exp_neg(t: float) -> float:
    """exp(-t)."""
    return math.exp(-t) if type(t) is float else _pointwise(math.exp, -t)


def sin_damped(t: float) -> float:
    """sin(t)/(1+t)."""
    return (math.sin(t) if type(t) is float else _pointwise(math.sin, t)) / (1.0 + t)


REGISTRY = {f.__name__: f for f in (one_, bbh_metric, bbh_metric_sq, exp_neg, sin_damped)}
for _f in REGISTRY.values():
    _f.at_points = _f
del _f


def registry_function(name: str):
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown registry function {name!r}; available: {', '.join(sorted(REGISTRY))}"
        ) from None
