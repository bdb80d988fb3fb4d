"""Exact comparison of partial aggregation states.

A state may be a numpy array (a DISTINCTCOUNT state is a sorted array
of the distinct values), and ``==`` on arrays compares element-wise
instead of answering yes or no. :func:`exact_states` spells every array
inside a value as ``(dtype, values)``, so ``exact_states(a) ==
exact_states(b)`` holds only when both have the same structure, every
array the same dtype and the same values in the same order, and every
other leaf compares equal.
"""

import numpy as np


def exact_states(value):
    """``value`` — a state, or a list / tuple / dict holding states —
    with every numpy array replaced by ``("ndarray", dtype, tolist())``."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.tolist())
    if isinstance(value, (list, tuple)):
        return type(value)(map(exact_states, value))
    if isinstance(value, dict):
        return {key: exact_states(item) for key, item in value.items()}
    return value
