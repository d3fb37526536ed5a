"""Shared exception types, and the one place a refused allocation becomes one."""

import math

import numpy as np


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class NotApplicable(Exception):
    """The operation is undefined for this input (e.g. a single-district state)."""


def allocate(shape: tuple[int, ...], what: str) -> np.ndarray:
    """An uninitialized float64 array of ``shape``, allocated before any work fills it.

    Where numpy refuses the size (``MemoryError``, or ``ValueError`` past
    its maximum), raises DomainError naming ``what`` and the bytes asked for.
    """
    try:
        return np.empty(shape)
    except (MemoryError, ValueError):
        raise DomainError(f"{what}: {math.prod(shape) * 8:,} bytes cannot be allocated") from None
