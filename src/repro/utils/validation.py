"""Input validation helpers.

All public entry points of the library validate their inputs through these
helpers so that error messages are uniform and tests can rely on
:class:`~repro.exceptions.ValidationError` being raised for bad input.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "check_data_matrix",
    "check_finite",
    "check_in_range",
    "check_positive",
    "check_probability_vector",
    "check_index_array",
    "check_query_block",
]


def check_data_matrix(data: np.ndarray, *, name: str = "data") -> np.ndarray:
    """Validate and canonicalise a 2-D float data matrix.

    Parameters
    ----------
    data:
        Array-like of shape ``(n, d)``; rows are data items.
    name:
        Name used in error messages.

    Returns
    -------
    numpy.ndarray
        A C-contiguous ``float64`` array of shape ``(n, d)``.

    Raises
    ------
    ValidationError
        If the array is not 2-D, is empty, or contains NaN/inf.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(
            f"{name} must be 2-D (n items x d features), got ndim={arr.ndim}"
        )
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValidationError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(arr)


def check_query_block(
    queries,
    *,
    dim: int | None = None,
    allow_empty: bool = True,
    name: str = "queries",
) -> np.ndarray:
    """Validate and canonicalise a block of query points.

    The serving fronts accept whatever a client sends, so every failure
    mode of the float conversion becomes a :class:`ValidationError`:
    strings and other non-numeric input, ragged nested lists, and
    complex values (which a plain ``float64`` cast would truncate to
    their real part with only a warning — a silently wrong answer).

    Parameters
    ----------
    queries:
        Array-like of shape ``(q, d)``; a single ``(d,)`` vector is one
        query.
    dim:
        Required number of columns, or ``None`` to accept any.
    allow_empty:
        Whether a block of zero rows is accepted.
    name:
        Name used in error messages.

    Returns
    -------
    numpy.ndarray
        A C-contiguous ``float64`` array of shape ``(q, d)``.
    """
    try:
        arr = np.asarray(queries)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a numeric array: {exc}") from None
    if arr.dtype.kind not in "biuf":
        raise ValidationError(
            f"{name} must hold real numbers, got dtype {arr.dtype}"
        )
    arr = np.atleast_2d(arr)
    if arr.ndim != 2 or (dim is not None and arr.shape[1] != dim):
        wanted = "d" if dim is None else dim
        raise ValidationError(
            f"{name} must be (q, {wanted}), got shape {arr.shape}"
        )
    if arr.shape[0] == 0 and not allow_empty:
        raise ValidationError(f"{name} must be non-empty, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contain NaN or infinite values")
    return arr


def check_finite(value: np.ndarray | float, *, name: str = "value") -> None:
    """Raise :class:`ValidationError` if *value* contains NaN or inf."""
    if not np.all(np.isfinite(value)):
        raise ValidationError(f"{name} contains NaN or infinite values")


def check_positive(value: float, *, name: str = "value", strict: bool = True) -> float:
    """Validate that a scalar is (strictly) positive and return it as float."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {type(value)!r}")
    value = float(value)
    if strict and value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def check_in_range(
    value: float,
    low: float,
    high: float,
    *,
    name: str = "value",
    inclusive: bool = True,
) -> float:
    """Validate that ``low <= value <= high`` (or strict) and return it."""
    value = float(value)
    if inclusive:
        ok = low <= value <= high
    else:
        ok = low < value < high
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ValidationError(
            f"{name} must lie in {bracket[0]}{low}, {high}{bracket[1]}, got {value}"
        )
    return value


def check_probability_vector(
    x: np.ndarray, *, name: str = "x", atol: float = 1e-8
) -> np.ndarray:
    """Validate that *x* lies on the standard simplex.

    The vector must be 1-D, non-negative and sum to 1 within *atol*.
    Returns the vector as ``float64``.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    if np.any(arr < -atol):
        raise ValidationError(f"{name} has negative entries (min={arr.min()})")
    total = float(arr.sum())
    if abs(total - 1.0) > max(atol, 1e-12 * arr.size):
        raise ValidationError(f"{name} must sum to 1, got {total}")
    return arr


def check_index_array(
    indices: np.ndarray, n: int, *, name: str = "indices", allow_empty: bool = True
) -> np.ndarray:
    """Validate an integer index array against a collection of size *n*.

    A boolean array is refused: it is a mask, and read as indices its
    True/False entries would silently select rows 1 and 0.
    """
    arr = np.asarray(indices)
    if arr.dtype == np.bool_:
        raise ValidationError(
            f"{name} must hold integer indices, not a boolean mask "
            "(pass np.flatnonzero(mask))"
        )
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if arr.size == 0:
        if allow_empty:
            return arr.astype(np.intp)
        raise ValidationError(f"{name} must be non-empty")
    if not np.issubdtype(arr.dtype, np.integer):
        as_int = arr.astype(np.intp)
        if not np.array_equal(as_int, arr):
            raise ValidationError(f"{name} must be integer-valued")
        arr = as_int
    if arr.min() < 0 or arr.max() >= n:
        raise ValidationError(
            f"{name} out of bounds for collection of size {n}: "
            f"min={arr.min()}, max={arr.max()}"
        )
    return arr.astype(np.intp)
