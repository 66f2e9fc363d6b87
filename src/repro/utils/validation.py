"""Validation helpers mirroring the paper's correctness protocol.

Section V-A compares each kernel against PyTorch's masked SDP attention using
``allclose`` with ``atol = 1e-8``, ``rtol = 1e-5`` and ``equal_nan = True``.
:func:`assert_allclose_paper` applies exactly that check; the tolerances are
exported so tests can reference them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Absolute tolerance used by the paper's verification (Section V-A).
PAPER_ATOL = 1e-8
#: Relative tolerance used by the paper's verification (Section V-A).
PAPER_RTOL = 1e-5


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError`` with ``message`` unless ``condition`` holds.

    A tiny guard helper used throughout the library for argument validation so
    error messages stay uniform.
    """
    if not condition:
        raise ValueError(message)


def check_finite(array: np.ndarray, name: str = "array") -> None:
    """Raise ``ValueError`` if ``array`` contains NaN or infinity."""
    if not np.all(np.isfinite(array)):
        bad = int(np.size(array) - np.count_nonzero(np.isfinite(array)))
        raise ValueError(f"{name} contains {bad} non-finite entries")


def check_real_finite(array: np.ndarray, name: str = "array") -> None:
    """Raise ``ValueError`` unless ``array`` holds finite real floating-point values.

    Attention computed in an integer or boolean dtype truncates, and a
    complex tensor loses its imaginary part on its way into a real KV arena.
    """
    require(
        np.issubdtype(array.dtype, np.floating),
        f"{name} must be a real floating-point array, got {array.dtype}",
    )
    check_finite(array, name)


@dataclass(frozen=True)
class AllcloseReport:
    """Outcome of an elementwise comparison between two attention outputs."""

    ok: bool
    max_abs_error: float
    max_rel_error: float
    mismatched: int
    total: int

    @property
    def mismatch_fraction(self) -> float:
        """Fraction of entries that fail the tolerance check."""
        return self.mismatched / self.total if self.total else 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "OK" if self.ok else "MISMATCH"
        return (
            f"[{status}] max_abs={self.max_abs_error:.3e} "
            f"max_rel={self.max_rel_error:.3e} "
            f"mismatched={self.mismatched}/{self.total}"
        )


def allclose_report(
    actual: np.ndarray,
    expected: np.ndarray,
    *,
    atol: float = PAPER_ATOL,
    rtol: float = PAPER_RTOL,
    equal_nan: bool = True,
) -> AllcloseReport:
    """Compare two arrays and return a structured report.

    NaNs are treated as equal when ``equal_nan`` (the paper sets this flag so
    fully-masked rows, which dense SDP turns into NaN, do not fail the check).
    """
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        raise ValueError(f"shape mismatch: {actual.shape} vs {expected.shape}")
    close = np.isclose(actual, expected, atol=atol, rtol=rtol, equal_nan=equal_nan)
    both_nan = np.isnan(actual) & np.isnan(expected)
    diff = np.abs(actual - expected)
    diff[both_nan] = 0.0
    denom = np.abs(expected)
    rel = np.where(denom > 0, diff / np.maximum(denom, 1e-300), diff)
    rel[both_nan] = 0.0
    finite_diff = diff[np.isfinite(diff)]
    finite_rel = rel[np.isfinite(rel)]
    return AllcloseReport(
        ok=bool(close.all()),
        max_abs_error=float(finite_diff.max()) if finite_diff.size else 0.0,
        max_rel_error=float(finite_rel.max()) if finite_rel.size else 0.0,
        mismatched=int(close.size - np.count_nonzero(close)),
        total=int(close.size),
    )


def assert_allclose_paper(
    actual: np.ndarray,
    expected: np.ndarray,
    *,
    atol: float = PAPER_ATOL,
    rtol: float = PAPER_RTOL,
    context: Optional[str] = None,
) -> AllcloseReport:
    """Assert the paper's allclose check and return the report on success."""
    report = allclose_report(actual, expected, atol=atol, rtol=rtol, equal_nan=True)
    if not report.ok:
        prefix = f"{context}: " if context else ""
        raise AssertionError(f"{prefix}outputs differ beyond tolerance: {report}")
    return report
