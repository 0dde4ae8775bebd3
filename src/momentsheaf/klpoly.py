"""Polynomials in q with integer coefficients, as exchanged between the
sheaf engine and the Hecke-algebra oracle.

This module is a pure value type plus formatting; it contains no algorithm
from either computation path, so both sides may depend on it without
compromising their independence.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class KLPolynomial:
    """A polynomial in q with nonnegative integer coefficients.

    coeffs[i] is the coefficient of q^i (internal-degree grading; the
    cohomological degree is twice the exponent).  No trailing zeros.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]) -> None:
        trimmed = _trim(coeffs)
        if any(c < 0 for c in trimmed):
            raise ValueError(f"negative coefficient in {trimmed}")
        self.coeffs = trimmed

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KLPolynomial) and self.coeffs == other.coeffs

    @classmethod
    def from_degree_counts(cls, degrees: Sequence[int]) -> "KLPolynomial":
        """Generating polynomial of a multiset of degrees."""
        if not degrees:
            return cls(())
        coeffs = [0] * (max(degrees) + 1)
        for d in degrees:
            coeffs[d] += 1
        return cls(tuple(coeffs))

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def dominates(self, other: "KLPolynomial") -> bool:
        """Coefficientwise >=."""
        span = max(len(self.coeffs), len(other.coeffs))
        return all(self.coefficient(i) >= other.coefficient(i) for i in range(span))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                q = "q" if i == 1 else f"q^{i}"
                terms.append(q if c == 1 else f"{c}{q}")
        return "+".join(terms)


def poincare_csv(rows: Iterable[tuple[str, str, KLPolynomial]]) -> str:
    """Shared CSV shape for Poincare tables: one row (x, y, P) per pair."""
    lines = ["x,y,P"]
    for x, y, p in rows:
        lines.append(f"{x},{y},{p}")
    return "\n".join(lines) + "\n"
