"""The counting rules' table: each rule's suite distribution and its exact lower
bound on #(A1.A3 u A2.A2), read by `lemmas` and `bounds`. It loads no numpy."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional

from .errors import InvariantViolation

CHAIN_RATIO_EPSILON = Fraction(1, 530)


@dataclass(frozen=True)
class Rule:
    """One counting rule: its suite's instance distribution and its bound.

    The suite draws #A3 from `sizes` in dimension `dim`; `ratios` steers
    #A2/#A3 of the gauge generator, `inner_dim` is the least dim A1 it keeps.
    The bound is the least c3*#A3 + c2*#A2 + c0 over `forms`, plus `eps_slope`
    times the chain-ratio epsilon (rule 2.6). Rule 2.4 has no bound.
    """

    dim: int
    sizes: tuple[int, int]
    ratios: Optional[tuple[float, float]] = None
    inner_dim: Optional[int] = None
    forms: tuple[tuple[Fraction, Fraction, Fraction], ...] = ()
    eps_slope: tuple[Fraction, Fraction, Fraction] = (0, 0, 0)

    def forms_at(self, epsilon: Fraction) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        """The forms' (c3, c2, c0) at the given chain-ratio epsilon."""
        return tuple(tuple(c + s * epsilon for c, s in zip(form, self.eps_slope))
                     for form in self.forms)


def _forms(*rows) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    return tuple(tuple(Fraction(c) for c in row) for row in rows)


RULES = {
    "2.4": Rule(dim=3, sizes=(12, 44)),
    "2.5": Rule(dim=3, sizes=(40, 170), ratios=(0.60, 0.92), inner_dim=3, forms=_forms(
        (1, 3, -23),
        ("5/6", "10/3", -10),
        ("5/6", "13/4", -2),
        ("7/12", "15/4", -6),
        ("1/2", 4, -4),
        (0, 5, -31),
    )),
    # (1 - eps)#A3 + 14(1 - 4eps)/3 #A2 - 57
    "2.6": Rule(dim=4, sizes=(4900, 9600), inner_dim=4, forms=_forms((1, "14/3", -57)),
                eps_slope=(-1, Fraction(-56, 3), 0)),
    "2.7": Rule(dim=3, sizes=(50, 220), ratios=(0.50, 0.90), inner_dim=3,
                forms=_forms(("9/10", "16/5", -30))),
}
LEMMA_IDS = tuple(RULES)


def _rule(lemma_id: str) -> Rule:
    try:
        return RULES[lemma_id]
    except KeyError:
        raise InvariantViolation(f"unknown rule id {lemma_id!r}") from None


def _forms_at(lemma_id: str, epsilon: Fraction) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """`Rule.forms_at` over one common denominator, built once per (rule,
    epsilon): (q, rows), each form's (c3, c2, c0) being its integer row / q."""
    return _integer_forms(lemma_id, epsilon.numerator, epsilon.denominator)


@lru_cache(maxsize=64)
def _integer_forms(lemma_id: str, eps_num: int,
                   eps_den: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    # keyed on integers: a Fraction's hash is a pure-Python modular inverse
    forms = _rule(lemma_id).forms_at(Fraction(eps_num, eps_den))
    q = lcm(*(c.denominator for form in forms for c in form))
    return q, tuple(tuple(int(c * q) for c in form) for form in forms)


def bound_margin(lemma_id: str, n2: int, n3: int, rhs: int,
                 epsilon: Fraction = CHAIN_RATIO_EPSILON) -> Fraction:
    """The rule's bound for #(A1.A3 u A2.A2) less the integer rhs, built as one Fraction."""
    if n2 < 0 or n3 < 0:
        raise InvariantViolation("set sizes must be nonnegative")
    q, rows = _forms_at(lemma_id, epsilon)
    if not rows:
        raise InvariantViolation(f"no closed-form bound for rule {lemma_id!r}")
    return Fraction(min(c3 * n3 + c2 * n2 + c0 for c3, c2, c0 in rows) - rhs * q, q)


def bound_formula(lemma_id: str, n2: int, n3: int,
                  epsilon: Fraction = CHAIN_RATIO_EPSILON) -> Fraction:
    """Exact lower-bound value the rule promises for #(A1.A3 u A2.A2)."""
    return bound_margin(lemma_id, n2, n3, 0, epsilon)
