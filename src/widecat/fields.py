"""Exact coefficient fields.

Two fields are supported: the rationals (elements are `fractions.Fraction`)
and prime fields F_p (elements are ints in range(p)).  Every computation in
the package is exact; floats never appear.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class FieldError(ValueError):
    """Raised for malformed field specifications."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field: the rationals ('Q') or a prime field ('Fp', p).

    Instances are immutable and hashable so they can key caches.  Element
    representation:

    * rationals: `Fraction`
    * F_p: python int in [0, p)
    """

    kind: str  # "Q" or "Fp"
    p: int = 0

    def __post_init__(self):
        if self.kind == "Q":
            if self.p:
                raise FieldError("rational field takes no characteristic")
        elif self.kind == "Fp":
            if not _is_prime(self.p):
                raise FieldError(f"{self.p} is not prime")
        else:
            raise FieldError(f"unknown field kind {self.kind!r}")

    # -- construction of elements ------------------------------------

    def of(self, value) -> Fraction | int:
        """Coerce an int, Fraction or 'a/b' string into a field element."""
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, float):
            raise FieldError("floats are not accepted; use rationals")
        if self.kind == "Q":
            return Fraction(value)
        frac = Fraction(value)
        den = frac.denominator % self.p
        if den == 0:
            raise FieldError(f"denominator divisible by {self.p}")
        return (frac.numerator * pow(den, self.p - 2, self.p)) % self.p

    @property
    def zero(self):
        return _Q_ZERO if self.kind == "Q" else 0

    @property
    def one(self):
        return _Q_ONE if self.kind == "Q" else 1

    # -- arithmetic ----------------------------------------------------

    def add(self, a, b):
        return a + b if self.kind == "Q" else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == "Q" else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "Q" else (a * b) % self.p

    def neg(self, a):
        return -a if self.kind == "Q" else (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        if self.kind == "Q":
            return 1 / Fraction(a)
        return pow(a, self.p - 2, self.p)

    # -- serialization ---------------------------------------------------

    def to_str(self, a) -> str:
        """Canonical string form used in all JSON output."""
        if self.kind == "Q":
            return str(a)
        return str(a % self.p)

    def name(self) -> str:
        return "Q" if self.kind == "Q" else f"F{self.p}"


QQ = FieldSpec("Q")
_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)  # immutable, so shared


def field_from_name(text: str) -> FieldSpec:
    """Parse 'Q', 'F101' or 'Fp 101' style field names."""
    text = text.strip()
    if text in ("Q", "QQ"):
        return QQ
    if text.startswith("F"):
        body = text[1:].lstrip("p").strip()
        if body.isdigit():
            return FieldSpec("Fp", int(body))
    raise FieldError(f"cannot parse field name {text!r}")
