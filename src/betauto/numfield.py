"""Exact arithmetic in Z[beta], and in Z[X] for a formal base.

A ``BetaContext`` fixes the base beta (by its integer minimal polynomial, or
as a formal indeterminate), a finite digit set, and certified numeric
enclosures of the conjugates of beta.  All element arithmetic is exact: the
working minimal polynomial is monic, so elements are integer vectors in
Z[beta] (modulo the minimal polynomial), or integer polynomials in Z[X].  The
numeric enclosures are only used for pruning bounds and modulus
classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import mpmath as mp
from sympy import Poly, Symbol, factor_list

ALGEBRAIC = "algebraic"
TRANSCENDENTAL = "transcendental"

EXPANDING = "expanding"
CONTRACTING = "contracting"
UNIT = "unit"

#: half-width of the band around modulus 1 inside which a root of a
#: self-reciprocal polynomial is declared to lie on the unit circle
UNIT_BAND = 1e-9
#: target enclosure radius used when testing the unit band
UNIT_REFINE_RADIUS = 1e-14
#: largest mpmath dps used to separate the roots or classify their moduli
MAX_PRECISION = 2000


class NumFieldError(Exception):
    pass


class NotSquarefree(NumFieldError):
    pass


class UnsupportedDenominator(NumFieldError):
    """Neither beta nor 1/beta is an algebraic integer."""


class EmptyDigits(NumFieldError):
    pass


class ModeMismatch(NumFieldError):
    pass


# ---------------------------------------------------------------------------
# small integer/rational polynomial helpers (coefficient lists, constant first)


def poly_trim(c: Sequence) -> tuple:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_deg(c: Sequence) -> int:
    """Degree with deg(0) = -1."""
    return len(poly_trim(c)) - 1


def poly_deriv(c: Sequence) -> tuple:
    return poly_trim([i * c[i] for i in range(1, len(c))])


def poly_divmod(a: Sequence, b: Sequence) -> tuple[tuple, tuple]:
    """Euclidean division over Q."""
    a = [Fraction(x) for x in poly_trim(a)]
    b = [Fraction(x) for x in poly_trim(b)]
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        k = len(a) - len(b)
        f = a[-1] / b[-1]
        q[k] = f
        for i, bc in enumerate(b):
            a[i + k] -= f * bc
        a = list(poly_trim(a))
    return poly_trim(q), poly_trim(a)


def poly_gcd(a: Sequence, b: Sequence) -> tuple:
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return a


def poly_content(c: Sequence) -> int:
    g = 0
    for x in c:
        g = math.gcd(g, abs(int(x)))
    return g


def poly_str(c: Sequence, var: str = "x") -> str:
    """Human-readable form, highest power first."""
    c = poly_trim(c)
    if not c:
        return "0"
    parts = []
    for i in range(len(c) - 1, -1, -1):
        a = c[i]
        if a == 0:
            continue
        if i == 0:
            term = str(abs(a)) if a == int(a) else str(abs(Fraction(a)))
        else:
            mag = "" if abs(a) == 1 else f"{abs(a)}*"
            term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
        sign = "-" if a < 0 else "+"
        if not parts:
            parts.append(term if a > 0 else "-" + term)
        else:
            parts.append(f"{sign}{term}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# complex disk arithmetic (certified-enough enclosures around float centers)

# inflation factor covering float rounding in short dot products
_SLOP = 1e-13


def disk_abs(cen: complex, rad: float) -> tuple[float, float]:
    m = abs(cen)
    return max(m - rad, 0.0), m + rad


def disk_modulus(coeffs: Sequence[int], rows: Sequence[tuple[complex, float, float]]) -> tuple[float, float]:
    """Enclosure of |sum_k coeffs[k] * gamma^k| for integer coefficients, from
    rows (centre, radius, |centre|) of the disks enclosing gamma^0, gamma^1, ...
    (see ``BetaContext.power_rows``)."""
    cen = 0j
    rad = mag = norm = 0.0
    for c, (pc, pr, apc) in zip(coeffs, rows):
        if c:
            cen += c * pc
            ac = c if c > 0 else -c
            rad += ac * pr
            mag += ac * apc
            norm += ac
    # 1e-15 per unit of the coefficients' 1-norm covers their rounding to float
    return disk_abs(cen, rad + _SLOP * (mag + 1.0) + norm * 1e-15)


@dataclass(frozen=True)
class Embedding:
    """Certified enclosure of one conjugate of beta."""

    center: complex
    radius: float
    cls: str  # EXPANDING / CONTRACTING / UNIT

    def abs_interval(self) -> tuple[float, float]:
        return disk_abs(self.center, self.radius)


def _certified_roots(coeffs: Sequence[int], dps: int) -> list[tuple[complex, float]]:
    """All roots of the squarefree integer polynomial, with radius bounds.

    Uses the classical bound: every polynomial of degree d has a root within
    d*|P(z)/P'(z)| of any point z.  Disjointness of the disks then isolates
    one simple root per disk; overlapping disks are retried at doubled
    precision, up to ``MAX_PRECISION``.
    """
    coeffs = poly_trim(coeffs)
    d = len(coeffs) - 1
    lead_first = [mp.mpf(int(c)) for c in reversed(coeffs)]
    with mp.workdps(dps):
        roots = mp.polyroots(lead_first, maxsteps=200, extraprec=4 * dps)
        out = []
        for z in roots:
            pz = mp.polyval(lead_first, z)
            dpz = mp.polyval([c * (d - i) for i, c in enumerate(lead_first[:-1])], z)
            if dpz == 0:
                raise NotSquarefree("repeated root encountered in root isolation")
            # the disk around the float centre also covers its rounding from z
            cen = complex(z)
            rad = d * abs(pz / dpz) * 1.001 + mp.mpf(10) ** (5 - dps) + abs(z - cen)
            out.append((cen, math.nextafter(float(rad), math.inf)))
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if abs(out[i][0] - out[j][0]) <= out[i][1] + out[j][1]:
                # disks overlap: retry at higher precision
                if dps * 2 > MAX_PRECISION:
                    raise NumFieldError("cannot separate the roots at max precision")
                return _certified_roots(coeffs, dps * 2)
    return out


def is_self_reciprocal(coeffs: Sequence[int]) -> bool:
    """True when P(X) = +-X^deg * P(1/X) (palindromic up to sign)."""
    c = poly_trim(coeffs)
    rev = tuple(reversed(c))
    return rev == c or rev == tuple(-x for x in c)


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class FieldElem:
    """Exact element: integer vector on 1, beta, ..., beta^(d-1) in Z[beta]
    (the working minimal polynomial is monic), or an integer polynomial in
    the formal variable X (transcendental mode)."""

    mode: str
    coeffs: tuple

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def degree(self) -> int:
        return poly_deg(self.coeffs)

    def __str__(self) -> str:
        var = "X" if self.mode == TRANSCENDENTAL else "b"
        return poly_str(self.coeffs, var)


def fe_add(x: FieldElem, y: FieldElem) -> FieldElem:
    if x.mode != y.mode:
        raise ModeMismatch(f"{x.mode} vs {y.mode}")
    if x.mode == ALGEBRAIC:
        if len(x.coeffs) != len(y.coeffs):
            raise ModeMismatch("different field degrees")
        return FieldElem(x.mode, tuple(a + b for a, b in zip(x.coeffs, y.coeffs)))
    n = max(len(x.coeffs), len(y.coeffs))
    xs = list(x.coeffs) + [0] * (n - len(x.coeffs))
    ys = list(y.coeffs) + [0] * (n - len(y.coeffs))
    return FieldElem(x.mode, poly_trim([a + b for a, b in zip(xs, ys)]))


def fe_neg(x: FieldElem) -> FieldElem:
    return FieldElem(x.mode, tuple(-c for c in x.coeffs))


def fe_sub(x: FieldElem, y: FieldElem) -> FieldElem:
    return fe_add(x, fe_neg(y))


@dataclass
class BetaContext:
    """Working form of the base: minimal polynomial (monic, after possible
    inversion to u = 1/beta), digit set, and certified conjugate enclosures."""

    mode: str
    minpoly: tuple | None  # working minimal polynomial, constant first, monic
    user_minpoly: tuple | None  # as supplied (normalized sign/content)
    inverted: bool
    digits: list  # list[FieldElem] in the working basis
    digit_names: list  # display names, aligned with digits
    blocked: bool = False  # certified unit-circle conjugate
    precision: int = 30  # mpmath dps of the root isolation
    embeddings: list = field(default_factory=list)
    #: per embedding: rows (centre, radius, |centre|) of the disks enclosing
    #: gamma^0 .. gamma^(d-1), the input of ``disk_modulus``
    power_rows: list = field(default_factory=list)

    # -- exact arithmetic ---------------------------------------------------

    @property
    def degree(self) -> int:
        return poly_deg(self.minpoly) if self.mode == ALGEBRAIC else 0

    def zero(self) -> FieldElem:
        if self.mode == ALGEBRAIC:
            return FieldElem(ALGEBRAIC, (0,) * self.degree)
        return FieldElem(TRANSCENDENTAL, ())

    def from_int_poly(self, coeffs: Sequence[int]) -> FieldElem:
        """Element from an integer coefficient list in the working basis."""
        if self.mode == TRANSCENDENTAL:
            return FieldElem(TRANSCENDENTAL, poly_trim([int(c) for c in coeffs]))
        return FieldElem(ALGEBRAIC, self._reduce([int(c) for c in coeffs]))

    def _reduce(self, c: list[int]) -> tuple:
        """Reduce modulo the (monic) working minimal polynomial."""
        d = self.degree
        c = list(c)
        for i in range(len(c) - 1, d - 1, -1):
            f = c[i]
            if f:
                for j in range(d):
                    c[i - d + j] -= f * self.minpoly[j]
            c.pop()
        c += [0] * (d - len(c))
        return tuple(c)

    def mul_base(self, x: FieldElem) -> FieldElem:
        """Multiply by the working base (shift and reduce / shift by X)."""
        if x.mode == TRANSCENDENTAL:
            if not x.coeffs:
                return x
            return FieldElem(TRANSCENDENTAL, (0,) + x.coeffs)
        return FieldElem(ALGEBRAIC, self._reduce([0] + list(x.coeffs)))

    def one(self) -> FieldElem:
        if self.mode == ALGEBRAIC:
            return self.from_int_poly([1])
        return FieldElem(TRANSCENDENTAL, (1,))

    # -- numeric enclosures ---------------------------------------------------

    def _rebuild_embeddings(self) -> None:
        roots = _certified_roots(self.minpoly, self.precision)
        selfrec = is_self_reciprocal(self.minpoly)
        embeddings = []
        blocked = False
        for cen, rad in roots:
            lo, hi = disk_abs(cen, rad)
            if hi < 1.0:
                cls = CONTRACTING
            elif lo > 1.0:
                cls = EXPANDING
            elif selfrec and rad <= UNIT_REFINE_RADIUS and lo <= 1 + UNIT_BAND and hi >= 1 - UNIT_BAND:
                cls = UNIT
                blocked = True
            else:
                # undecided: refine and retry
                if self.precision * 2 > MAX_PRECISION:
                    raise NumFieldError("cannot classify conjugate moduli at max precision")
                self.precision *= 2
                self._rebuild_embeddings()
                return
            embeddings.append(Embedding(cen, rad, cls))
        self.embeddings = embeddings
        self.blocked = blocked
        self.power_rows = [self._power_rows(e) for e in embeddings]

    def _power_rows(self, e: Embedding) -> list[tuple[complex, float, float]]:
        pc, pr = 1.0 + 0j, 0.0
        rows = []
        for _ in range(self.degree):
            rows.append((pc, pr, abs(pc)))
            cen = pc * e.center
            rad = abs(pc) * e.radius + pr * abs(e.center) + pr * e.radius
            pc, pr = cen, rad + _SLOP * (abs(cen) + 1.0)
        return rows

    def abs_at(self, x: FieldElem, i: int) -> tuple[float, float]:
        """Certified enclosure of |sigma_i(x)|."""
        if self.mode != ALGEBRAIC:
            raise ModeMismatch("no numeric embeddings in transcendental mode")
        return disk_modulus(x.coeffs, self.power_rows[i])

    def expanding_indices(self) -> list[int]:
        return [i for i, e in enumerate(self.embeddings) if e.cls == EXPANDING]

    # -- digit-difference data ----------------------------------------------

    def digit_diffs(self) -> list[FieldElem]:
        """All pairwise digit differences (the set A - A), with repeats removed."""
        seen = {}
        for a in self.digits:
            for b in self.digits:
                d = fe_sub(a, b)
                seen.setdefault(d.coeffs, d)
        return list(seen.values())

    def prune_bound(self, i: int) -> tuple[float, float]:
        """Enclosure of max_{a in A-A} |sigma_i(a)| / (|gamma_i| - 1)."""
        e = self.embeddings[i]
        glo, ghi = e.abs_interval()
        num_lo = num_hi = 0.0
        for d in self.digit_diffs():
            lo, hi = self.abs_at(d, i)
            num_lo = max(num_lo, lo)
            num_hi = max(num_hi, hi)
        if glo <= 1.0:
            raise NumFieldError("prune bound requested at a non-expanding embedding")
        return num_lo / (ghi - 1.0), num_hi / (glo - 1.0)


def mahler_measure(ctx: BetaContext) -> tuple[float, float]:
    """Enclosure of |lead| * prod of conjugate moduli exceeding 1, for the
    base as supplied by the user (before any inversion)."""
    if ctx.mode != ALGEBRAIC:
        raise ModeMismatch("Mahler measure needs an algebraic base")
    lead = abs(ctx.user_minpoly[-1])
    lo, hi = float(lead), float(lead)
    for e in ctx.embeddings:
        alo, ahi = e.abs_interval()
        if ctx.inverted:
            # user conjugates are the reciprocals of the working ones
            if e.cls != CONTRACTING:
                continue
            alo, ahi = 1.0 / ahi, 1.0 / alo
        elif e.cls != EXPANDING:
            continue
        lo *= alo
        hi *= ahi
    return lo, hi


# ---------------------------------------------------------------------------
# context construction


def _normalize_minpoly(coeffs: Sequence[int]) -> tuple:
    c = poly_trim([int(x) for x in coeffs])
    if len(c) < 2:
        raise NumFieldError("minimal polynomial must have degree >= 1")
    g = poly_content(c)
    if g > 1:
        c = tuple(x // g for x in c)
    if c[-1] < 0:
        c = tuple(-x for x in c)
    if poly_deg(poly_gcd(c, poly_deriv(c))) > 0:
        raise NotSquarefree(f"{poly_str(c)} is not squarefree")
    factors = factor_list(Poly(list(reversed(c)), Symbol("x")))[1]
    if len(factors) > 1 or factors[0][1] > 1:
        raise NumFieldError(f"minimal polynomial {poly_str(c)} is reducible")
    return c


def _digit_name(coeffs: Sequence[int], index: int) -> str:
    c = poly_trim(coeffs)
    if len(c) <= 1:
        return str(c[0] if c else 0)
    return f"t{index}"


def make_context(
    minpoly: Sequence[int] | str,
    digit_specs: Sequence[Sequence[int]],
    precision: int = 30,
) -> BetaContext:
    """Build a working context.

    ``minpoly`` is an integer coefficient list (constant term first) for the
    base, or the string ``"transcendental"``.  Each digit is an integer
    coefficient list in powers of the user-supplied base.  When the leading
    coefficient is not a unit but the constant one is, the context is
    inverted: the construction runs on u = 1/beta with reversed minimal
    polynomial and digits rescaled by beta^(-m), which reverses their
    coefficient vectors (relations are invariant under digit scaling).
    """
    digit_specs = [
        poly_trim([int(d)] if isinstance(d, int) else [int(c) for c in d])
        for d in digit_specs
    ]
    if not digit_specs:
        raise EmptyDigits("at least one digit is required")

    names = [_digit_name(d, i) for i, d in enumerate(digit_specs)]

    if isinstance(minpoly, str):
        if minpoly != TRANSCENDENTAL:
            raise NumFieldError(f"unknown mode {minpoly!r}")
        ctx = BetaContext(
            mode=TRANSCENDENTAL,
            minpoly=None,
            user_minpoly=None,
            inverted=False,
            digits=[],
            digit_names=names,
            precision=precision,
        )
        ctx.digits = [ctx.from_int_poly(d) for d in digit_specs]
    else:
        user = _normalize_minpoly(minpoly)
        if abs(user[-1]) == 1:
            working = user
            inverted = False
            working_digits = digit_specs
        elif abs(user[0]) == 1:
            working = _normalize_minpoly(tuple(reversed(user)))
            inverted = True
            m = max(max(poly_deg(d), 0) for d in digit_specs)
            # beta^(-m) * sum c_j beta^j = sum c_(m-i) u^i
            working_digits = [
                tuple(reversed(tuple(d) + (0,) * (m + 1 - len(d)))) for d in digit_specs
            ]
        else:
            raise UnsupportedDenominator(
                "neither the base nor its inverse is an algebraic integer"
            )
        ctx = BetaContext(
            mode=ALGEBRAIC,
            minpoly=working,
            user_minpoly=user,
            inverted=inverted,
            digits=[],
            digit_names=names,
            precision=precision,
        )
        ctx.digits = [ctx.from_int_poly(d) for d in working_digits]
        ctx._rebuild_embeddings()

    if len({d.coeffs for d in ctx.digits}) != len(ctx.digits):
        raise NumFieldError("digits must be pairwise distinct")
    return ctx


def _int_list(value, what: str) -> list:
    # bool is an int subclass and float would be truncated: accept neither
    if not isinstance(value, list) or not all(type(c) is int for c in value):
        raise NumFieldError(f"{what} must be integers, got {value!r}")
    return value


def context_from_config(doc: dict) -> BetaContext:
    """Ingest the JSON context schema:
    {"beta": {"minpoly": [ints]} | "transcendental", "digits": [[ints], ...],
     "precision": int?}"""
    if not isinstance(doc, dict):
        raise NumFieldError("config must be a JSON object")
    beta = doc.get("beta")
    if beta == TRANSCENDENTAL:
        base = TRANSCENDENTAL
    elif isinstance(beta, dict) and "minpoly" in beta:
        base = _int_list(beta["minpoly"], "beta.minpoly")
    else:
        raise NumFieldError("config needs beta.minpoly or beta == 'transcendental'")
    digits = doc.get("digits")
    if not isinstance(digits, list):
        raise NumFieldError("config needs a digits list")
    digits = [_int_list(d if isinstance(d, list) else [d], "digit coefficients") for d in digits]
    precision = doc.get("precision", 30)
    if type(precision) is not int or precision < 1:
        raise NumFieldError("precision must be an integer >= 1")
    return make_context(base, digits, precision=precision)
