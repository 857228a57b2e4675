"""Exact arithmetic in Z[beta], and in Z[X] for a formal base.

A ``BetaContext`` is a frozen value that fixes the base beta (by its integer
minimal polynomial, or as a formal indeterminate), a finite digit set, and
certified numeric enclosures of the conjugates of beta.  ``make_context``
computes all of it in one pure function.  All element arithmetic is exact:
the working minimal polynomial is monic, so elements are integer vectors in
Z[beta] (modulo the minimal polynomial), or integer polynomials in Z[X].

The numeric enclosures are only used for pruning bounds and modulus
classification.  Whether a conjugate lies on the unit circle is decided
exactly (``_unit_root_count``, a Sturm count); the root isolation doubles its
precision until the disks are disjoint and exactly that many of them straddle
modulus 1.  The roots are found by mpmath's Durand-Kerner iteration, seeded
with the roots of the same iteration run first in floats (``_float_seeds``).
The minimal polynomial is factored, and the Sturm count taken, by sympy's
dense integer routines, without its ``Poly`` wrappers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

import mpmath as mp
from mpmath.libmp import NoConvergence, from_int, to_rational
from sympy import QQ, ZZ
from sympy.polys.factortools import dup_factor_list
from sympy.polys.rootisolation import dup_count_real_roots

ALGEBRAIC = "algebraic"
TRANSCENDENTAL = "transcendental"

EXPANDING = "expanding"
CONTRACTING = "contracting"
UNIT = "unit"

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
# small integer polynomial helpers (coefficient lists, constant first)


def poly_trim(c: Sequence) -> tuple:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_deg(c: Sequence) -> int:
    """Degree with deg(0) = -1."""
    return len(poly_trim(c)) - 1


def poly_divides(b: Sequence, a: Sequence) -> bool:
    """Whether ``b`` divides ``a`` in Z[x].  Long division over Q gives the
    quotient's coefficients from the top, so it suffices that each is an
    integer; for a monic ``a`` that needs a leading coefficient +-1 of
    ``b``, and then no step leaves Z."""
    a, b = list(poly_trim(a)), poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    while len(a) >= len(b):
        f, r = divmod(a.pop(), b[-1])
        if r:
            return False
        for i, c in enumerate(b[:-1], len(a) + 1 - len(b)):
            a[i] -= f * c
        a = list(poly_trim(a))
    return not a


def poly_sign_at(c: Sequence, x) -> int:
    """Sign (-1, 0 or 1) of the integer polynomial ``c`` at the rational
    ``x`` = p/q, q > 0 (an int or a ``Fraction``): the sign of the integer
    q**n c(p/q), n = len(c) - 1, by Horner's rule in integers."""
    p, q = x.numerator, x.denominator
    v, qk = 0, 1
    for a in reversed(c):
        v = v * p + a * qk
        qk *= q
    return (v > 0) - (v < 0)


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
            term = str(abs(a))
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

# rounding allowance per unit of modulus, per power in ``_power_rows`` and
# per unit of the weighted norm in ``disk_modulus``
_SLOP = 1e-13

#: largest degree at which ``disk_modulus`` bounds its own rounding (derived
#: in its docstring); a larger minimal polynomial is an input error
MAX_DEGREE = 894

_U = 2.0 ** -53  # unit roundoff of a float


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def disk_abs(cen: complex, rad: float) -> tuple[float, float]:
    """Enclosure of |z| over the disk |z - cen| <= rad.  ``abs`` is within an
    ulp of |cen|, and a rounded-to-nearest step lies between the neighbours
    of its exact value, so each step is widened by one float outward."""
    m = abs(cen)
    return max(_down(_down(m) - rad), 0.0), _up(_up(m) + rad)


def disk_modulus(coeffs: Sequence[int], rows: tuple[tuple, tuple]) -> tuple[float, float]:
    """Enclosure [lo, hi] of |S|, S = sum_k x_k gamma^k, for integer
    coefficients x_k, from the rows (centres c_k, weights w_k) of
    ``_power_rows``: the disk of centre c_k and radius p_k encloses gamma^k,
    and w_k = p_k + _SLOP*a_k + 1e-15 with a_k = fl(|c_k|).  The result is
    m -+ r with m = |sum x_k c_k| and r = sum |x_k| w_k + _SLOP, that is the
    disk bound P = sum |x_k| p_k plus the kernel's own allowance
    _SLOP*(A + 1) + 1e-15*|x|_1, where A = sum |x_k| a_k.

    Rounding (u = 2^-53, gamma_n = n*u / (1 - n*u): Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1), for d terms:

    - Centre: a term is converted to float (rounded only when
      |x_k| > 2^53), multiplied and summed (d - 1 additions), so the sum
      is within gamma_(d+1) * sum |x_k| |c_k| of the exact one.  For complex
      centres this holds for the real and the imaginary part, and the
      triangle inequality in the plane gives it for the complex error.
      |c_k| <= a_k (1 + gamma_2) and ``abs`` (hypot, within an ulp) widen
      it to |m - |sum x_k c_k|| <= gamma_(d+5) * A.
    - Radius: every term is non-negative and carries at most d + 5 roundings
      (three in w_k, the conversion, the product, d - 1 additions and the
      final + _SLOP), so r >= (1 - (d+5)u) (P + _SLOP*(A + 1) + 1e-15*|x|_1).
    - m - r and m + r round once more; ``max`` with 0 is exact.

    (The compensated float ``sum`` of Python 3.12 only tightens these.)

    With n = d + 6, lo <= |S| <= hi therefore holds when
    gamma_n * A + n*u*P <= (1 - n*u) (_SLOP*(A + 1) + 1e-15*|x|_1).  The
    allowance per unit of A covers the first term when
    gamma_n <= _SLOP * (1 - n*u), true exactly for n <= 900: ``MAX_DEGREE``
    = 894, which ``make_context`` enforces before root isolation.  The rest
    of it and the 1e-15 per unit of |x|_1 cover the second term when
    n*u*p_k <= (_SLOP*(1 - n*u) - gamma_n) * a_k + (1 - n*u) * 1e-15 for
    every k, which ``_power_rows`` checks.

    So the bound needs the kernel's own allowance.  The per-power _SLOP is
    what ``_power_rows`` needs for its disks to enclose gamma^k.  It makes
    p_k >= _SLOP*(a_k + 1) for k >= 1, so it also over-covers the centre's
    rounding on every term but x_0 (p_0 = 0): a random test passes without
    the kernel's allowance, but that is no proof.  Both are kept as they are.
    """
    centres, weights = rows
    m = abs(sum(map(mul, coeffs, centres)))
    r = sum(map(mul, map(abs, coeffs), weights)) + _SLOP
    return max(m - r, 0.0), m + r


@dataclass(frozen=True)
class Embedding:
    """Certified enclosure of one conjugate of beta."""

    center: complex
    radius: float
    cls: str  # EXPANDING / CONTRACTING / UNIT

    def abs_interval(self) -> tuple[float, float]:
        return disk_abs(self.center, self.radius)


def _sqrt_up(num: int, den: int) -> float:
    """A float at least sqrt(num / den), for integers num >= 0 and den > 0."""
    if not num:
        return 0.0
    # r / 2^k > sqrt(num / den), with r of about 64 bits
    k = 64 - (num.bit_length() - den.bit_length()) // 2
    r = math.isqrt((num << 2 * k) // den if k >= 0 else num // (den << -2 * k)) + 1
    try:
        return math.nextafter(math.ldexp(r, -k), math.inf)  # covers float(r)
    except OverflowError:
        return math.inf


def _disk_radius(coeffs: Sequence[int], z, cen: complex) -> float:
    """A float at least d*|P(z)/P'(z)| + |z - cen|, so that the disk of that
    radius around ``cen`` holds a root of P, computed exactly: the mpmath
    point z = (a + b*i) / s and the float ``cen`` are dyadic rationals (s a
    power of 2), so s^d P(z) and s^(d-1) P'(z) are Gaussian integers.
    ``inf`` when P'(z) = 0."""
    z = mp.mpc(z)
    ratios = [x.as_integer_ratio() for x in (cen.real, cen.imag)]
    ratios += [to_rational(x._mpf_) for x in (z.real, z.imag)]
    s = max(q for _, q in ratios)
    cr, ci, a, b = (p * (s // q) for p, q in ratios)
    pr, pi, dr, di, sp = coeffs[-1], 0, 0, 0, 1  # Horner for P and P'
    for c in reversed(coeffs[:-1]):
        sp *= s
        dr, di = dr * a - di * b + pr, dr * b + di * a + pi
        pr, pi = pr * a - pi * b + c * sp, pr * b + pi * a
    if not (dr or di):
        return math.inf
    d = len(coeffs) - 1
    newton = _sqrt_up(d * d * (pr * pr + pi * pi), (dr * dr + di * di) * s * s)
    shift = _sqrt_up((a - cr) ** 2 + (b - ci) ** 2, s * s)
    return math.nextafter(newton + shift, math.inf)


def _root_disks(coeffs: Sequence[int], dps: int) -> list[tuple[complex, float]]:
    """All roots of the squarefree integer polynomial at ``dps`` digits, as
    disks (float centre, radius).

    The roots come from mpmath's ``polyroots`` (Durand-Kerner), seeded with
    the float roots of ``_float_seeds`` when those converged: the seeded run
    still iterates at ``dps`` digits until every correction is below its
    tolerance, but from a few digits short of the roots rather than from
    scratch.  The coefficients are converted exactly, whatever their size.

    Uses the classical bound: every polynomial of degree d has a root within
    d*|P(z)/P'(z)| of any point z.  The radius is the larger of that bound
    evaluated exactly (``_disk_radius``) and its mpmath value with a slack
    for its rounding; the slack covers small coefficients only, the exact
    bound every polynomial.  Only disjoint disks isolate one simple root
    each; the caller checks that.  ``None`` when the root finder does not
    converge at ``dps``.
    """
    d = len(coeffs) - 1
    seeds = _float_seeds(coeffs)
    with mp.workdps(dps):
        lead_first = [mp.make_mpf(from_int(int(c))) for c in reversed(coeffs)]
        deriv = [mp.make_mpf(from_int(int(c) * i)) for i, c in
                 zip(range(d, 0, -1), reversed(coeffs))]
        init = None if seeds is None else [mp.mpc(z) for z in seeds]
        try:
            roots = mp.polyroots(lead_first, maxsteps=200, extraprec=4 * dps, roots_init=init)
        except NoConvergence:
            return None
        out = []
        for z in roots:
            pz = mp.polyval(lead_first, z)
            dpz = mp.polyval(deriv, z)
            if dpz == 0:
                raise NotSquarefree("repeated root encountered in root isolation")
            # the disk around the float centre also covers its rounding from z
            cen = complex(z)
            rad = d * abs(pz / dpz) * 1.001 + mp.mpf(10) ** (5 - dps) + abs(z - cen)
            out.append((cen, max(math.nextafter(float(rad), math.inf),
                                 _disk_radius(coeffs, z, cen))))
    return out


def _float_seeds(coeffs: Sequence[int]) -> list[complex] | None:
    """Float approximations of all roots of the integer polynomial, or
    ``None`` when they are not found.  Runs ``mp.polyroots``' Durand-Kerner
    iteration in complex floats, from its starting points (0.4 + 0.9i)^k and
    in its update order; it has converged once every correction in a sweep
    is below 1e-12 of its root.  The seeds only speed up the root finder:
    its own convergence test decides the roots.  Roots with the same
    imaginary part, which it sorts by rounding noise, may come out in
    another order than unseeded; no output reads that order."""
    d = len(coeffs) - 1
    try:
        monic = [c / coeffs[-1] for c in reversed(coeffs)]
        roots = [(0.4 + 0.9j) ** k for k in range(d)]
        for _ in range(200):
            worst = 0.0
            for i, p in enumerate(roots):
                x = 0j
                for c in monic:
                    x = x * p + c
                for j, q in enumerate(roots):
                    if i != j and p != q:
                        x /= p - q
                roots[i] = p - x
                worst = max(worst, abs(x) / abs(roots[i]))
            if worst < 1e-12:
                return roots if all(map(cmath.isfinite, roots)) else None
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def is_self_reciprocal(coeffs: Sequence[int]) -> bool:
    """True when P(X) = +-X^deg * P(1/X) (palindromic up to sign)."""
    c = poly_trim(coeffs)
    rev = tuple(reversed(c))
    return rev == c or rev == tuple(-x for x in c)


def _unit_root_count(minpoly: Sequence[int]) -> int:
    """Exact number of roots on |z| = 1 of an irreducible integer polynomial.

    Such a polynomial with a unit root z also vanishes at 1/z = conj(z), so
    it is self-reciprocal.  In even degree 2m it is x^m Q(x + 1/x), and its
    unit roots come in conjugate pairs over the real roots of Q in [-2, 2]
    (Smyth, Seventy years of Salem numbers, Bull. LMS 47, 2015).
    """
    c = poly_trim(minpoly)
    if not is_self_reciprocal(c):
        return 0
    if len(c) == 2:
        return int(abs(c[0]) == abs(c[1]))
    m = (len(c) - 1) // 2
    # x^-m P(x) = c_m + sum_k c_(m+k) (x^k + x^-k), and x^k + x^-k = D_k(y)
    # for y = x + 1/x, with D_0 = 2, D_1 = y, D_(k+1) = y D_k - D_(k-1)
    q = [c[m]] + [0] * m
    prev, cur = [2], [0, 1]
    for k in range(1, m + 1):
        for i, a in enumerate(cur):
            q[i] += c[m + k] * a
        prev, cur = cur, [a - (prev[i] if i < len(prev) else 0)
                          for i, a in enumerate([0] + cur)]
    return 2 * dup_count_real_roots(q[::-1], ZZ, QQ(-2), QQ(2))


def _embeddings(minpoly: tuple, precision: int) -> tuple[int, tuple]:
    """(dps, embeddings) at the first dps from ``precision``, doubling up to
    ``MAX_PRECISION``, at which the roots are found, their disks are disjoint
    and exactly ``_unit_root_count`` of them straddle modulus 1.  A disk
    contains its root, so every unit root's disk straddles: those disks are
    the UNIT ones."""
    units = _unit_root_count(minpoly)
    dps = precision
    while True:
        roots = _root_disks(minpoly, dps)
        if roots is None:
            failure = "cannot find the roots at max precision"
        elif any(abs(a[0] - b[0]) <= a[1] + b[1]
                 for i, a in enumerate(roots) for b in roots[i + 1:]):
            failure = "cannot separate the roots at max precision"
        else:
            classes = [CONTRACTING if hi < 1.0 else EXPANDING if lo > 1.0 else UNIT
                       for lo, hi in (disk_abs(cen, rad) for cen, rad in roots)]
            if classes.count(UNIT) == units:
                return dps, tuple(Embedding(cen, rad, cls)
                                  for (cen, rad), cls in zip(roots, classes))
            failure = "cannot classify conjugate moduli at max precision"
        if dps * 2 > MAX_PRECISION:
            raise NumFieldError(failure)
        dps *= 2


def _power_rows(e: Embedding, d: int) -> tuple[tuple, tuple]:
    """Rows (centres, weights) of gamma^0 .. gamma^(d-1) for the conjugate
    gamma of embedding ``e``, the input of ``disk_modulus``.  The disk of
    centre c_k and radius p_k encloses gamma^k: the per-power allowance
    _SLOP*(|c_k| + 1) covers the rounding of the recurrence (a complex
    product errs by at most 2*sqrt(2)*u*|c_(k-1)||c|, the radius sum by a
    few ulps of itself).  The centres are floats when gamma's centre is
    real.  Raises ``NumFieldError`` for a disk too wide for the rounding
    bound of ``disk_modulus``."""
    nu = (d + 6) * _U
    margin = _SLOP * (1.0 - nu) - nu / (1.0 - nu)
    real = e.center.imag == 0
    c = e.center.real if real else e.center
    pc, pr = (1.0 if real else 1.0 + 0j), 0.0
    centres, weights = [], []
    for _ in range(d):
        apc = abs(pc)
        if nu * pr > margin * apc + (1.0 - nu) * 1e-15:
            raise NumFieldError("conjugate enclosure too wide for the rounding bound")
        centres.append(pc)
        weights.append(pr + _SLOP * apc + 1e-15)
        cen = pc * c
        rad = apc * e.radius + pr * abs(c) + pr * e.radius
        pc, pr = cen, rad + _SLOP * (abs(cen) + 1.0)
    return tuple(centres), tuple(weights)


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


def _reduce(minpoly: tuple, c: list[int]) -> tuple:
    """Reduce modulo the (monic) working minimal polynomial."""
    d = len(minpoly) - 1
    c = list(c)
    for i in range(len(c) - 1, d - 1, -1):
        f = c[i]
        if f:
            for j in range(d):
                c[i - d + j] -= f * minpoly[j]
        c.pop()
    c += [0] * (d - len(c))
    return tuple(c)


def _element(minpoly: tuple | None, coeffs: Sequence[int]) -> FieldElem:
    """Element from integer coefficients in the working basis (Z[X] without minpoly)."""
    if minpoly is None:
        return FieldElem(TRANSCENDENTAL, poly_trim([int(c) for c in coeffs]))
    return FieldElem(ALGEBRAIC, _reduce(minpoly, [int(c) for c in coeffs]))


@dataclass(frozen=True)
class BetaContext:
    """Working form of the base: minimal polynomial (monic, after possible
    inversion to u = 1/beta), digit set, and certified conjugate enclosures."""

    mode: str
    minpoly: tuple | None  # working minimal polynomial, constant first, monic
    user_minpoly: tuple | None  # as supplied (normalized sign/content)
    inverted: bool
    digits: tuple  # FieldElem in the working basis
    digit_names: tuple  # display names, aligned with digits
    precision: int = 30  # mpmath dps at which the roots were isolated
    embeddings: tuple = ()
    #: per embedding: rows (centres, weights) of gamma^0 .. gamma^(d-1), the
    #: input of ``disk_modulus``
    power_rows: tuple = ()

    @property
    def blocked(self) -> bool:
        """Some conjugate lies on the unit circle (an exact verdict)."""
        return any(e.cls == UNIT for e in self.embeddings)

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
        return _element(self.minpoly, coeffs)

    def mul_base(self, x: FieldElem) -> FieldElem:
        """Multiply by the working base (shift and reduce / shift by X)."""
        if x.mode == TRANSCENDENTAL:
            if not x.coeffs:
                return x
            return FieldElem(TRANSCENDENTAL, (0,) + x.coeffs)
        return FieldElem(ALGEBRAIC, _reduce(self.minpoly, [0] + list(x.coeffs)))

    def one(self) -> FieldElem:
        if self.mode == ALGEBRAIC:
            return self.from_int_poly([1])
        return FieldElem(TRANSCENDENTAL, (1,))

    # -- numeric enclosures ---------------------------------------------------

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
        return _down(num_lo / _up(ghi - 1.0)), _up(num_hi / _down(glo - 1.0))


def mahler_measure(ctx: BetaContext) -> tuple[float, float]:
    """Enclosure of |lead| * prod of conjugate moduli exceeding 1, for the
    base as supplied by the user (before any inversion).  The moduli are
    multiplied in increasing order, so the rounding does not depend on the
    order of the embeddings, which the root finder leaves to chance for
    roots with the same imaginary part."""
    if ctx.mode != ALGEBRAIC:
        raise ModeMismatch("Mahler measure needs an algebraic base")
    lead = abs(ctx.user_minpoly[-1])
    f = float(lead)
    lo, hi = (f, f) if f == lead else (_down(f), _up(f))
    moduli = []
    for e in ctx.embeddings:
        alo, ahi = e.abs_interval()
        if ctx.inverted:
            # user conjugates are the reciprocals of the working ones
            if e.cls != CONTRACTING:
                continue
            alo, ahi = _down(1.0 / ahi), _up(1.0 / alo)
        elif e.cls != EXPANDING:
            continue
        moduli.append((alo, ahi))
    for alo, ahi in sorted(moduli):
        lo, hi = _down(lo * alo), _up(hi * ahi)
    return lo, hi


# ---------------------------------------------------------------------------
# context construction


def _normalize_minpoly(coeffs: Sequence[int]) -> tuple:
    c = poly_trim([int(x) for x in coeffs])
    if len(c) < 2:
        raise NumFieldError("minimal polynomial must have degree >= 1")
    g = math.gcd(*c)
    if g > 1:
        c = tuple(x // g for x in c)
    if c[-1] < 0:
        c = tuple(-x for x in c)
    factors = dup_factor_list(list(reversed(c)), ZZ)[1]
    if any(k > 1 for _, k in factors):
        raise NotSquarefree(f"{poly_str(c)} is not squarefree")
    if len(factors) > 1:
        raise NumFieldError(f"minimal polynomial {poly_str(c)} is reducible")
    return c


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
    if type(precision) is not int or not 1 <= precision <= MAX_PRECISION:
        raise NumFieldError(f"precision must be an integer from 1 to {MAX_PRECISION}")
    digit_specs = [
        poly_trim([int(d)] if isinstance(d, int) else [int(c) for c in d])
        for d in digit_specs
    ]
    if not digit_specs:
        raise EmptyDigits("at least one digit is required")

    # constant digits are named by their value, the others t<position>
    names = tuple(str(d[0] if d else 0) if len(d) <= 1 else f"t{i}"
                  for i, d in enumerate(digit_specs))

    mode, working, user, inverted = TRANSCENDENTAL, None, None, False
    working_digits, embeddings, power_rows = digit_specs, (), ()
    if isinstance(minpoly, str):
        if minpoly != TRANSCENDENTAL:
            raise NumFieldError(f"unknown mode {minpoly!r}")
    else:
        mode = ALGEBRAIC
        degree = poly_deg(minpoly)
        if degree > MAX_DEGREE:
            raise NumFieldError(
                f"minimal polynomial of degree {degree} exceeds {MAX_DEGREE}, "
                "the largest degree at which the enclosures bound their rounding")
        user = working = _normalize_minpoly(minpoly)
        if abs(user[-1]) != 1:
            if abs(user[0]) != 1:
                raise UnsupportedDenominator(
                    "neither the base nor its inverse is an algebraic integer")
            working = _normalize_minpoly(tuple(reversed(user)))
            inverted = True
            m = max(max(poly_deg(d), 0) for d in digit_specs)
            # beta^(-m) * sum c_j beta^j = sum c_(m-i) u^i
            working_digits = [
                tuple(reversed(tuple(d) + (0,) * (m + 1 - len(d)))) for d in digit_specs
            ]
        precision, embeddings = _embeddings(working, precision)
        power_rows = tuple(_power_rows(e, len(working) - 1) for e in embeddings)

    digits = tuple(_element(working, d) for d in working_digits)
    if len({d.coeffs for d in digits}) != len(digits):
        raise NumFieldError("digits must be pairwise distinct")
    return BetaContext(
        mode=mode,
        minpoly=working,
        user_minpoly=user,
        inverted=inverted,
        digits=digits,
        digit_names=names,
        precision=precision,
        embeddings=embeddings,
        power_rows=power_rows,
    )


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
    return make_context(base, digits, precision=doc.get("precision", 30))
