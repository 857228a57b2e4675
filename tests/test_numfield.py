import json
import math
import random
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from itertools import permutations

import mpmath as mp
import pytest
from sympy import QQ, ZZ, Poly, Symbol
from sympy.polys.factortools import dup_factor_list
from sympy.polys.rootisolation import dup_count_real_roots

import betauto.numfield as nf
from betauto.automata import _poly_mul
from betauto.numfield import (
    _SLOP,
    EXPANDING,
    MAX_DEGREE,
    BetaContext,
    Embedding,
    EmptyDigits,
    FieldElem,
    NotSquarefree,
    UNIT,
    NumFieldError,
    UnsupportedDenominator,
    _power_rows,
    _unit_root_count,
    context_from_config,
    disk_modulus,
    fe_add,
    fe_neg,
    fe_sub,
    is_self_reciprocal,
    mahler_measure,
    make_context,
    poly_deg,
    poly_divides,
    poly_sign_at,
    poly_sqf_part,
    poly_str,
    poly_trim,
)

from betauto.cli import main
from conftest import (
    FIXTURES,
    buildable_fixture_names,
    load_context,
    random_algebraic_configs,
    random_palindromic_polys,
    reference_root_disks,
)


# --- polynomial helpers ------------------------------------------------------


def test_poly_helpers():
    assert poly_trim([1, 2, 0, 0]) == (1, 2)
    assert poly_deg([0]) == -1
    assert poly_deg([5]) == 0
    assert poly_deg([0, 0, 3]) == 2
    assert poly_divides([-1, 1], [-1, 0, 1, 0])  # x - 1 | x^2 - 1
    assert not poly_divides([1, 1], [1, 0, 1])  # x^2+1 = (x-1)(x+1) + 2
    assert not poly_divides([1, 2], [1, 0, 4])  # (2x - 1)/4 is not in Z[x]
    assert poly_divides([1, 2], [1, 4, 4]) and poly_divides([3], [])
    assert [poly_sign_at([-2, 0, 1], x) for x in (1, Fraction(7, 5), Fraction(3, 2))] == [-1, -1, 1]
    assert poly_sign_at([-3, 2], Fraction(3, 2)) == 0 and poly_sign_at([5], -7) == 1
    assert poly_str([1, -3, 1]) == "x^2-3*x+1"
    assert poly_str([0]) == "0"


def test_self_reciprocal():
    assert is_self_reciprocal([1, -2, 1, -2, 1])
    assert is_self_reciprocal([-1, 0, 1])  # x^2 - 1, reversed is the negative
    assert not is_self_reciprocal([-1, -1, 1])


# --- context construction ----------------------------------------------------


def test_golden_context_embeddings():
    # roots of x^2-x-1 are 1.618... and -0.618... (independent recompute below)
    ctx = make_context([-1, -1, 1], [0, 1])
    assert ctx.mode == "algebraic" and not ctx.inverted and not ctx.blocked
    classes = sorted(e.cls for e in ctx.embeddings)
    assert classes == ["contracting", "expanding"]
    phi = (1 + math.sqrt(5)) / 2
    for e in ctx.embeddings:
        lo, hi = e.abs_interval()
        target = phi if e.cls == "expanding" else phi - 1
        assert lo <= target <= hi and hi - lo < 1e-9


def test_salem_context_blocked():
    ctx = make_context([1, -2, 1, -2, 1], [0, 1])
    assert ctx.blocked
    assert sorted(e.cls for e in ctx.embeddings) == [
        "contracting", "expanding", "unit", "unit"]


def test_unit_root_count_matches_oracle():
    # exact Sturm count == UNIT embeddings == 200-digit roots on |z| = 1
    seen = set()
    for poly in random_palindromic_polys(0, 100):
        count = _unit_root_count(poly)
        ctx = make_context(poly, [0, 1])
        with mp.workdps(200):
            roots = mp.polyroots([mp.mpf(c) for c in reversed(poly)],
                                 maxsteps=500, extraprec=200)
            oracle = sum(abs(abs(r) - 1) < mp.mpf(10) ** -150 for r in roots)
        assert count == sum(e.cls == UNIT for e in ctx.embeddings) == oracle, poly
        assert ctx.blocked == (count > 0)
        seen.add(count)
    assert {0, 2, 4} <= seen


def test_unit_root_count_degree_one():
    assert _unit_root_count([1, 1]) == _unit_root_count([-1, 1]) == 1
    assert _unit_root_count([-3, 1]) == 0


def test_sturm_count_matches_sympy():
    # with roots at the ends -2 and 2, and repeated roots: the count is of
    # distinct roots in the closed interval
    rng = random.Random(20261031)
    at_ends = 0
    for _ in range(2000):
        q = [rng.randint(-6, 6) for _ in range(rng.randint(1, 6))] + [rng.choice((1, -1, 2, -3))]
        for _ in range(rng.choice((0, 0, 1, 2))):
            q = _poly_mul(q, [rng.choice((-2, 2, -1, 1, 0, rng.randint(-5, 5))), rng.choice((1, 1, 2))])
        if rng.random() < 0.2:
            q = _poly_mul(q, q)
        at_ends += poly_sign_at(q, -2) * poly_sign_at(q, 2) == 0
        assert nf._sturm_count(q, -2, 2) == dup_count_real_roots(q[::-1], ZZ, QQ(-2), QQ(2)), q
    assert at_ends >= 300


def test_irreducibility_certificate_never_certifies_a_product():
    rng = random.Random(20261032)
    products = 0
    while products < 2000:
        f = _poly_mul(*([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 4)]
                        for _ in range(2)))
        f = tuple(nf._primitive(f))
        if len(poly_sqf_part(f)) == len(f):  # what _normalize_minpoly hands it
            assert not nf._irreducible_mod_p(f), f
            products += 1
    # x^4 - 10x^2 + 1, irreducible, splits into factors of degree <= 2 modulo
    # every prime: the certificate leaves it to factor_list
    assert not nf._irreducible_mod_p((1, 0, -10, 0, 1))
    assert len(dup_factor_list([1, 0, -10, 0, 1], ZZ)[1]) == 1


def test_fixture_minimal_polynomials_are_certified():
    # so no fixture reaches factor_list, whose sympy import would cost about
    # 0.25 s inside a command
    minpolys = {ctx.minpoly for ctx in map(load_context, buildable_fixture_names() + ["salem"])
                if ctx.mode == "algebraic"}
    minpolys = {c for c in minpolys if len(c) > 2}
    assert len(minpolys) == 7
    for c in minpolys:
        assert nf._irreducible_mod_p(c), c


def test_context_is_frozen():
    ctx = load_context("intro")
    with pytest.raises(FrozenInstanceError):
        ctx.precision = 60
    with pytest.raises(FrozenInstanceError):
        ctx.digits = ()


def test_not_blocked_without_self_reciprocity():
    # x^3-x-1 (plastic number) has complex conjugates of modulus ~0.8689
    ctx = make_context([-1, -1, 0, 1], [0, 1])
    assert not ctx.blocked


def test_inverted_context_constant_digits():
    ctx = make_context([-1, 3], [0, 1, 3])  # base 1/3
    assert ctx.inverted and ctx.minpoly == (-3, 1)
    assert [str(d) for d in ctx.digits] == ["0", "1", "3"]


def test_inverted_context_polynomial_digits():
    # base b with 3b^2 - b - 1 = 0; work on u = 1/b with u^2 + u - 3 = 0
    ctx = make_context([-1, -1, 3], [[0], [1], [0, 1]])
    assert ctx.inverted
    assert ctx.minpoly == (-3, 1, 1)
    # digits rescaled by b^-1: coefficient vectors reversed (m = 1)
    assert ctx.digits[0].coeffs == (Fraction(0), Fraction(0))
    assert ctx.digits[1].coeffs == (Fraction(0), Fraction(1))  # 1 -> u
    assert ctx.digits[2].coeffs == (Fraction(1), Fraction(0))  # b -> 1


def test_context_errors():
    with pytest.raises(NotSquarefree):
        make_context([1, -2, 1], [0, 1])  # (x-1)^2
    with pytest.raises(UnsupportedDenominator):
        make_context([3, 0, 2], [0, 1])  # 2x^2+3
    with pytest.raises(EmptyDigits):
        make_context([-1, -1, 1], [])
    with pytest.raises(NumFieldError):
        make_context([-1, -1, 1], [1, 1])  # duplicate digits
    with pytest.raises(NumFieldError):
        make_context([5], [0, 1])  # degree 0
    with pytest.raises(NumFieldError, match="reducible"):
        make_context([6, -5, 1], [0, 1, 3])  # (x-2)(x-3)
    with pytest.raises(NotSquarefree, match="is not squarefree"):
        make_context([1, 2, -1, -2, 1], [0, 1])  # (x^2-x-1)^2


@pytest.mark.parametrize("minpoly, digits", [
    ([-3.5, 1], [0, 1, 3]),  # int() made this base 3
    ([-3, True], [0, 1]),
    ([-3, 1], [0, 1.0]),
    ([-3, 1], [False, 1]),
    ([-3, 1], [[0], [1, 2.5]]),
    ("transcendental", [[0], [0.5, 1]]),
])
def test_context_rejects_non_integer_coefficients(minpoly, digits):
    with pytest.raises(NumFieldError, match="must be integers"):
        make_context(minpoly, digits)


def test_config_ingestion_errors():
    with pytest.raises(NumFieldError):
        context_from_config({"digits": [0, 1]})
    with pytest.raises(NumFieldError):
        context_from_config({"beta": {"minpoly": [-1, -1, 1]}, "digits": "x"})


# --- element arithmetic ------------------------------------------------------


def test_fe_ring_ops_algebraic():
    ctx = make_context([-1, -1, 1], [0, 1])
    one = ctx.one()
    beta = ctx.from_int_poly([0, 1])
    assert fe_add(beta, ctx.zero()) == beta
    assert fe_sub(fe_add(beta, one), beta) == one
    assert fe_add(beta, beta).coeffs == (Fraction(0), Fraction(2))
    # beta * beta = beta + 1 in the golden field
    assert ctx.mul_base(beta) == fe_add(beta, one)
    assert fe_neg(fe_neg(beta)) == beta


def test_fe_ring_ops_transcendental():
    ctx = make_context("transcendental", [[0], [1], [0, 1]])
    x = ctx.digits[2]
    assert str(x) == "X"
    assert ctx.mul_base(x).coeffs == (0, 0, 1)
    assert fe_add(x, fe_neg(x)).is_zero()
    # trailing zeros trimmed
    assert fe_sub(fe_add(x, ctx.one()), x).coeffs == (1,)


def test_abs_at_enclosure():
    ctx = make_context([-1, -1, 1], [0, 1])
    i = ctx.expanding_indices()[0]
    val = ctx.from_int_poly([1, 1])  # 1 + beta = beta^2 = phi^2
    lo, hi = ctx.abs_at(val, i)
    phi2 = ((1 + math.sqrt(5)) / 2) ** 2
    assert lo <= phi2 <= hi and hi - lo < 1e-8


def _large_coefficient_minpolys(seed: int = 60, count: int = 12):
    """Seeded irreducible monic quartics and quintics with two coefficients
    of size up to 10^60, like x^4 + 5x^3 - 7*10^40 x^2 + 3x + 10^40 + 1: at
    30 digits the float value of P/P' at a root has no correct digit."""
    rng = random.Random(seed)
    x = Symbol("x")
    for _ in range(count):
        while True:
            d = rng.randint(4, 5)
            c = [rng.randint(-9, 9) for _ in range(d)] + [1]
            for i in rng.sample(range(d), 2):
                c[i] += rng.choice((-1, 1)) * rng.randint(1, 9) * 10 ** rng.randint(40, 60)
            if Poly(c[::-1], x).is_irreducible:
                break
        yield c


@pytest.mark.parametrize("name", [
    "intro", "pisot_x2-x-1", "pisot_x3-x-1", "pisot_x4-x3-x2+x-1", "salem",
    "free_x4-3x3-3x2-3x+1", "large_coefficients",
])
def test_embeddings_contain_their_roots(name):
    # each disk holds exactly one root computed at 300 digits
    if name == "large_coefficients":
        contexts = (make_context(c, [0, 1]) for c in _large_coefficient_minpolys())
    else:
        contexts = [load_context(name)]
    for ctx in contexts:
        with mp.workdps(300):
            roots = mp.polyroots([mp.mpf(c) for c in reversed(ctx.minpoly)],
                                 maxsteps=800, extraprec=1200)
            inside = [[r for r in roots if abs(r - mp.mpc(e.center)) <= e.radius]
                      for e in ctx.embeddings]
        assert len(ctx.embeddings) == len(roots)
        assert [len(rs) for rs in inside] == [1] * len(roots), ctx.minpoly


@pytest.mark.parametrize("name", [
    "intro", "pisot_x3-x-1", "pisot_x4-x3-x2+x-1", "salem",
    "free_x4-3x3-3x2-3x+1", "inverted",
])
def test_disk_modulus_encloses_modulus(name):
    # lo <= |sigma_i(x)| <= hi for random integer x, against a 200-digit root;
    # coefficients past 2^53 round when converted to float
    if name == "inverted":  # 3b^2 - b - 1 = 0, worked on as u^2 + u - 3 = 0
        ctx = make_context([-1, -1, 3], [[0], [1], [0, 1]])
    else:
        ctx = load_context(name)
    rng = random.Random(name)
    d = ctx.degree
    with mp.workdps(200):
        roots = mp.polyroots([mp.mpf(c) for c in reversed(ctx.minpoly)],
                             maxsteps=500, extraprec=200)
        for e, rows in zip(ctx.embeddings, ctx.power_rows):
            (root,) = [r for r in roots if abs(r - mp.mpc(e.center)) <= e.radius]
            for _ in range(200):
                k = 10 ** rng.randint(0, 17)
                x = [rng.randint(-k, k) for _ in range(d)]
                lo, hi = disk_modulus(x, rows)
                exact = abs(sum(c * root ** i for i, c in enumerate(x)))
                assert lo <= exact <= hi, (x, e)


def test_max_degree_is_where_the_rounding_bound_ends():
    # disk_modulus encloses its rounding when gamma_n <= _SLOP * (1 - n*u)
    # for n = degree + 6 (see its docstring)
    u, slop = Fraction(1, 2**53), Fraction(_SLOP)

    def holds(degree):
        nu = (degree + 6) * u
        return nu / (1 - nu) <= slop * (1 - nu)

    assert holds(MAX_DEGREE) and not holds(MAX_DEGREE + 1)


def test_degree_above_the_limit_fails_before_root_isolation(monkeypatch):
    def refuse(*_):
        raise AssertionError("reached factoring or root isolation")

    monkeypatch.setattr(nf, "_normalize_minpoly", refuse)
    monkeypatch.setattr(nf, "_embeddings", refuse)
    with pytest.raises(NumFieldError, match=f"degree {MAX_DEGREE + 1} exceeds {MAX_DEGREE}"):
        make_context([-2] + [0] * MAX_DEGREE + [1], [0, 1])
    # the limit itself is allowed through to factoring
    with pytest.raises(AssertionError):
        make_context([-2] + [0] * (MAX_DEGREE - 1) + [1], [0, 1])


def test_power_rows_reject_wide_enclosures():
    # gamma^k enclosed with a radius about 100 times its centre's modulus is
    # too wide for the kernel's rounding bound
    with pytest.raises(NumFieldError, match="too wide"):
        _power_rows(Embedding(1.5 + 0j, 1.4, EXPANDING), 8)
    centres, weights = _power_rows(Embedding(1.5 + 0j, 1e-20, EXPANDING), 8)
    assert centres[0] == 1.0 and all(type(c) is float for c in centres)
    assert weights[0] == _SLOP + 1e-15


# --- seeded root finding -----------------------------------------------------


def _seeded_bases(seed: int, count: int):
    """Seeded irreducible integer polynomials (constant first) of degree
    1..12 with coefficients in [-5, 5]: monic ones, and about a third with
    a leading coefficient of 2..5 in size and a unit constant term, which
    ``make_context`` inverts."""
    rng = random.Random(seed)
    x = Symbol("x")
    while count:
        c = [rng.randint(-5, 5) for _ in range(rng.randint(1, 12) + 1)]
        if rng.random() < 0.3:
            c[0], c[-1] = rng.choice((-1, 1)), rng.choice((-1, 1)) * rng.randint(2, 5)
        else:
            c[-1] = 1
        if c[0] and Poly(c[::-1], x).is_irreducible:
            count -= 1
            yield c


#: x^2 - 2*10^40: its roots, about 1.4*10^20, are too far from the starting
#: points for the float iteration to converge, so no seeds are passed
UNSEEDED_BASE = [-2 * 10 ** 40, 0, 1]


def _context_outcome(minpoly, digits):
    """The precision and the multiset of (embedding, power rows) of a
    context, or the error that refuses it."""
    try:
        ctx = make_context(minpoly, digits)
    except NumFieldError as e:
        return repr(e)
    return ctx.precision, Counter(zip(ctx.embeddings, ctx.power_rows))


def test_seeded_contexts_match_the_unseeded_reference(monkeypatch):
    # seeds speed the root finder up but change no enclosure: the order of
    # the embeddings aside, every context equals the unseeded reference
    cases = []
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        if isinstance(doc.get("beta"), dict):
            cases.append((doc["beta"]["minpoly"], doc["digits"]))
    for seed in range(1, 11):
        cases += random_algebraic_configs(seed)
    cases += [(p, [0, 1]) for p in random_palindromic_polys(3)]
    cases += [(p, [0, 1]) for p in _seeded_bases(20261019, 160)]
    cases.append((UNSEEDED_BASE, [0, 1]))
    assert sum(abs(c[-1]) > 1 for c, _ in cases) >= 40  # inverted contexts
    assert nf._float_seeds(UNSEEDED_BASE) is None
    for minpoly, digits in cases:
        got = _context_outcome(minpoly, digits)
        with monkeypatch.context() as m:
            m.setattr(nf, "_root_disks", reference_root_disks)
            assert got == _context_outcome(minpoly, digits), minpoly
        assert not isinstance(got, str), (minpoly, got)


def _holds_root(e, n: int, s: int) -> bool:
    """Exactly: the disk of ``e`` holds n + s*sqrt(2).  With t = Re(c) - n,
    |c - n - s*sqrt(2)|^2 <= r^2 reads L <= q*sqrt(2) for the rationals
    L = t^2 + 2 + Im(c)^2 - r^2 and q = 2*s*t."""
    t = Fraction(e.center.real) - n
    big_l = t * t + 2 + Fraction(e.center.imag) ** 2 - Fraction(e.radius) ** 2
    q = 2 * s * t
    if q >= 0:
        return big_l <= 0 or big_l * big_l <= 2 * q * q
    return big_l < 0 and big_l * big_l >= 2 * q * q


def test_coefficients_past_two_to_the_53_are_converted_exactly(tmp_path, capsys):
    # x^2 - 2N x + N^2 - 2 with N = 2^30 has the roots N -+ sqrt(2); at 53
    # bits N^2 - 2 rounds to N^2, which makes the root double
    n = 2 ** 30
    minpoly = [n * n - 2, -2 * n, 1]
    ctx = make_context(minpoly, [0, 1])
    assert ctx.precision == 30
    low, high = sorted(ctx.embeddings, key=lambda e: e.center.real)
    assert _holds_root(low, n, -1) and _holds_root(high, n, 1)
    assert not _holds_root(low, n, 1) and not _holds_root(high, n, -1)
    config = tmp_path / "large.json"
    config.write_text(json.dumps({"beta": {"minpoly": minpoly}, "digits": [0, 1]}))
    assert main(["free", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert "free" in capsys.readouterr().out


# --- Mahler measure ----------------------------------------------------------


def _mahler_reference(coeffs):
    """Independent recompute: |lead| * product of root moduli above 1."""
    with mp.workdps(50):
        roots = mp.polyroots([mp.mpf(c) for c in reversed(coeffs)])
        m = mp.mpf(abs(coeffs[-1]))
        for r in roots:
            if abs(r) > 1:
                m *= abs(r)
        return float(m)


@pytest.mark.parametrize("minpoly", [
    [-1, -1, 1],
    [-1, -1, -1, 1],
    [-1, -1, 0, 1],
    [-1, -1, -1, -1, 1],
    [-1, 1, -1, -1, 1],
    [1, 0, -10, 0, 1],  # left to factor_list by the certificate
])
def test_mahler_measure_matches_reference(minpoly):
    ctx = make_context(minpoly, [0, 1])
    lo, hi = mahler_measure(ctx)
    ref = _mahler_reference(minpoly)
    assert lo <= ref <= hi and hi - lo < 1e-6


def test_mahler_measure_ignores_the_embedding_order():
    # x^4 - 2x^3 - x^2 + 2x + 5 is symmetric about Re z = 1/2: its four
    # roots share one |Im z|, so the root finder orders them by chance, and
    # they have two moduli, about 1.99 and 1.12
    ctx = make_context([5, 2, -1, -2, 1], [0, 1])
    want = mahler_measure(ctx)
    for order in permutations(range(4)):
        swapped = replace(ctx, embeddings=tuple(ctx.embeddings[i] for i in order))
        assert mahler_measure(swapped) == want, order


def test_mahler_measure_inverted():
    ctx = make_context([-1, 3], [0, 1])  # beta = 1/3, measure = 3 * 1
    lo, hi = mahler_measure(ctx)
    assert lo <= 3.0 <= hi and hi - lo < 1e-9


def test_mahler_measure_needs_algebraic():
    ctx = make_context("transcendental", [[0], [1]])
    with pytest.raises(NumFieldError):
        mahler_measure(ctx)


def _contexts_for_outward_rounding(seed: int = 1018, count: int = 40):
    """Seeded contexts with monic and with inverted bases (|lead| > 1 and
    constant +-1), so both branches of ``mahler_measure`` run."""
    rng = random.Random(seed)
    x = Symbol("x")
    found = 0
    while found < count:
        d = rng.randint(2, 5)
        c = [rng.choice((-1, 1))] + [rng.randint(-4, 4) for _ in range(d - 1)]
        c.append(1 if found % 2 else rng.choice((-3, -2, 2, 3, 5)))
        if not Poly(c[::-1], x).is_irreducible:
            continue
        try:
            ctx = make_context(c, [0] + rng.sample([-3, -2, -1, 1, 2, 3], 2))
        except NumFieldError:
            continue
        found += 1
        yield ctx


def test_float_steps_round_outward():
    # disk_abs, prune_bound and mahler_measure enclose the exact results of
    # their steps on the same floats, computed with Fractions
    rng = random.Random(20261018)
    for _ in range(3000):
        cen = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 2.0 ** rng.randint(-20, 20)
        rad = abs(cen) * rng.choice((0.0, 1e-17, 1e-13, 0.3, 1.7))
        lo, hi = nf.disk_abs(cen, rad)
        sq = Fraction(cen.real) ** 2 + Fraction(cen.imag) ** 2  # |cen|^2
        assert lo == 0.0 or (Fraction(lo) + Fraction(rad)) ** 2 <= sq
        assert Fraction(hi) >= Fraction(rad) and (Fraction(hi) - Fraction(rad)) ** 2 >= sq

    inverted = 0
    for ctx in _contexts_for_outward_rounding():
        for i in ctx.expanding_indices():
            glo, ghi = map(Fraction, ctx.embeddings[i].abs_interval())
            nums = [ctx.abs_at(d, i) for d in ctx.digit_diffs()]
            lo, hi = ctx.prune_bound(i)
            assert Fraction(lo) <= Fraction(max(a for a, _ in nums)) / (ghi - 1)
            assert Fraction(hi) >= Fraction(max(b for _, b in nums)) / (glo - 1)
        inverted += ctx.inverted
        lo_x = hi_x = Fraction(abs(ctx.user_minpoly[-1]))
        for e in ctx.embeddings:
            alo, ahi = map(Fraction, e.abs_interval())
            if ctx.inverted:
                if e.cls != nf.CONTRACTING:
                    continue
                alo, ahi = 1 / ahi, 1 / alo
            elif e.cls != EXPANDING:
                continue
            lo_x, hi_x = lo_x * alo, hi_x * ahi
        lo, hi = mahler_measure(ctx)
        assert Fraction(lo) <= lo_x and hi_x <= Fraction(hi)
    assert inverted >= 10


def test_prune_bound_positive():
    ctx = load_context("intro")
    i = ctx.expanding_indices()[0]
    lo, hi = ctx.prune_bound(i)
    # base 3, max |difference| = 3: bound is 3/2
    assert abs(lo - 1.5) < 1e-9 and abs(hi - 1.5) < 1e-9
