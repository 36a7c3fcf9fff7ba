import random
from fractions import Fraction as F

import pytest

from origamilab.cfrac import (CFSlope, ceil_power, cf_expand,
                              diophantine_type_estimate, g_matrix,
                              golden_slope, parse_slope_spec,
                              rational_lt_power, slope_with_type,
                              type_witness_holds)
from origamilab.errors import NonPositiveQuotient, OutOfRange
from origamilab.sl2 import Mat2, projective_slope


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_cf_expand_examples():
    assert cf_expand(F(1, 2)) == [2]
    # 7/5 = 1 + 2/5; 5/2 = 2 + 1/2; 2/1 = 2
    assert cf_expand(F(5, 7)) == [1, 2, 2]
    with pytest.raises(OutOfRange):
        cf_expand(F(3, 2))


def test_expand_reconstructs():
    rng = random.Random(4)
    for _ in range(100):
        q = rng.randrange(2, 500)
        p = rng.randrange(1, q)
        x = F(p, q)
        cf = CFSlope(cf_expand(x))
        assert cf.value_exact() == x


def test_golden_fibonacci():
    g = golden_slope()
    for n in range(1, 15):
        assert g.q(n) == fib(n + 1)
        assert g.p(n) == fib(n)


def test_determinant_identity():
    # with seeds (p_0,q_0) = (0,1), (p_-1,q_-1) = (1,0) the alternating
    # determinant is (-1)^(n+1); this also matches det g(a_1..a_n) = 1
    rng = random.Random(8)
    for _ in range(40):
        quots = [rng.randrange(1, 9) for _ in range(rng.randrange(2, 12))]
        cf = CFSlope(quots)
        for n in range(0, len(quots) + 1):
            det = cf.p(n) * cf.q(n - 1) - cf.p(n - 1) * cf.q(n)
            assert det == (-1) ** (n + 1)


def test_g_matrix_columns():
    rng = random.Random(13)
    for _ in range(30):
        quots = [rng.randrange(1, 7) for _ in range(rng.randrange(1, 11))]
        cf = CFSlope(quots)
        n = len(quots)
        m = g_matrix(quots)
        if n % 2 == 0:
            assert (m.a, m.c) == (cf.p(n - 1), cf.q(n - 1))
            assert (m.b, m.d) == (cf.p(n), cf.q(n))
        else:
            assert (m.a, m.c) == (cf.p(n), cf.q(n))
            assert (m.b, m.d) == (cf.p(n - 1), cf.q(n - 1))
    assert g_matrix([1]) == Mat2(1, 0, 1, 1)
    with pytest.raises(NonPositiveQuotient):
        g_matrix([1, 0])


def test_tail_projective_action():
    # alpha = g(a_1..a_2k) . alpha_2k, checked on exact finite expansions
    quots = [2, 1, 3, 1, 4, 1, 5, 2]
    cf = CFSlope(quots)
    alpha = cf.value_exact()
    for k in (1, 2, 3):
        m = g_matrix(quots[:2 * k])
        tail = CFSlope(quots[2 * k:]).value_exact()
        assert projective_slope(m, tail) == alpha


def test_convergent_error_bound():
    rng = random.Random(21)
    for _ in range(40):
        quots = [rng.randrange(1, 9) for _ in range(30)]
        cf = CFSlope(quots)
        deep = cf.convergent(28)
        for n in range(1, 16):
            gap = abs(deep - cf.convergent(n))
            assert gap < F(1, cf.q(n) * cf.q(n + 1))


def test_slope_with_type_rule():
    s = slope_with_type(2, depth=8)
    assert s.quotients(6) == (1, 1, 2, 1, 7, 1)
    assert s.q(2) == 2 and s.quotient(3) == s.q(2)
    assert s.quotient(5) == s.q(4) == 7
    golden = slope_with_type(1, depth=10)
    assert golden.quotients(10) == (1,) * 10
    with pytest.raises(OutOfRange):
        slope_with_type(F(1, 2))


def test_ceil_power():
    assert ceil_power(7, 1) == 7
    assert ceil_power(7, F(1, 2)) == 3        # ceil(sqrt 7)
    assert ceil_power(16, F(1, 2)) == 4
    assert ceil_power(5, 0) == 1
    assert ceil_power(10, F(3, 2)) == 32      # ceil(31.62..)


def test_rational_lt_power():
    import math
    # exact boundary: val == base**expo is not "less than"
    assert not rational_lt_power(F(8), 2, 3)
    assert not rational_lt_power(F(3), 9, F(1, 2))
    assert rational_lt_power(F(8) - F(1, 10 ** 9), 2, 3)
    assert rational_lt_power(F(1, 9), 3, -2) is False
    assert rational_lt_power(F(1, 9) - F(1, 10 ** 9), 3, -2)
    rng = random.Random(17)
    for _ in range(200):
        val = F(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 4))
        expo = F(rng.randrange(-12, 13), rng.randrange(1, 5))
        lhs = math.log(float(val))
        rhs = float(expo) * math.log(10)
        if abs(lhs - rhs) > 1e-6:
            assert rational_lt_power(val, 10, expo) == (lhs < rhs)


def test_type_estimate_golden():
    est = diophantine_type_estimate(golden_slope(), 20)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_type_estimate_w2():
    s = slope_with_type(2)
    est = diophantine_type_estimate(s, 8)
    assert 1.8 <= est.value <= 2.05
    # definitional cross-check at the attaining level, exact arithmetic
    assert type_witness_holds(s, est.at_n, est.value - 1, F(1, 10))


def test_parse_slope_spec():
    assert parse_slope_spec("golden").cf.quotients(4) == (1, 1, 1, 1)
    assert parse_slope_spec("type:w=2").cf.quotients(3) == (1, 1, 2)
    assert parse_slope_spec("quotients:[1,2,3]").cf.quotients(3) == (1, 2, 3)
    sp = parse_slope_spec("rational:5/7")
    assert sp.value == F(5, 7) and sp.cf.quotients(3) == (1, 2, 2)
    assert parse_slope_spec("3/4").value == F(3, 4)
    assert parse_slope_spec("inf").kind == "horizontal"
    with pytest.raises(OutOfRange):
        parse_slope_spec("nonsense:")


def test_error_bound_on_finite_expansions():
    # the bound holds at every depth and is attained one level before the
    # end, where the next convergent is the value itself
    rng = random.Random(15)
    for _ in range(500):
        b = rng.randint(2, 10 ** 6)
        cf = CFSlope(cf_expand(F(rng.randint(1, b - 1), b)))
        alpha, depth = cf.value_exact(), cf.depth_available
        for n in range(depth + 1):
            assert abs(alpha - cf.convergent(n)) <= cf.error_bound(n)
        assert abs(alpha - cf.convergent(depth - 1)) \
            == cf.error_bound(depth - 1)
