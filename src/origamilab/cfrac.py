"""Continued fractions: convergents, g-matrices, Gauss map, diophantine type.

Slopes never reach the dynamics as floats: consumers take an exact convergent
p_N/q_N whose depth is chosen by the shadowing rule of the flow simulator.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonPositiveQuotient, OutOfRange
from .origami import INFINITY
from .sl2 import Mat2


def _iroot(t, k):
    """Floor of the k-th root of a nonnegative integer (pure integer
    Newton; float seeds overflow for big radicands)."""
    if t < 0:
        raise ValueError("negative radicand")
    if t in (0, 1) or k == 1:
        return t
    if k == 2:
        return math.isqrt(t)
    x = 1 << -(-t.bit_length() // k)      # 2^ceil(bits/k) >= t^(1/k)
    while True:
        y = ((k - 1) * x + t // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > t:
        x -= 1
    while (x + 1) ** k <= t:
        x += 1
    return x


def ceil_power(base, expo):
    """ceil(base**expo) for a positive integer base and rational expo >= 0."""
    expo = Fraction(expo)
    if expo < 0:
        raise ValueError("negative exponent")
    t = base ** expo.numerator
    r = _iroot(t, expo.denominator)
    return r if r ** expo.denominator == t else r + 1


def rational_lt_power(val, base, expo):
    """Exact test  val < base**expo  for val in Q+, base a positive integer,
    expo rational of either sign."""
    val = Fraction(val)
    if val <= 0:
        return True
    expo = Fraction(expo)
    p, q = expo.numerator, expo.denominator
    vn, vd = val.numerator, val.denominator
    if p >= 0:
        return vn ** q < vd ** q * base ** p
    return vn ** q * base ** (-p) < vd ** q


class CFSlope:
    """A slope in (0,1) by partial quotients: an explicit prefix plus an
    optional generator rule(slope, n) -> a_n for indices past the prefix.

    Convergents satisfy q_n = a_n q_{n-1} + q_{n-2} with (p_0,q_0) = (0,1)
    and (p_-1,q_-1) = (1,0); the cache only ever grows.
    """

    def __init__(self, quotients=(), rule=None):
        self._a = [None]          # 1-based
        self._p = [0]
        self._q = [1]
        self._rule = rule
        for a in quotients:
            self._push(a)

    def _push(self, a):
        a = int(a)
        if a < 1:
            raise NonPositiveQuotient(f"a_{len(self._a)} = {a}")
        n = len(self._a)
        p_prev2 = self._p[n - 2] if n >= 2 else 1
        q_prev2 = self._q[n - 2] if n >= 2 else 0
        self._a.append(a)
        self._p.append(a * self._p[n - 1] + p_prev2)
        self._q.append(a * self._q[n - 1] + q_prev2)

    @property
    def depth_available(self):
        return len(self._a) - 1

    @property
    def finite(self):
        return self._rule is None

    def ensure(self, depth):
        while self.depth_available < depth:
            if self._rule is None:
                raise OutOfRange(f"finite expansion of depth {self.depth_available}")
            self._push(self._rule(self, self.depth_available + 1))
        return self

    def quotient(self, n):
        self.ensure(n)
        return self._a[n]

    def quotients(self, depth):
        self.ensure(depth)
        return tuple(self._a[1:depth + 1])

    def p(self, n):
        if n == -1:
            return 1
        self.ensure(n)
        return self._p[n]

    def q(self, n):
        if n == -1:
            return 0
        self.ensure(n)
        return self._q[n]

    def convergent(self, n):
        return Fraction(self.p(n), self.q(n))

    def error_bound(self, n):
        """Bound on |alpha - p_n/q_n|: 0 from the depth of a finite
        expansion on, 1/(q_n q_{n+1}) before it. A finite expansion attains
        it at n = depth - 1, where p_{n+1}/q_{n+1} is alpha itself."""
        if self.finite and n >= self.depth_available:
            return Fraction(0)
        return Fraction(1, self.q(n) * self.q(n + 1))

    def value_exact(self):
        if not self.finite:
            raise OutOfRange("infinite expansion has no exact rational value")
        return self.convergent(self.depth_available)

    def tail(self, k, depth):
        """The slope [a_{k+1}, a_{k+2}, ...] truncated depth levels down."""
        self.ensure(k + depth)
        return CFSlope(self._a[k + 1:k + depth + 1])

    def __repr__(self):
        shown = ",".join(map(str, self._a[1:min(9, len(self._a))]))
        tailmark = "" if self.finite else ",..."
        return f"CFSlope([{shown}{tailmark}])"


def cf_expand(x, depth=None):
    """Partial quotients of x in (0,1) by the Gauss map G(a) = {1/a};
    terminates for rationals."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise OutOfRange(f"{x} not in (0,1)")
    out = []
    while x != 0 and (depth is None or len(out) < depth):
        inv = 1 / x
        a = inv.numerator // inv.denominator
        out.append(a)
        x = inv - a
    return out


def g_matrix(quotients):
    """V^{a_1} T^{a_2} V^{a_3} ... (ending with T for an even number of
    quotients, V for odd); columns are consecutive convergent vectors."""
    m = Mat2(1, 0, 0, 1)
    for i, a in enumerate(quotients, start=1):
        a = int(a)
        if a < 1:
            raise NonPositiveQuotient(f"a_{i} = {a}")
        step = Mat2(1, 0, a, 1) if i % 2 == 1 else Mat2(1, a, 0, 1)
        m = m * step
    return m


def golden_slope():
    return CFSlope(rule=lambda cf, n: 1)


def slope_with_type(w, depth=0):
    """Slope whose even-level quotients follow a_{n+1} = max(1, ceil(q_n^{w-1}))
    (odd levels stay 1), so the type-w approximation inequality holds along
    even levels."""
    w = Fraction(w)
    if w < 1:
        raise OutOfRange("need w >= 1")
    wm1 = w - 1

    def rule(cf, n):
        if (n - 1) % 2 == 0:
            return max(1, ceil_power(cf.q(n - 1), wm1))
        return 1

    slope = CFSlope(rule=rule)
    if depth:
        slope.ensure(depth)
    return slope


@dataclass
class TypeEstimate:
    value: float
    at_n: object
    per_level: tuple


def diophantine_type_estimate(cf, depth):
    """max over n <= depth of 1 + log a_{n+1} / log q_n, with the attaining n.

    Standard fact: w(alpha) = 1 + limsup log a_{n+1} / log q_n; levels with
    q_n = 1 carry no information and are skipped.
    """
    if depth < 2:
        raise OutOfRange("need depth >= 2")
    cf.ensure(depth + 1)
    best = 1.0
    best_n = None
    levels = []
    for n in range(1, depth + 1):
        qn = cf.q(n)
        if qn <= 1:
            continue
        est = 1.0 + math.log(cf.quotient(n + 1)) / math.log(qn)
        levels.append((n, est))
        if est > best:
            best = est
            best_n = n
    return TypeEstimate(value=best, at_n=best_n, per_level=tuple(levels))


def type_witness_holds(cf, n, w, eps, deep_margin=10):
    """Exact check of the defining inequality |alpha - p_n/q_n| < q_n^-(w+1-eps)
    with alpha replaced by a much deeper convergent."""
    w = Fraction(w)
    eps = Fraction(eps)
    deep = n + deep_margin
    if cf.finite:
        deep = min(deep, cf.depth_available)
    alpha = cf.convergent(deep)
    gap = abs(alpha - cf.convergent(n))
    return rational_lt_power(gap, cf.q(n), -(w + 1 - eps))


# -- slope spec syntax ----------------------------------------------------------

@dataclass
class SlopeSpec:
    text: str
    kind: str                  # "rational" | "cf" | "horizontal"
    cf: object = None          # CFSlope for "cf" and rational in (0,1)
    value: object = None       # Fraction for "rational", INFINITY for horizontal


def parse_slope_spec(text):
    """Spec syntax: golden | type:w=W | quotients:[a1,a2,...] | rational:p/q
    (bare p/q and inf also accepted)."""
    t = text.strip()
    if t == "golden":
        return SlopeSpec(text=t, kind="cf", cf=golden_slope())
    if t in ("inf", "horizontal"):
        return SlopeSpec(text=t, kind="horizontal", value=INFINITY)
    if t.startswith("type:"):
        body = t[len("type:"):]
        if not body.startswith("w="):
            raise OutOfRange(f"bad type spec {text!r}")
        try:
            w = Fraction(body[2:])
        except ZeroDivisionError as exc:
            raise OutOfRange(f"bad type spec {text!r}") from exc
        return SlopeSpec(text=t, kind="cf", cf=slope_with_type(w))
    if t.startswith("quotients:"):
        body = t[len("quotients:"):].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise OutOfRange(f"bad quotients spec {text!r}")
        quots = [int(s) for s in body[1:-1].split(",") if s.strip()]
        return SlopeSpec(text=t, kind="cf", cf=CFSlope(quots))
    if t.startswith("rational:"):
        body = t[len("rational:"):]
    else:
        body = t
    try:
        val = Fraction(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise OutOfRange(f"bad slope spec {text!r}") from exc
    spec = SlopeSpec(text=t, kind="rational", value=val)
    if 0 < val < 1:
        spec.cf = CFSlope(cf_expand(val))
    return spec
