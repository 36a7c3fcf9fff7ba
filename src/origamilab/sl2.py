"""Integer 2x2 matrices, generator words in T and V, and their action.

T = [[1,1],[0,1]] shears horizontally, V = [[1,0],[1,1]] vertically, and
R = [[0,-1],[1,0]] is only ever reached through the word T^-1 V T^-1 so that
the square-permutation action rests solely on the T/V re-gluing rules:
T: (h,v) -> (h, v h^-1), V: (h,v) -> (h v^-1, v).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InvariantViolated, NotUnimodular
from .origami import (INFINITY, Origami, SurfacePoint, canonical_key,
                      canonical_point, is_isomorphic, slope_pair)

T_TOK, TINV_TOK, V_TOK, VINV_TOK = "T", "T-", "V", "V-"
TOKENS = (T_TOK, TINV_TOK, V_TOK, VINV_TOK)
_INVERSE_TOK = {T_TOK: TINV_TOK, TINV_TOK: T_TOK, V_TOK: VINV_TOK, VINV_TOK: V_TOK}


@dataclass(frozen=True)
class Mat2:
    a: int
    b: int
    c: int
    d: int

    def det(self):
        return self.a * self.d - self.b * self.c

    def __mul__(self, o):
        return Mat2(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                    self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def inv(self):
        det = self.det()
        if det == 1:
            return Mat2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return Mat2(-self.d, self.b, self.c, -self.a)
        raise NotUnimodular(f"det {det}")


MAT_ID = Mat2(1, 0, 0, 1)
MAT_T = Mat2(1, 1, 0, 1)
MAT_V = Mat2(1, 0, 1, 1)
MAT_R = Mat2(0, -1, 1, 0)

R_WORD = (TINV_TOK, V_TOK, TINV_TOK)
NEG_I_WORD = R_WORD + R_WORD


def evaluate_word(word):
    """The product of the word's generators, folded on integers: a right
    factor T (T-) adds (subtracts) the first column to (from) the second,
    and V (V-) the second to (from) the first."""
    a, b, c, d = 1, 0, 0, 1
    for tok in word:
        if tok == T_TOK:
            b, d = b + a, d + c
        elif tok == TINV_TOK:
            b, d = b - a, d - c
        elif tok == V_TOK:
            a, c = a + b, c + d
        elif tok == VINV_TOK:
            a, c = a - b, c - d
        else:
            raise ValueError(f"bad token {tok!r}")
    return Mat2(a, b, c, d)


def invert_word(word):
    return tuple(_INVERSE_TOK[t] for t in reversed(word))


def _run(tok_pos, tok_neg, k):
    return (tok_pos,) * k if k >= 0 else (tok_neg,) * (-k)


def _peephole(word):
    out = []
    for tok in word:
        if out and out[-1] == _INVERSE_TOK[tok]:
            out.pop()
        else:
            out.append(tok)
    return tuple(out)


def decompose(m):
    """Word in T, V (and inverses) evaluating exactly to m (det m = +1).

    Euclidean reduction of the bottom row by right-multiplications; the base
    cases are powers of T, the rotation R = T^-1 V T^-1 and -I = R^2.
    """
    if m.det() != 1:
        raise NotUnimodular(f"det {m.det()} != 1")
    a, b, c, d = m.a, m.b, m.c, m.d
    suffix = ()
    while c != 0 and d != 0:
        if abs(d) >= abs(c):
            q = d // c
            b -= q * a
            d -= q * c
            suffix = _run(T_TOK, TINV_TOK, q) + suffix
        else:
            q = c // d
            a -= q * b
            c -= q * d
            suffix = _run(V_TOK, VINV_TOK, q) + suffix
    if c == 0:
        # a = d = +-1, so the remainder is +-T^(b/d)
        head = _run(T_TOK, TINV_TOK, b * d)
        if a == -1:
            head = NEG_I_WORD + head
    else:
        # d = 0 forces b*c = -1; [[a,-1],[1,0]] = T^a R
        if c == 1:
            head = _run(T_TOK, TINV_TOK, a) + R_WORD
        else:
            head = NEG_I_WORD + _run(T_TOK, TINV_TOK, -a) + R_WORD
    word = _peephole(head + suffix)
    if evaluate_word(word) != m:
        raise InvariantViolated(f"word {word} does not evaluate to {m}")
    return word


# -- action on origamis --------------------------------------------------------

def _reglue(tok, h, v):
    """The gluing pair (h, v) after one generator. T and V map valid gluings
    to valid gluings, so only a surface that leaves this layer is built and
    checked as an Origami."""
    if tok == T_TOK:
        return h, v * h.inv()
    if tok == TINV_TOK:
        return h, v * h
    if tok == V_TOK:
        return h * v.inv(), v
    if tok == VINV_TOK:
        return h * v, v
    raise ValueError(f"bad token {tok!r}")


def act_word(word, origami):
    h, v = origami.h, origami.v
    for tok in reversed(word):
        h, v = _reglue(tok, h, v)
    return Origami(h, v, names=origami.names)


def act(m, origami):
    """A . origami along decompose(A); requires det +1."""
    return act_word(decompose(m), origami)


def reflect_S(origami):
    """Horizontal reflection S(x,y) = (-x,y): swaps left/right gluings."""
    return Origami(origami.h.inv(), origami.v, names=origami.names)


# -- projective action and stretch ----------------------------------------------

def projective_slope(m, s):
    """(a s + b) / (c s + d) with s in Q or INFINITY: the slope of A (p, q)
    for the direction (p, q) of s."""
    p, q = slope_pair(s)
    den = m.c * p + m.d * q
    if den == 0:
        return INFINITY
    return Fraction(m.a * p + m.b * q, den)


def stretch_factor_squared(m, s):
    """kappa^2 where kappa = |A u| for the unit vector u of slope s."""
    p, q = slope_pair(s)
    return Fraction((m.a * p + m.b * q) ** 2 + (m.c * p + m.d * q) ** 2,
                    p * p + q * q)


# -- orbit ---------------------------------------------------------------------------

@dataclass
class OrbitResult:
    representatives: dict      # canonical key -> Origami
    adjacency: dict            # canonical key -> {token: canonical key}
    complete: bool


def orbit_enumerate(origami, cap=64):
    """BFS closure of the T/V action up to isomorphism, halting at cap
    classes (partial result flagged incomplete, with the edges among the
    classes it kept)."""
    key0 = canonical_key(origami)
    reps = {key0: origami}
    adjacency = {}
    queue = [key0]
    complete = True
    qi = 0
    while qi < len(queue):
        key = queue[qi]
        qi += 1
        rep = reps[key]
        row = {}
        for tok in TOKENS:
            img = act_word((tok,), rep)
            ikey = canonical_key(img)
            if ikey not in reps:
                if len(reps) >= cap:
                    complete = False
                    continue
                reps[ikey] = img
                queue.append(ikey)
            row[tok] = ikey
        adjacency[key] = row
    return OrbitResult(representatives=reps, adjacency=adjacency,
                       complete=complete)


# -- affine charts -----------------------------------------------------------------

class AffineChart:
    """The affine homeomorphism X -> A.X realized square by square along a
    generator word, with exact rational point images. `chain` holds the
    (h, v) gluings of the surfaces the word passes through, X first."""

    def __init__(self, origami, word, _chain=None):
        self.word = tuple(word)
        if _chain is None:
            _chain = [(origami.h, origami.v)]
            for tok in reversed(self.word):
                _chain.append(_reglue(tok, *_chain[-1]))
        self.chain = tuple(_chain)

    @property
    def matrix(self):
        return evaluate_word(self.word)

    def map_point(self, pt):
        """The image of pt. Each generator is one shear of (X, Y), the
        coordinates times their common denominator D, and a step to the
        square right of or above (T, V) or left of or below (T-, V-) when
        the sheared coordinate leaves [0, D); the square to the left or
        below is a preimage under h or v."""
        x, y = pt.x, pt.y
        D = lcm(x.denominator, y.denominator)
        sq = pt.square
        X = x.numerator * (D // x.denominator)
        Y = y.numerator * (D // y.denominator)
        for tok, (h, v) in zip(reversed(self.word), self.chain):
            if tok == T_TOK:
                X += Y
                if X >= D:
                    X, sq = X - D, h.images[sq]
            elif tok == TINV_TOK:
                X -= Y
                if X < 0:
                    X, sq = X + D, h.images.index(sq)
            elif tok == V_TOK:
                Y += X
                if Y >= D:
                    Y, sq = Y - D, v.images[sq]
            elif tok == VINV_TOK:
                Y -= X
                if Y < 0:
                    Y, sq = Y + D, v.images.index(sq)
            else:
                raise ValueError(f"bad token {tok!r}")
        return SurfacePoint(sq, Fraction(X, D), Fraction(Y, D))

    def inverse(self):
        return AffineChart(None, invert_word(self.word),
                           _chain=self.chain[::-1])


class ReflectionMap:
    """Orientation-reversing f_S on an origami with S.X = X (up to
    relabeling): (j,x,y) -> (sigma(j), 1-x, y); slopes map s -> -s.
    `letters` maps each letter to the letter of its edge's image: top(j)
    goes to top(sigma(j)), right(j) to left(sigma(j))."""

    def __init__(self, origami):
        sigma = is_isomorphic(reflect_S(origami), origami)
        if sigma is None:
            raise ValueError("origami is not fixed by the reflection S")
        self.origami = origami
        self.sigma = sigma
        rows = origami.label_rows
        self.letters = {
            letter: rows["top" if side == "top" else "left"][sigma(j)]
            for letter, (j, side) in origami.letters.items()}

    def map_point(self, pt):
        return canonical_point(self.origami, self.sigma(pt.square),
                               1 - pt.x, pt.y)
