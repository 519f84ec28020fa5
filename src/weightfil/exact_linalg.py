"""Exact rational linear algebra.

Matrices and subspaces over Q with arbitrary-precision Fraction entries;
no floating point anywhere.  Subspaces are kept in reduced row-echelon
form so that equality of subspaces is equality of representations.
Characteristic polynomials are factored over Q here too, in pure Python.

Elimination runs on primitive integer rows.  `_echelon` is the one
fraction-free forward pass; ranks (`Subspace.sum_dim`, `contains`) read
its length, and `_rref` adds back-reduction and the division by pivots.
A QMatrix caches its integer form (`int_rows`) for `apply_int`.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, count
from math import gcd, isqrt
from typing import Iterable, Sequence

from .errors import PreconditionError
from .galois import (_padd, _pdivmod, _pmod, _pmonic, _pmul, _poly_gcd, _psub, _ptrim,
                     factor_mod_p, is_prime)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce an int, Fraction or string like '3' / '-3/4' to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def rat_str(x: Fraction) -> str:
    """Serialize a rational as 'num/den', or 'num' when den = 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def pvaluation(x: Fraction, p: int):
    """p-adic valuation of a rational; None for 0."""
    x = Fraction(x)
    if x == 0:
        return None
    v = 0
    n = abs(x.numerator)
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


@dataclass(frozen=True)
class QMatrix:
    """Immutable rational matrix, row-major, acting on column vectors."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "QMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        ent = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            ent.extend(rat(x) for x in row)
        return QMatrix(r, c, tuple(ent))

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(n, n, tuple(_ONE if i == j else _ZERO
                                   for i in range(n) for j in range(n)))

    @staticmethod
    def zero(r: int, c: int) -> "QMatrix":
        return QMatrix(r, c, (Fraction(0),) * (r * c))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_list(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def transpose(self) -> "QMatrix":
        return QMatrix(self.cols, self.rows,
                       tuple(self.entry(i, j)
                             for j in range(self.cols) for i in range(self.rows)))

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return QMatrix(self.rows, self.cols,
                       tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "QMatrix":
        c = rat(c)
        return QMatrix(self.rows, self.cols, tuple(c * x for x in self.entries))

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        n = other.cols
        # other's nonzero entries, as integers over one common denominator
        b_rows = [[(j, b) for j, b in enumerate(other.row(k)) if b]
                  for k in range(other.rows)]
        b_den = _lcm({b.denominator for row in b_rows for _, b in row})
        sparse = [[(j, b.numerator * (b_den // b.denominator)) for j, b in row]
                  for row in b_rows]
        ent = []
        for i in range(self.rows):
            a_row = [(k, a) for k, a in enumerate(self.row(i)) if a]
            a_den = _lcm({a.denominator for _, a in a_row})
            acc = [0] * n
            for k, a in a_row:
                a = a.numerator * (a_den // a.denominator)
                for j, y in sparse[k]:
                    acc[j] += a * y
            ent.extend(_fractions(acc, a_den * b_den))
        return QMatrix(self.rows, n, tuple(ent))

    def power(self, k: int) -> "QMatrix":
        if self.rows != self.cols or k < 0:
            raise ValueError("power of a non-square matrix or to a negative exponent")
        out = self if k else QMatrix.identity(self.rows)
        for _ in range(k - 1):
            out = out @ self
        return out

    def apply(self, vec: Sequence) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("length mismatch")
        x = [(k, y) for k, y in enumerate(map(rat, vec)) if y]
        x_den = _lcm({y.denominator for _, y in x})
        nonzero = [(k, y.numerator * (x_den // y.denominator)) for k, y in x]
        out = []
        for i in range(self.rows):
            row = self.row(i)
            terms = [(row[k], y) for k, y in nonzero if row[k]]
            den = _lcm({a.denominator for a, _ in terms})
            s = sum(a.numerator * (den // a.denominator) * y for a, y in terms)
            out.append(Fraction(s, den * x_den) if s else _ZERO)
        return tuple(out)

    @cached_property
    def int_rows(self) -> tuple:
        """The rows times the lcm of all denominators, as sparse
        (column, int) pairs."""
        den = _lcm({x.denominator for x in self.entries})
        return tuple(tuple((j, x.numerator * (den // x.denominator))
                           for j, x in enumerate(self.row(i)) if x)
                     for i in range(self.rows))

    def apply_int(self, vec: Sequence) -> list:
        """A positive multiple of self.apply(vec) for an integer vector vec:
        the same line, in integers."""
        return [sum(a * vec[j] for j, a in row) for row in self.int_rows]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.entry(i, i) for i in range(self.rows)), Fraction(0))

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        m = self.row_list()
        n = self.rows
        d = Fraction(1)
        for j in range(n):
            piv = next((i for i in range(j, n) if m[i][j] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != j:
                m[j], m[piv] = m[piv], m[j]
                d = -d
            d *= m[j][j]
            inv = 1 / m[j][j]
            for i in range(j + 1, n):
                if m[i][j]:
                    f = m[i][j] * inv
                    for k in range(j, n):
                        m[i][k] -= f * m[j][k]
        return d

    def to_strings(self) -> list:
        return [[rat_str(x) for x in self.row(i)] for i in range(self.rows)]


def _lcm(values) -> int:
    """Least common multiple of positive integers; 1 for none."""
    out = 1
    for d in values:
        if d != 1:
            out = out * d // gcd(out, d)
    return out


def _integer_row(row) -> list:
    """The row scaled to coprime integers; a zero row stays zero."""
    row = [x if type(x) is Fraction else rat(x) for x in row]
    den = _lcm({x.denominator for x in row})
    if den > 1:
        return _primitive([x.numerator * (den // x.denominator) for x in row])
    return _primitive([x.numerator for x in row])


def _fractions(ints: list, den: int) -> list:
    """The Fractions x / den for x in ints."""
    return [_ONE if x == den else Fraction(x, den) if x else _ZERO for x in ints]


def _primitive(ints: list) -> list:
    """ints divided by their gcd; a list of zeros (gcd 0) is returned as is."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _insert(echelon: list, v: list):
    """Reduce the integer row v against `echelon`, (pivot column, row) pairs
    sorted by pivot, each row zero before its pivot, by cross-multiplying
    and keeping v primitive; add and return what is left when it is
    nonzero, else None."""
    for c, row in echelon:
        b = v[c]
        if b:
            a = row[c]
            v = _primitive([a * x - b * y for x, y in zip(v, row)])
    c = next((j for j, x in enumerate(v) if x), None)
    if c is None:
        return None
    insort(echelon, (c, v))
    return v


def _echelon(rows) -> list:
    """One forward elimination pass: [(pivot column, primitive integer row)]
    sorted by pivot, spanning the rows; its length is their rank."""
    echelon = []
    for row in rows:
        _insert(echelon, _integer_row(row))
    return echelon


def _rref(rows: list) -> tuple:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The forward pass of `_echelon`, then back-reduction above each pivot,
    last pivot first, in integers; the surviving rows are divided by their
    pivots at the end, which gives the unique RREF over Q.
    """
    echelon = _echelon(rows)
    pivots = [c for c, _ in echelon]
    m = [row for _, row in echelon]
    for k in reversed(range(len(m))):
        c, prow = pivots[k], m[k]
        a = prow[c]
        for i in range(k):
            b = m[i][c]
            if b:
                m[i] = _primitive([a * x - b * y for x, y in zip(m[i], prow)])
    return [_fractions(row, row[c]) for row, c in zip(m, pivots)], pivots


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n, stored as RREF basis rows (rows = dim).

    Canonical: two Subspace values are equal iff they are the same subspace.
    """

    ambient_dim: int
    basis: QMatrix

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        red, _ = _rref(vecs)
        if not red:
            return Subspace.zero(ambient_dim)
        return Subspace(ambient_dim, QMatrix.from_rows(red))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, QMatrix.zero(0, ambient_dim))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, QMatrix.identity(ambient_dim))

    @staticmethod
    def coordinates(ambient_dim: int, coords: Iterable[int]) -> "Subspace":
        """Span of the unit vectors e_c, c in coords; its sorted unit rows
        are already in RREF."""
        cs = sorted(set(coords))
        return Subspace(ambient_dim, QMatrix(len(cs), ambient_dim, tuple(
            _ONE if j == c else _ZERO for c in cs for j in range(ambient_dim))))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def basis_rows(self) -> list:
        return [self.basis.row(i) for i in range(self.dim)]

    def contains_vector(self, vec: Sequence) -> bool:
        v = [rat(x) for x in vec]
        for i in range(self.dim):
            row = self.basis.row(i)
            # rows are RREF: the pivot is the first nonzero entry, equal to 1
            c = next(j for j in range(self.ambient_dim) if row[j] != 0)
            f = v[c]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return all(x == 0 for x in v)

    def sum_dim(self, other: "Subspace") -> int:
        """dim(self + other): the rank of both bases, from one echelon pass."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return len(_echelon(self.basis_rows() + other.basis_rows()))

    def contains(self, other: "Subspace") -> bool:
        """other <= self iff adding other's basis leaves the rank at dim self."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return other.is_zero() or self.is_full() or (
            other.dim <= self.dim and self.sum_dim(other) == self.dim)

    def to_strings(self) -> list:
        return self.basis.to_strings()


def kernel(m: QMatrix) -> Subspace:
    """{v : m v = 0}, in canonical RREF form."""
    red, pivots = _rref(m.row_list())
    n = m.cols
    free = [c for c in range(n) if c not in pivots]
    vecs = []
    for fc in free:
        v = [_ZERO] * n
        v[fc] = _ONE
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        vecs.append(v)
    return Subspace.from_vectors(n, vecs)


def image(m: QMatrix) -> Subspace:
    """Column span of m, in canonical form."""
    return Subspace.from_vectors(m.rows, [m.col(j) for j in range(m.cols)])


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.from_vectors(a.ambient_dim, a.basis_rows() + b.basis_rows())


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """a /\\ b by Zassenhaus: one RREF of the rows (x | x) for x in a and
    (y | 0) for y in b.  A reduced row with its pivot in the right half has a
    zero left half, and those rows' right halves are the RREF of a /\\ b."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.is_zero() or b.is_full():
        return a
    if b.is_zero() or a.is_full():
        return b
    n = a.ambient_dim
    red, pivots = _rref([r + r for r in a.basis_rows()]
                        + [r + (_ZERO,) * n for r in b.basis_rows()])
    meet = [x for row, c in zip(red, pivots) if c >= n for x in row[n:]]
    return Subspace(n, QMatrix(len(meet) // n, n, tuple(meet)))


def image_of_subspace(m: QMatrix, w: Subspace) -> Subspace:
    """m(w) as a subspace of the target."""
    if w.ambient_dim != m.cols:
        raise ValueError("ambient dimension mismatch")
    return Subspace.from_vectors(m.rows, [m.apply(r) for r in w.basis_rows()])


def solve(m: QMatrix, b: Sequence):
    """One solution x of m x = b, or None."""
    aug = [list(m.row(i)) + [rat(b[i])] for i in range(m.rows)]
    red, pivots = _rref(aug)
    n = m.cols
    x = [Fraction(0)] * n
    for i, pc in enumerate(pivots):
        if pc == n:
            return None
        x[pc] = red[i][n]
    return tuple(x)


def inverse(m: QMatrix) -> QMatrix:
    """m^-1, from one elimination of [m | I]."""
    n = m.rows
    if m.cols != n:
        raise ValueError("inverse of a non-square matrix")
    red, pivots = _rref([list(m.row(i)) + [int(i == j) for j in range(n)]
                         for i in range(n)])
    if pivots != list(range(n)):
        raise PreconditionError("matrix is singular")
    return QMatrix.from_rows([r[n:] for r in red])


def extend_basis(inner: Subspace, outer: Subspace) -> list:
    """Rows of outer completing inner's basis to a basis of outer: the
    pivot columns of the RREF of inner's then outer's basis rows, taken as
    columns, pick each outer row that is independent of those before it.
    inner <= outer iff those rows have rank outer.dim; else ValueError."""
    if inner.ambient_dim != outer.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    outer_rows = outer.basis_rows()
    _, pivots = _rref([list(col) for col in zip(*inner.basis_rows(), *outer_rows)])
    if len(pivots) != outer.dim:
        raise ValueError("inner is not contained in outer")
    return [tuple(outer_rows[c - inner.dim]) for c in pivots if c >= inner.dim]


class QuotientMap:
    """Coordinates on outer/inner for nested subspaces inner <= outer."""

    def __init__(self, inner: Subspace, outer: Subspace):
        self.inner = inner
        self.outer = outer
        self.comp_rows = extend_basis(inner, outer)
        self.dim = len(self.comp_rows)
        rows = [list(r) for r in inner.basis_rows()] + [list(r) for r in self.comp_rows]
        self._solve_mat = QMatrix.from_rows(rows).transpose() if rows \
            else QMatrix.zero(outer.ambient_dim, 0)

    def coords(self, vec: Sequence) -> tuple:
        """Coordinates of a vector of outer in the chosen complement basis."""
        if self._solve_mat.cols == 0:
            return ()
        sol = solve(self._solve_mat, [rat(x) for x in vec])
        if sol is None:
            raise ValueError("vector is not in the outer subspace")
        return sol[self.inner.dim:]

    def lift(self, coords: Sequence) -> tuple:
        n = self.outer.ambient_dim
        v = [Fraction(0)] * n
        for c, row in zip(coords, self.comp_rows):
            c = rat(c)
            if c:
                v = [a + c * b for a, b in zip(v, row)]
        return tuple(v)

    def subspace_image(self, w: Subspace) -> Subspace:
        """Image of a subspace w <= outer in the quotient coordinates."""
        return Subspace.from_vectors(self.dim, [self.coords(r) for r in w.basis_rows()])

    def induced_matrix(self, m: QMatrix) -> QMatrix:
        """Matrix of the endomorphism induced by m on outer/inner.

        Requires m(outer) <= outer and m(inner) <= inner.
        """
        cols = [self.coords(m.apply(row)) for row in self.comp_rows]
        return QMatrix.from_rows([[cols[j][i] for j in range(self.dim)]
                                  for i in range(self.dim)]) \
            if self.dim else QMatrix.zero(0, 0)


@dataclass(frozen=True)
class Polynomial:
    """Univariate rational polynomial, coefficients lowest degree first."""

    coeffs: tuple

    @staticmethod
    def from_coeffs(coeffs: Sequence) -> "Polynomial":
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.from_coeffs(_pmul(self.coeffs, other.coeffs))

    def of_matrix(self, m: QMatrix) -> QMatrix:
        out = QMatrix.zero(m.rows, m.cols)
        for c in reversed(self.coeffs):
            out = out @ m + QMatrix.identity(m.rows).scale(c)
        return out

    def to_strings(self) -> list:
        return [rat_str(c) for c in self.coeffs]


def char_poly(m: QMatrix) -> Polynomial:
    """Monic characteristic polynomial det(xI - m), by Faddeev-LeVerrier."""
    if m.rows != m.cols:
        raise PreconditionError("char_poly: non-square input")
    n = m.rows
    if n == 0:
        return Polynomial.from_coeffs([1])
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = m
    coeffs[n - 1] = -mk.trace()
    for k in range(2, n + 1):
        mk = m @ (mk + QMatrix.identity(n).scale(coeffs[n - k + 1]))
        coeffs[n - k] = -mk.trace() / k
    return Polynomial.from_coeffs(coeffs)


@dataclass(frozen=True)
class NewtonPolygon:
    """Multiset of root valuations as (slope, horizontal length) segments,
    slopes strictly increasing."""

    segments: tuple

    def total_length(self) -> int:
        return sum(l for _, l in self.segments)


def newton_polygon(poly: Polynomial, p: int, a: int = 1) -> NewtonPolygon:
    """q-adic Newton polygon of a polynomial with nonzero constant term.

    q = p^a and valuations are v_q = v_p / a.  Segment slopes are the root
    valuations (negatives of the classical lower-hull slopes), strictly
    increasing; horizontal lengths sum to the degree.
    """
    if poly.is_zero() or poly.coeffs[0] == 0:
        raise PreconditionError(
            "newton_polygon: zero constant term (operator not invertible)")
    pts = []
    for i, c in enumerate(poly.coeffs):
        v = pvaluation(c, p)
        if v is not None:
            pts.append((i, Fraction(v, a)))
    # lower convex hull, left to right
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies on or above segment hull[-2] -> pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    segs = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y1 - y2, x2 - x1)  # root valuation
        segs.append((slope, x2 - x1))
    segs.sort(key=lambda sl: sl[0])
    merged = []
    for s, l in segs:
        if merged and merged[-1][0] == s:
            merged[-1] = (s, merged[-1][1] + l)
        else:
            merged.append((s, l))
    np_ = NewtonPolygon(tuple(merged))
    assert np_.total_length() == poly.degree
    return np_


# ---------------------------------------------------------------------------
# factoring over Q (von zur Gathen & Gerhard, Modern Computer Algebra,
# ch. 14-16): primitive part, Yun's squarefree decomposition, factors mod a
# prime p (`galois.factor_mod_p`), Hensel lifting to a Mignotte bound and
# Zassenhaus recombination.  Polynomials here are lists of ints, lowest
# degree first, without trailing zeros, with galois's ring helpers.

def _pderiv(f: list) -> list:
    return [i * c for i, c in enumerate(f)][1:]


def _pprimitive(f: list) -> list:
    """f over its content, with a positive leading coefficient; [] for 0."""
    f = _primitive(f)
    return f if not f or f[-1] > 0 else [-x for x in f]


def _pquotient(a: list, b: list):
    """a / b when b divides a in Z[x], else None."""
    if a and (a[-1] % b[-1] or (b[0] and a[0] % b[0])):
        return None
    a, db = list(a), len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for k in reversed(range(len(q))):
        c, r = divmod(a[k + db], b[-1])
        if r:
            return None
        q[k] = c
        if c:
            for i, y in enumerate(b):
                a[k + i] -= c * y
    return None if any(a[:db]) else q


def _pgcd(a: list, b: list) -> list:
    """Primitive gcd in Z[x], by the primitive remainder sequence."""
    a, b = _pprimitive(a), _pprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        # a remainder of a by b, scaled by a power of lc(b)
        r, lb = list(a), b[-1]
        while len(r) >= len(b):
            c, sh = r[-1], len(r) - len(b)
            r = [x * lb for x in r]
            for i, y in enumerate(b):
                r[sh + i] -= c * y
            _ptrim(r)
        a, b = b, _pprimitive(r)
    return a


def _squarefree_parts(f: list) -> list:
    """Yun: [(a_i, i)] with the primitive f = prod a_i^i, each a_i primitive,
    squarefree and of positive degree, the a_i pairwise coprime.  Every
    quotient is exact in Z[x] by Gauss's lemma, and rescaling a gcd rescales
    b, c and d alike, so d = c - b' keeps holding."""
    df = _pderiv(f)
    a = _pgcd(f, df)
    b, c = _pquotient(f, a), _pquotient(df, a)
    d, out, i = _psub(c, _pderiv(b)), [], 1
    while len(b) > 1:
        a = _pgcd(b, d)
        b, c = _pquotient(b, a), _pquotient(d, a)
        d = _psub(c, _pderiv(b))
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


def _good_prime(f: list) -> int:
    """The least odd prime dividing neither lc(f) nor the discriminant of the
    squarefree f, i.e. modulo which f keeps its degree and stays squarefree."""
    df = _pderiv(f)
    for p in count(3, 2):
        if is_prime(p) and f[-1] % p and len(_poly_gcd(f, df, p)) == 1:
            return p


def _inverse_pair(g: list, h: list, p: int) -> tuple:
    """(s, t) with s g + t h = 1 over F_p for coprime g and h of positive
    degree, deg s < deg h and deg t < deg g."""
    r0, s0, t0, r1, s1, t1 = g, [1], [], h, [], [1]
    while True:
        inv = pow(r1[-1], -1, p)
        r1, s1, t1 = ([x * inv % p for x in u] for u in (r1, s1, t1))
        if len(r1) == 1:
            return s1, t1
        q, r = _pdivmod(r0, r1, p)
        r0, s0, t0, r1, s1, t1 = (r1, s1, t1, r, _pmod(_psub(s0, _pmul(q, s1)), p),
                                  _pmod(_psub(t0, _pmul(q, t1)), p))


def _hensel_lift(f: list, factors: list, p: int, steps: int) -> list:
    """The monic factors of the monic f mod p^(2^steps) that reduce to
    `factors`, the monic factors of f mod p: a factor tree of quadratic
    Hensel steps (von zur Gathen & Gerhard, Algorithm 15.10)."""
    if len(factors) == 1:
        return [f]
    half = len(factors) // 2
    g, h = [1], [1]
    for u in factors[:half]:
        g = _pmod(_pmul(g, u), p)
    for u in factors[half:]:
        h = _pmod(_pmul(h, u), p)
    s, t = _inverse_pair(g, h, p)
    m = p
    for step in range(steps):
        m *= m
        e = _pmod(_psub(f, _pmul(g, h)), m)
        q, r = _pdivmod(_pmul(s, e), h, m)
        g = _pmod(_padd(g, _padd(_pmul(t, e), _pmul(q, g))), m)
        h = _pmod(_padd(h, r), m)
        if step + 1 < steps:
            b = _pmod(_psub(_padd(_pmul(s, g), _pmul(t, h)), [1]), m)
            c, d = _pdivmod(_pmul(s, b), h, m)
            s = _pmod(_psub(s, d), m)
            t = _pmod(_psub(t, _padd(_pmul(t, b), _pmul(c, g))), m)
    return (_hensel_lift(g, factors[:half], p, steps)
            + _hensel_lift(h, factors[half:], p, steps))


def _factor_squarefree(f: list, rng: random.Random) -> list:
    """The irreducible factors in Z[x] of the primitive squarefree f."""
    n = len(f) - 1
    if n == 1:
        return [f]
    p = _good_prime(f)
    modular = factor_mod_p(_pmonic(f, p), p, rng)
    if len(modular) == 1:
        return [f]
    # a factor of f, scaled to leading coefficient lc(f), has coefficients
    # below lc(f) 2^n |f|_2 (Mignotte); the lift must hold twice that
    bound = 2 * abs(f[-1]) * 2 ** n * (isqrt(sum(c * c for c in f)) + 1)
    m, steps = p, 0
    while m <= bound:
        m, steps = m * m, steps + 1
    lifts = _hensel_lift(_pmonic(f, m), modular, p, steps)
    # Zassenhaus: try products of s lifted factors, s increasing
    out, s = [], 1
    while 2 * s <= len(lifts):
        for subset in combinations(range(len(lifts)), s):
            cand = [f[-1]]
            for i in subset:
                cand = _pmod(_pmul(cand, lifts[i]), m)
            cand = _pprimitive([x - m if 2 * x > m else x for x in cand])
            q = _pquotient(f, cand)
            if q is not None:
                out.append(cand)
                f = q
                lifts = [u for i, u in enumerate(lifts) if i not in subset]
                break
        else:
            s += 1
    return out + [f] if len(f) > 1 else out


def factor_rational_poly(poly: Polynomial) -> list:
    """Factor a rational polynomial into irreducibles over Q.

    Returns [(Polynomial, multiplicity)], monic factors sorted by (degree,
    coefficients); [] for a constant.  Deterministic: the random splitting
    mod p draws from its own fixed-seed generator.
    """
    if poly.degree < 1:
        return []
    den = _lcm({c.denominator for c in poly.coeffs})
    f = _pprimitive([c.numerator * (den // c.denominator) for c in poly.coeffs])
    rng = random.Random(0)
    out = [(Polynomial.from_coeffs([Fraction(c, g[-1]) for c in g]), mult)
           for part, mult in _squarefree_parts(f)
           for g in _factor_squarefree(part, rng)]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out
