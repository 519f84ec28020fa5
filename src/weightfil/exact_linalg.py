"""Exact rational linear algebra.

Matrices and subspaces over Q with arbitrary-precision Fraction entries;
no floating point anywhere.  Subspaces are kept in reduced row-echelon
form so that equality of subspaces is equality of representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import PreconditionError

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
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        out = QMatrix.identity(self.rows)
        for _ in range(k):
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


def _rref(rows: list) -> tuple:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Fraction-free Gauss-Jordan: rows are scaled to integers and eliminated
    by cross-multiplication, each kept primitive (divided by the gcd of its
    entries) so entries stay small.  The surviving rows are divided by
    their pivots at the end, which gives the unique RREF over Q.
    """
    m = [_integer_row(row) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        a = prow[c]
        for i, row in enumerate(m):
            b = row[c]
            if b and i != r:
                m[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
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

    def contains(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains_vector(r) for r in other.basis_rows())

    def annihilator_matrix(self) -> QMatrix:
        """Matrix K with self = {x : K x = 0}; K has ambient_dim - dim rows."""
        ker = kernel(self.basis) if self.dim else Subspace.full(self.ambient_dim)
        return ker.basis

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


def rank(m: QMatrix) -> int:
    red, _ = _rref(m.row_list())
    return len(red)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.from_vectors(a.ambient_dim, a.basis_rows() + b.basis_rows())


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    ka = a.annihilator_matrix()
    kb = b.annihilator_matrix()
    stacked = QMatrix.from_rows(ka.row_list() + kb.row_list()) \
        if ka.rows + kb.rows else QMatrix.zero(0, a.ambient_dim)
    if stacked.rows == 0:
        return Subspace.full(a.ambient_dim)
    return kernel(stacked)


def preimage(m: QMatrix, w: Subspace) -> Subspace:
    """{x : m x in w}."""
    if w.ambient_dim != m.rows:
        raise ValueError("ambient dimension mismatch")
    k = w.annihilator_matrix()
    if k.rows == 0:
        return Subspace.full(m.cols)
    return kernel(k @ m)


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


def extend_basis(inner: Subspace, outer: Subspace) -> list:
    """Rows of outer completing inner's basis to a basis of outer: the
    pivot columns of the RREF of inner's then outer's basis rows, taken as
    columns, pick each outer row that is independent of those before it."""
    if not outer.contains(inner):
        raise ValueError("inner is not contained in outer")
    outer_rows = outer.basis_rows()
    _, pivots = _rref([list(col) for col in zip(*inner.basis_rows(), *outer_rows)])
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

    @staticmethod
    def from_roots(roots: Sequence) -> "Polynomial":
        out = Polynomial.from_coeffs([1])
        for r in roots:
            out = out * Polynomial.from_coeffs([-rat(r), 1])
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial.from_coeffs(out)

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


def factor_rational_poly(poly: Polynomial) -> list:
    """Factor a rational polynomial into irreducibles over Q.

    Returns [(Polynomial, multiplicity)], monic factors.  Uses sympy, the
    one external dependency; everything is converted back to Fractions.
    """
    import sympy

    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
               for i, c in enumerate(poly.coeffs))
    _, factors = sympy.Poly(expr, x, domain="QQ").factor_list()
    out = []
    for f, mult in factors:
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
        lead = cs[-1]
        cs = [c / lead for c in cs]
        out.append((Polynomial.from_coeffs(cs), int(mult)))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out
