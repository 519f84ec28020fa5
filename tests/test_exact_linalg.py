import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from weightfil.errors import PreconditionError
from weightfil.exact_linalg import (Polynomial, QMatrix, Subspace, _good_prime, _rref,
                                    char_poly, extend_basis, factor_rational_poly, image,
                                    kernel, newton_polygon, rat, rat_str,
                                    subspace_intersect, subspace_sum)
from weightfil.galois import factor_mod_p

from conftest import from_roots, qm, sub


def test_rat_roundtrip():
    assert rat("3") == 3
    assert rat("-3/4") == Fraction(-3, 4)
    assert rat_str(Fraction(5)) == "5"
    assert rat_str(Fraction(-3, 4)) == "-3/4"


def test_kernel_zero_matrix():
    assert kernel(QMatrix.zero(2, 2)) == Subspace.full(2)


def test_kernel_identity():
    assert kernel(QMatrix.identity(3)) == Subspace.zero(3)


def test_kernel_rank_one():
    # independent row reduction: [[1,1],[1,1]] has kernel spanned by (1,-1)
    assert kernel(qm([[1, 1], [1, 1]])) == sub(2, [[1, -1]])


def test_image_identity_and_zero():
    assert image(QMatrix.identity(4)) == Subspace.full(4)
    assert image(QMatrix.zero(3, 3)) == Subspace.zero(3)


def test_image_rank_one():
    assert image(qm([[1, 2], [2, 4]])) == sub(2, [[1, 2]])


def test_sum_intersect_idempotent():
    a = sub(3, [[1, 0, 0], [0, 1, 0]])
    assert subspace_sum(a, a) == a
    assert subspace_intersect(a, a) == a


def test_complementary_lines():
    a = sub(2, [[1, 0]])
    b = sub(2, [[0, 1]])
    assert subspace_sum(a, b) == Subspace.full(2)
    assert subspace_intersect(a, b) == Subspace.zero(2)


def test_plane_intersection():
    a = sub(3, [[1, 0, 0], [0, 1, 0]])
    b = sub(3, [[0, 1, 0], [0, 0, 1]])
    assert subspace_intersect(a, b) == sub(3, [[0, 1, 0]])


def test_ambient_mismatch():
    with pytest.raises(ValueError):
        subspace_sum(sub(2, [[1, 0]]), sub(3, [[1, 0, 0]]))


def test_char_poly_identity():
    assert char_poly(QMatrix.identity(2)) == Polynomial.from_coeffs([1, -2, 1])


def test_char_poly_diagonal():
    q = 5
    assert char_poly(qm([[1, 0], [0, q]])) == \
        from_roots([1, q])


def test_char_poly_companion():
    # companion matrix of x^2 - 3x + 2
    c = qm([[0, -2], [1, 3]])
    assert char_poly(c) == Polynomial.from_coeffs([2, -3, 1])


def test_char_poly_non_square():
    with pytest.raises(PreconditionError):
        char_poly(QMatrix.zero(2, 3))


def test_char_poly_det_trace():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = qm([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        cp = char_poly(m)
        assert cp.degree == n
        assert cp.coeffs[-1] == 1
        assert cp.coeffs[0] == (-1) ** n * m.det()
        assert cp.coeffs[n - 1] == -m.trace()


def test_newton_polygon_two_slopes():
    p = 2
    np_ = newton_polygon(from_roots([1, p]), p)
    assert np_.segments == ((Fraction(0), 1), (Fraction(1), 1))


def test_newton_polygon_unit_roots():
    np_ = newton_polygon(from_roots([1] * 5), 3)
    assert np_.segments == ((Fraction(0), 5),)


def test_newton_polygon_high_slopes():
    p = 3
    np_ = newton_polygon(from_roots([p * p, p]), p)
    assert np_.segments == ((Fraction(1), 1), (Fraction(2), 1))


def test_newton_polygon_zero_constant_term():
    with pytest.raises(PreconditionError):
        newton_polygon(Polynomial.from_coeffs([0, 1]), 2)


def test_newton_polygon_q_units():
    # q = p^2: valuations measured in v_q units
    p = 2
    np_ = newton_polygon(from_roots([4, 2]), p, a=2)
    assert np_.segments == ((Fraction(1, 2), 1), (Fraction(1), 1))


def test_rank_nullity_random():
    rng = random.Random(1)
    for _ in range(50):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = qm([[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)])
        assert kernel(m).dim + image(m).dim == c


def test_canonical_subspace_equality():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 4)
        vecs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        a = Subspace.from_vectors(n, vecs)
        # same span, different generators: scaled and summed
        scaled = [[2 * x for x in v] for v in vecs]
        mixed = scaled + [[x + y for x, y in zip(vecs[0], vecs[-1])]]
        b = Subspace.from_vectors(n, mixed)
        assert a.contains(b) and b.contains(a)
        assert a == b  # representation equality


def test_modular_law_dimensions():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = Subspace.from_vectors(n, [[rng.randint(-2, 2) for _ in range(n)]
                                      for _ in range(rng.randint(0, n))])
        b = Subspace.from_vectors(n, [[rng.randint(-2, 2) for _ in range(n)]
                                      for _ in range(rng.randint(0, n))])
        assert subspace_sum(a, b).dim + subspace_intersect(a, b).dim == a.dim + b.dim


def test_polygon_of_linear_factor_products():
    # oracle: roots u * p^k with unit u give slope multiset {k}
    rng = random.Random(4)
    p = 3
    for _ in range(40):
        ks = sorted(rng.randint(0, 3) for _ in range(rng.randint(1, 5)))
        units = [rng.choice([1, 2, -1, -2, 4]) for _ in ks]
        roots = [u * p ** k for u, k in zip(units, ks)]
        np_ = newton_polygon(from_roots(roots), p)
        got = []
        for s, l in np_.segments:
            got.extend([s] * l)
        assert got == [Fraction(k) for k in ks]


# Oracles: the plain Fraction kernels that the integer kernels replaced.

def oracle_rref(rows):
    """Gauss-Jordan on Fractions; (nonzero RREF rows, pivot columns)."""
    m = [list(map(rat, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def oracle_matmul(a, b):
    ent = []
    for i in range(a.rows):
        for j in range(b.cols):
            s = Fraction(0)
            for k in range(a.cols):
                if a.entry(i, k):
                    s += a.entry(i, k) * b.entry(k, j)
            ent.append(s)
    return QMatrix(a.rows, b.cols, tuple(ent))


def oracle_apply(m, vec):
    return tuple(sum((m.entry(i, k) * rat(vec[k]) for k in range(m.cols)), Fraction(0))
                 for i in range(m.rows))


def _random_entry(rng, den_bits):
    num = rng.randint(-(2 ** den_bits) - 3, 2 ** den_bits + 3)
    x = Fraction(num, rng.randint(1, 2 ** den_bits))
    form = rng.random()
    if x.denominator == 1 and form < 0.3:
        return x.numerator  # ints and strings are coerced like Fractions
    if form < 0.4:
        return rat_str(x)
    return x


def _random_rows(rng, nrows, ncols):
    """Sparse and dense rows with duplicated, combined and all-zero rows."""
    den_bits = rng.choice([0, 0, 2, 8, 40])
    density = rng.choice([0.15, 0.4, 1.0])
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))
        elif len(rows) >= 2 and kind < 0.3:
            u, v = rng.sample(rows, 2)
            c = rng.choice([Fraction(1), Fraction(-2), Fraction(3, 7)])
            rows.append([rat(x) + c * rat(y) for x, y in zip(u, v)])
        elif kind < 0.4:
            rows.append([Fraction(0)] * ncols)
        else:
            rows.append([_random_entry(rng, den_bits) if rng.random() < density else 0
                         for _ in range(ncols)])
    return rows


def test_rref_matches_oracle():
    rng = random.Random(20240601)
    for _ in range(2000):
        rows = _random_rows(rng, rng.randint(0, 10), rng.randint(0, 10))
        got = _rref(rows)
        assert got == oracle_rref(rows), rows
        assert all(type(x) is Fraction for row in got[0] for x in row)


def test_rref_empty_inputs():
    assert _rref([]) == ([], []) == oracle_rref([])
    assert _rref([[]]) == ([], []) == oracle_rref([[]])
    assert _rref([[], []]) == ([], [])


def test_matmul_and_apply_match_oracle():
    rng = random.Random(20240602)
    for _ in range(1500):
        r, k, c = rng.randint(0, 10), rng.randint(0, 10), rng.randint(0, 10)
        a = QMatrix(r, k, tuple(rat(x) for row in _random_rows(rng, r, k) for x in row))
        b = QMatrix(k, c, tuple(rat(x) for row in _random_rows(rng, k, c) for x in row))
        got = a @ b
        assert got == oracle_matmul(a, b)
        assert all(type(x) is Fraction for x in got.entries)
        vec = _random_rows(rng, 1, k)[0]
        got = a.apply(vec)
        assert got == oracle_apply(a, vec)
        assert all(type(x) is Fraction for x in got)


def test_coordinates_match_from_vectors():
    """The span of unit vectors written directly in RREF equals the span
    that elimination finds; seeded index sets, the empty and the full set."""
    rng = random.Random(2024)
    cases = [(0, []), (3, []), (3, [0, 1, 2]), (5, range(5)), (1, [0])]
    for _ in range(300):
        n = rng.randint(0, 9)
        cases.append((n, rng.sample(range(n), rng.randint(0, n))))
    for n, coords in cases:
        units = [[1 if j == c else 0 for j in range(n)] for c in coords]
        got = Subspace.coordinates(n, coords)
        assert got == Subspace.from_vectors(n, units), (n, coords)
        assert got.dim == len(set(coords)) and got.ambient_dim == n


def oracle_extend_basis(inner, outer):
    """The greedy complement one RREF per outer row: keep each row of outer
    that raises the rank of inner's rows and the rows kept so far."""
    rows = [list(r) for r in inner.basis_rows()]
    comp = []
    cur = len(_rref(rows)[0]) if rows else 0
    for r in outer.basis_rows():
        cand = rows + [list(r)]
        if len(_rref(cand)[0]) > cur:
            rows = cand
            comp.append(tuple(r))
            cur += 1
    return comp


def test_extend_basis_matches_greedy_oracle():
    rng = random.Random(20261019)
    cases = [(Subspace.zero(0), Subspace.full(0)), (Subspace.zero(3), Subspace.zero(3)),
             (Subspace.zero(3), Subspace.full(3)), (Subspace.full(3), Subspace.full(3))]
    for _ in range(400):
        n = rng.randint(0, 7)
        outer = Subspace.from_vectors(n, _random_rows(rng, rng.randint(0, n), n))
        rows = outer.basis_rows()
        coeffs = [[rng.randint(-2, 2) for _ in rows] for _ in range(rng.randint(0, len(rows)))]
        inner = Subspace.from_vectors(
            n, [[sum(c * r[j] for c, r in zip(cs, rows)) for j in range(n)] for cs in coeffs])
        cases += [(inner, outer), (outer, outer)]
    for inner, outer in cases:
        comp = extend_basis(inner, outer)
        assert comp == oracle_extend_basis(inner, outer), (inner, outer)
        assert len(comp) == outer.dim - inner.dim
    with pytest.raises(ValueError):
        extend_basis(Subspace.full(2), Subspace.zero(2))


def test_power_takes_k_minus_one_products(monkeypatch):
    m = qm([[1, 2, 0], [0, Fraction(1, 3), -1], [4, 0, 2]])
    oracle = [QMatrix.identity(3)]
    for _ in range(5):
        oracle.append(oracle[-1] @ m)
    calls = []
    matmul = QMatrix.__matmul__
    monkeypatch.setattr(QMatrix, "__matmul__",
                        lambda a, b: calls.append(1) or matmul(a, b))
    for k in range(6):
        calls.clear()
        assert m.power(k) == oracle[k]
        assert len(calls) == max(k - 1, 0)
    with pytest.raises(ValueError):
        m.power(-1)


# Factoring over Q.  The oracle is the sympy route that the in-package
# factoriser replaced; sympy is a test dependency only.

def oracle_factor_rational_poly(poly):
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


def sympy_poly(expr) -> Polynomial:
    coeffs = sympy.Poly(expr, sympy.Symbol("x")).all_coeffs()
    return Polynomial.from_coeffs([Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)])


def power(f: Polynomial, k: int) -> Polynomial:
    out = Polynomial.from_coeffs([1])
    for _ in range(k):
        out = out * f
    return out


rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
random_factors = st.integers(1, 12).flatmap(
    lambda deg: st.lists(rationals, min_size=deg, max_size=deg).flatmap(
        lambda tail: st.builds(lambda lead: tail + [lead], rationals.filter(bool))))
binomials = st.builds(lambda k, c: [c] + [0] * (k - 1) + [1],
                      st.integers(1, 12), st.sampled_from([1, -1, 2, -3]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.one_of(random_factors, binomials), st.integers(1, 3)),
                min_size=1, max_size=4),
       rationals.filter(bool))
def test_factor_matches_sympy_on_products(factors, scale):
    assume(sum((len(f) - 1) * mult for f, mult in factors) <= 36)
    poly = Polynomial.from_coeffs([scale])
    for f, mult in factors:
        poly = poly * power(Polynomial.from_coeffs(f), mult)
    assert factor_rational_poly(poly) == oracle_factor_rational_poly(poly)


X = sympy.Symbol("x")
LC_15015 = 15015 * X ** 3 + X + 1          # 3, 5, 7, 11 and 13 divide the lead
ROOTS_1_TO_13 = sympy.prod([X - i for i in range(1, 14)])  # p | disc for p < 13
HARD = [
    X ** 4 - 10 * X ** 2 + 1,              # irreducible, splits mod every prime
    sympy.minimal_polynomial(sympy.sqrt(2) + sympy.sqrt(3) + sympy.sqrt(5), X),
    2 * X ** 7 + 15 * X ** 4 - 10 * X + 5,  # Eisenstein at 5
    (X ** 2 + 1) ** 3,
    (X - 3) ** 30,
    sympy.Integer(7),
    LC_15015,
    (15015 * X ** 2 - 1) * (X + 2) ** 2,
    ROOTS_1_TO_13,
    sympy.prod([sympy.cyclotomic_poly(n, X) for n in range(1, 13)]),
] + [sympy.cyclotomic_poly(n, X) for n in range(1, 31)]


@pytest.mark.parametrize("expr", HARD, ids=str)
def test_factor_matches_sympy_on_hard_cases(expr):
    poly = sympy_poly(expr)
    assert factor_rational_poly(poly) == oracle_factor_rational_poly(poly)


def test_factor_fixed_answers():
    assert factor_rational_poly(Polynomial.from_coeffs([Fraction(7, 2)])) == []
    assert factor_rational_poly(Polynomial(())) == []
    assert factor_rational_poly(sympy_poly((X - 3) ** 30)) == \
        [(Polynomial.from_coeffs([-3, 1]), 30)]
    assert factor_rational_poly(sympy_poly(3 * (X ** 2 + 1) ** 3)) == \
        [(Polynomial.from_coeffs([1, 0, 1]), 3)]
    for n in range(1, 31):
        phi_n = sympy_poly(sympy.cyclotomic_poly(n, X))
        assert factor_rational_poly(phi_n) == [(phi_n, 1)]


def test_irreducible_polynomials_with_many_modular_factors():
    # both are irreducible over Q but split mod every prime into factors of
    # degree <= 2, so only recombination can find that
    rng = random.Random(0)
    for expr, least in ((X ** 4 - 10 * X ** 2 + 1, 2),
                        (sympy.minimal_polynomial(sympy.sqrt(2) + sympy.sqrt(3)
                                                  + sympy.sqrt(5), X), 4)):
        poly = sympy_poly(expr)
        f = [int(c) for c in poly.coeffs]
        p = _good_prime(f)
        assert len(factor_mod_p(f, p, rng)) >= least
        assert factor_rational_poly(poly) == [(poly, 1)]


def test_prime_search_skips_lead_and_discriminant_primes():
    # 3, 5, 7, 11 and 13 divide the leading coefficient
    assert _good_prime([int(c) for c in sympy_poly(LC_15015).coeffs]) == 17
    # roots 1..13 collide mod every prime below 13
    assert _good_prime([int(c) for c in sympy_poly(ROOTS_1_TO_13).coeffs]) == 13
    # (x - 1)(x - 4) has a double root mod 3, (x - 1)(x - 4)(x - 6) mod 3 and 5
    assert _good_prime([1, 0, 1]) == 3
    assert _good_prime([4, -5, 1]) == 5
    assert _good_prime([-24, 34, -11, 1]) == 7
