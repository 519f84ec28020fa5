import random
from itertools import product

import pytest

from weightfil.arrangements import (_dot, _gysin_betti, _mobius_betti, _normalize,
                                    _trace_arrangement, all_hyperplane_normals,
                                    blowup_poincare, point_count_oracle,
                                    rational_arrangement_poincare)
from weightfil.errors import PreconditionError
from weightfil.galois import GF, PackedSpace, enumerate_subspaces


def gf_span_vectors(gf, basis, n):
    """All vectors in the span of the given basis rows: the span builder
    the building's flag pairs used before packed projective points."""
    span = [(0,) * n]
    add = gf.add_table
    for row in basis:
        multiples = [[gf.mul(c, x) for x in row] for c in range(1, gf.q)]
        span += [tuple(add[a][b] for a, b in zip(v, m))
                 for m in multiples for v in span]
    return sorted(set(span))


def _projective_points(gf, rows):
    """The normalized nonzero vectors of the span of the RREF rows as
    tuples, each once: the generator the Moebius route used before packed
    points.  One leading row plus any combination of the rows below it."""
    add, mul = gf.add_table, gf.mul_table
    points = []
    below = [(0,) * len(rows[0])] if rows else []  # span of the rows below
    for i in range(len(rows) - 1, -1, -1):
        # c row_i + v, v in below: c = 1 gives the points led by row i and
        # all c give span(rows[i:]); lanes[j] is the add-table row of c row_ij
        cs = range(1, gf.q) if i else (1,)
        shifted = [tuple(map(list.__getitem__, lanes, v))
                   for lanes in ([add[mul[c][x]] for x in rows[i]] for c in cs)
                   for v in below]
        points += shifted[:len(below)]
        below += shifted
    return points


def _span_oracle(gf, basis, n):
    """The span as every coefficient tuple applied to the basis rows."""
    out = set()
    for coeffs in product(range(gf.q), repeat=len(basis)):
        v = [0] * n
        for c, row in zip(coeffs, basis):
            if c:
                v = [gf.add(a, gf.mul(c, b)) for a, b in zip(v, row)]
        out.add(tuple(v))
    return sorted(out)


def _hyperplane_basis(gf, normal):
    """Rows spanning ker(normal) in F_q^n."""
    n = len(normal)
    piv = next(i for i in range(n) if normal[i])
    rows = []
    for j in range(n):
        if j == piv:
            continue
        v = [0] * n
        v[j] = 1
        # adjust pivot coordinate so normal . v = 0
        v[piv] = gf.neg(gf.mul(normal[j], gf.inv(normal[piv])))
        rows.append(v)
    return rows


def _trace_oracle(gf, normals, h):
    """The trace on h by an n-term dot product with each basis row of h: the
    kernel _trace_arrangement used before its one-lookup-pair coordinates."""
    basis = _hyperplane_basis(gf, h)
    out = set()
    for lam in normals:
        if lam == h:
            continue
        nv = _normalize(gf, tuple(_dot(gf, lam, row) for row in basis))
        if nv is not None:
            out.add(nv)
    return frozenset(out)


def _quotient_by_one_plus_u(whitney):
    n = len(whitney) - 1
    quot = [0] * n
    quot[n - 1] = whitney[n]
    for c in range(n - 1, 0, -1):
        quot[c - 1] = whitney[c] - quot[c]
    assert whitney[0] == quot[0]
    return tuple(quot)


def _mobius_span_oracle(gf, r):
    """The Moebius route as _mobius_betti ran it before projective points
    and per-value sums: contains[v] over every vector of every span, and
    mu(i) summed over the supersets of i one bit at a time."""
    n = r + 1
    bases = []
    contains = {}
    for k in range(n, -1, -1):
        for rows in enumerate_subspaces(gf, n, k):
            bit = 1 << len(bases)
            bases.append((n - k, rows))
            for v in gf_span_vectors(gf, rows, n):
                contains[v] = contains.get(v, 0) | bit
    mob = [0] * len(bases)
    whitney = [0] * (n + 1)
    for i, (codim, rows) in enumerate(bases):
        sup = (1 << i) - 1
        for x in rows:
            sup &= contains[x]
        s = 0
        while sup:
            j = sup.bit_length() - 1
            s += mob[j]
            sup ^= 1 << j
        mob[i] = 1 if codim == 0 else -s
        whitney[codim] += abs(mob[i])
    return _quotient_by_one_plus_u(whitney)


def _mobius_betti_oracle(q, r):
    """Moebius route by the all-pairs scan: each subspace is the bitmask of
    its vectors, and mu(i) sums mu over every earlier subspace of smaller
    codimension whose mask contains that of i."""
    gf = GF(q)
    n = r + 1
    elements = []  # (codim, mask)
    for k in range(n, -1, -1):
        for rows in enumerate_subspaces(gf, n, k):
            mask = 0
            for v in _span_oracle(gf, rows, n):
                idx = 0
                for c in v:
                    idx = idx * q + c
                mask |= 1 << idx
            elements.append((n - k, mask))
    mob = []
    whitney = [0] * (n + 1)
    for codim, mask in elements:
        s = sum(mob[j] for j, (cj, mj) in enumerate(elements[:len(mob)])
                if cj < codim and (mj & mask) == mask)
        mob.append(1 if codim == 0 else -s)
        whitney[codim] += abs(mob[-1])
    return _quotient_by_one_plus_u(whitney)


def test_line_cases():
    assert rational_arrangement_poincare(1, 2) == (1, 2)
    assert rational_arrangement_poincare(1, 3) == (1, 3)


def test_plane_q2():
    assert rational_arrangement_poincare(2, 2) == (1, 6, 8)


def test_plane_closed_form():
    for q in (2, 3, 4):
        assert rational_arrangement_poincare(2, q) == (1, q * q + q, q ** 3)


def test_methods_agree_r_up_to_3():
    # rational_arrangement_poincare raises CrossCheckError on disagreement,
    # so a clean return certifies gysin == mobius
    for r in (1, 2, 3):
        for q in (2, 3, 4):
            b = rational_arrangement_poincare(r, q)
            assert len(b) == r + 1 and b[0] == 1


def test_mobius_matches_all_pairs_oracle():
    cases = [(r, q) for r in (1, 2, 3) for q in (2, 3, 4)] + [
        (4, 2), (4, 3), (2, 7), (2, 9), (3, 5)]
    for r, q in cases:
        gf = GF(q)
        expected = _mobius_betti_oracle(q, r)
        assert _mobius_betti(gf, r) == expected, (r, q)
        assert _mobius_span_oracle(gf, r) == expected, (r, q)


def test_projective_points_are_the_normalized_span():
    for q in (2, 3, 4, 9):
        gf = GF(q)
        for n in range(1, 5 if q < 9 else 4):
            for k in range(n + 1):
                for rows in enumerate_subspaces(gf, n, k):
                    points = _projective_points(gf, rows)
                    assert len(points) == len(set(points)) == (q ** k - 1) // (q - 1)
                    span = {_normalize(gf, v) for v in gf_span_vectors(gf, rows, n)}
                    span.discard(None)
                    assert set(points) == span, (q, rows)


def test_packed_points_match_tuple_oracle():
    # q = 251 has the widest lanes (9 bits), q = 256 the most lanes per
    # element (8); small n keeps the large fields quick
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 251, 256):
        gf = GF(q)
        for n in range(1, 5 if q < 10 else 3):
            space = PackedSpace(gf, n)
            for k in range(n + 1):
                subs = enumerate_subspaces(gf, n, k)
                for rows in subs if len(subs) < 300 else random.Random(q).sample(subs, 300):
                    packed = space.points(rows)
                    assert [space.unpack(x) for x in packed] == _projective_points(gf, rows)
                    assert all(space.pack(space.unpack(x)) == x for x in packed)


def test_trace_matches_basis_dot_oracle():
    rng = random.Random(22)
    for r, q in ((2, 2), (2, 3), (3, 2), (3, 4), (2, 9)):
        gf = GF(q)
        normals = all_hyperplane_normals(gf, r + 1)
        subs = [frozenset(normals)] + [
            frozenset(rng.sample(normals, rng.randint(1, len(normals)))) for _ in range(5)]
        for sub in subs:
            for h in normals:
                assert _trace_arrangement(gf, sub, h) == _trace_oracle(gf, sub, h), (r, q, h)


def test_arrangement_closed_form():
    # the Moebius values of the subspace lattice are (-1)^k q^(k(k-1)/2)
    # (Orlik-Terao), so the Poincare polynomial is prod_i (1 + q^i t)
    cases = [(r, q) for r in (1, 2, 3) for q in (2, 3, 4)] + [(4, 2), (4, 3), (5, 2)]
    for r, q in cases:
        poly = [1]
        for i in range(1, r + 1):
            poly = [a + q ** i * b for a, b in zip(poly + [0], [0] + poly)]
        assert rational_arrangement_poincare(r, q) == tuple(poly), (r, q)


def test_span_matches_coefficient_oracle():
    rng = random.Random(11)
    for q in (2, 3, 4, 9):
        gf = GF(q)
        for _ in range(25):
            n = rng.randint(1, 4 if q < 9 else 3)
            basis = [[rng.randrange(q) for _ in range(n)]
                     for _ in range(rng.randint(0, 3))]
            assert gf_span_vectors(gf, basis, n) == _span_oracle(gf, basis, n)


def test_hyperplane_count():
    gf = GF(3)
    assert len(all_hyperplane_normals(gf, 3)) == 13  # (q^3-1)/(q-1)
    # the normalized nonzero vectors of F_q^n, each once, in sorted order
    for q, n in ((2, 1), (2, 4), (3, 3), (4, 3), (9, 2)):
        gf = GF(q)
        vectors = {_normalize(gf, v) for v in product(range(q), repeat=n)} - {None}
        assert all_hyperplane_normals(gf, n) == sorted(vectors), (q, n)


def test_point_count_identity_arrangements():
    # #X(F_{q^s}) = sum_m (-1)^m b_m q^(s (r - m)) under maximal-weight purity
    for r, q in ((1, 2), (1, 3), (2, 2), (2, 3)):
        b = rational_arrangement_poincare(r, q)
        for s in (1, 2):
            expected = sum((-1) ** m * c * q ** (s * (r - m))
                           for m, c in enumerate(b))
            assert point_count_oracle(("arrangement_complement", r), q, s) == expected


def test_arrangement_examples():
    assert point_count_oracle(("arrangement_complement", 1), 2, 1) == 0
    assert point_count_oracle(("arrangement_complement", 1), 2, 2) == 2


def test_blowup_small():
    assert blowup_poincare(0, 2) == (1,)
    assert blowup_poincare(1, 2) == (1, 0, 1)
    assert blowup_poincare(2, 2) == (1, 0, 8, 0, 1)
    assert blowup_poincare(2, 3) == (1, 0, 14, 0, 1)


def test_blowup_pattern():
    for q in (2, 3, 4):
        assert blowup_poincare(2, q) == (1, 0, q * q + q + 2, 0, 1)


def test_blowup_point_counts():
    assert point_count_oracle(("iterated_blowup", 2), 2, 1) == 21
    for q in (2, 3):
        b = blowup_poincare(2, q)
        for s in (1, 2, 3):
            val = sum(c * (q ** s) ** (m // 2) for m, c in enumerate(b) if m % 2 == 0)
            assert val == point_count_oracle(("iterated_blowup", 2), q, s)


def test_blowup_rejects_q_not_a_prime_power():
    # no field F_6 exists; the arrangement already refuses q = 6
    for f in (blowup_poincare, rational_arrangement_poincare):
        with pytest.raises(PreconditionError, match="6 is not a prime power"):
            f(2, 6)


def test_blowup_even_degrees_only():
    for r in (0, 1, 2, 3):
        b = blowup_poincare(r, 2)
        assert all(b[m] == 0 for m in range(1, len(b), 2))
        assert b[0] == 1


def test_oracle_spec_validation():
    with pytest.raises(PreconditionError):
        point_count_oracle(("unknown", 2), 2, 1)
    with pytest.raises(PreconditionError):
        point_count_oracle(("iterated_blowup", 2), 2, 0)


def test_gysin_memo_subarrangements():
    # deleting hyperplanes one at a time keeps purity: spot-check a proper
    # sub-arrangement of the line against a direct count
    gf = GF(3)
    normals = all_hyperplane_normals(gf, 2)
    sub = frozenset(list(normals)[:2])   # two points removed from P^1
    betti = _gysin_betti(gf, 1, sub, {})
    assert betti == (1, 1)  # P^1 minus two points is the multiplicative line
