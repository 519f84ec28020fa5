import random
import sys
from functools import cache, partial
from itertools import product

import pytest

from weightfil import arrangements, galois
from weightfil.arrangements import (_dot, _gysin_betti, _mobius_betti, _normalize,
                                    blowup_poincare, point_count_oracle,
                                    rational_arrangement_poincare)
from weightfil.drinfeld import gaussian_binomial
from weightfil.errors import PreconditionError
from weightfil.galois import GF, PackedSpace, enumerate_subspaces, factor_prime_power


@cache
def _lane_codes(gf):
    """Each packed coordinate of F_q^n -> its element of F_q."""
    space = PackedSpace(gf, 1)
    return {space.pack([x]): x for x in range(gf.q)}


def unpack(space, code):
    """The coordinates of a packed vector: the inverse of space.pack."""
    lanes, mask = _lane_codes(space.gf), (1 << space.width) - 1
    return tuple(lanes[code >> space.width * i & mask] for i in range(space.n))


def all_hyperplane_normals(gf, n):
    """All hyperplanes of P^(n-1) over F_q, as normalized normal vectors:
    the projective points of F_q^n."""
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    space = PackedSpace(gf, n)
    return sorted(map(partial(unpack, space), space.points(identity)))


def _trace_arrangement(gf, normals, h):
    """Restriction of the arrangement to the hyperplane h, as normals in the
    basis e_j + c_j e_piv (j != piv, c_j = -h_j / h_piv, piv the first
    nonzero coordinate) of h: coordinate j of lam is lam_j + lam_piv c_j.
    The tuple kernel the Gysin route used before packed normals."""
    add, mul = gf.add_table, gf.mul_table
    piv = next(i for i, x in enumerate(h) if x)
    inv = gf.inv(h[piv])
    coeffs = [(j, gf.neg_table[mul[x][inv]]) for j, x in enumerate(h) if j != piv]
    out = set()
    for lam in normals:
        if lam == h:
            continue
        row = mul[lam[piv]]
        nv = _normalize(gf, tuple([add[lam[j]][row[c]] for j, c in coeffs]))
        if nv is not None:
            out.add(nv)
    return frozenset(out)


def _gysin_tuple_oracle(gf, r, normals, memo):
    """The Gysin route on tuple normals, deleting the largest tuple first:
    _gysin_betti before packed normals."""
    if r == 0:
        return (1,)
    if len(normals) <= 1:
        return (1,)  # complement of one hyperplane is affine r-space
    key = (r, normals)
    if key in memo:
        return memo[key]
    ordered = sorted(normals)
    h = ordered[-1]
    rest = frozenset(ordered[:-1])
    base = _gysin_tuple_oracle(gf, r, rest, memo)
    trace = _trace_arrangement(gf, rest, h)
    step = _gysin_tuple_oracle(gf, r - 1, trace, memo)
    out = list(base) + [0] * (len(step) + 1 - len(base))
    for m, c in enumerate(step):
        out[m + 1] += c
    result = tuple(out)
    memo[key] = result
    return result


def _mobius_points_oracle(gf, r):
    """The Moebius route with every subspace from enumerate_subspaces and
    its points from PackedSpace.points: _mobius_betti before the layer by
    layer lattice."""
    n = r + 1
    space = PackedSpace(gf, n)
    contains = {}
    by_mu = {}  # mu value -> bitmask of the subspaces with that value
    whitney = [0] * (n + 1)
    bit = 1
    for k in range(n, -1, -1):
        for rows in enumerate_subspaces(gf, n, k):
            sup = bit - 1
            for row in rows:
                sup &= contains.get(space.pack(row), 0)
            mu = 1 if k == n else -sum(m * (sup & mask).bit_count()
                                       for m, mask in by_mu.items())
            by_mu[mu] = by_mu.get(mu, 0) | bit
            whitney[n - k] += abs(mu)
            for x in space.points(rows):
                contains[x] = contains.get(x, 0) | bit
            bit <<= 1
    return _quotient_by_one_plus_u(whitney)


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
        v[piv] = gf.neg_table[gf.mul(normal[j], gf.inv(normal[piv]))]
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
                    assert [unpack(space, x) for x in packed] == _projective_points(gf, rows)
                    assert all(space.pack(unpack(space, x)) == x for x in packed)


def test_trace_matches_basis_dot_oracle():
    # the packed trace (PackedSpace.eliminate, then the projective-point
    # table _gysin_betti builds) and the tuple trace on seeded subsets; for
    # q = 4, 8, 9, 16 scaling is not lane-wise
    rng = random.Random(22)
    for r, q in ((1, 2), (2, 2), (2, 3), (3, 2), (3, 4), (2, 8), (2, 9), (1, 16), (4, 3)):
        gf = GF(q)
        normals = all_hyperplane_normals(gf, r + 1)
        space = PackedSpace(gf, r + 1)
        multiples = space.multiples()
        point = {m: x for x, ms in multiples.items() for m in ms}
        subs = [normals] + [rng.sample(normals, rng.randint(1, len(normals))) for _ in range(5)]
        for sub in subs:
            for h in normals:
                expected = _trace_oracle(gf, sub, h)
                assert _trace_arrangement(gf, frozenset(sub), h) == expected, (r, q, h)
                packed = space.eliminate([space.pack(x) for x in sub if x != h], space.pack(h),
                                         multiples[space.pack(h)])
                # a trace is a normal of F_q^r, packed as its extension by a zero
                assert {unpack(space, point[x]) for x in packed} == {
                    x + (0,) for x in expected}, (r, q, h)


def test_gysin_matches_tuple_oracle_on_subarrangements():
    rng = random.Random(27)
    for r, q in ((1, 3), (2, 2), (2, 3), (2, 4), (3, 2), (2, 9), (3, 3)):
        gf = GF(q)
        normals = all_hyperplane_normals(gf, r + 1)
        space = PackedSpace(gf, r + 1)
        for _ in range(6):
            sub = rng.sample(normals, rng.randint(1, len(normals)))
            assert (_gysin_betti(gf, r, [space.pack(x) for x in sub])
                    == _gysin_tuple_oracle(gf, r, frozenset(sub), {})), (r, q, sub)


def _lattice_size(r, q):
    return sum(gaussian_binomial(r + 1, k, q) for k in range(r + 2))


def test_routes_match_tuple_oracles():
    # every (r, q) whose lattice has at most 3,000 subspaces: r = 1 for
    # every field up to GF_MAX_Q, and the q = 4, 8, 9, 16 whose scaling is
    # not lane-wise
    cases = [(r, q) for r in range(1, 6) for q in range(2, galois.GF_MAX_Q + 1)
             if _lattice_size(r, q) <= 3000 and _prime_power(q)]
    assert {(1, 256), (2, 16), (3, 4), (2, 8), (2, 9), (4, 3), (5, 2)} <= set(cases)
    limit = sys.getrecursionlimit()
    for r, q in cases:
        gf = GF(q)
        # the packed routes under the default recursion limit: r = 2 over
        # F_37 deletes 1,407 hyperplanes, but the stack grows with r only
        routes = (_gysin_betti(gf, r), _mobius_betti(gf, r))
        normals = frozenset(all_hyperplane_normals(gf, r + 1))
        sys.setrecursionlimit(10_000)  # the tuple recursion is as deep as there are normals
        try:
            assert routes == (_gysin_tuple_oracle(gf, r, normals, {}),
                              _mobius_points_oracle(gf, r)), (r, q)
        finally:
            sys.setrecursionlimit(limit)


def _prime_power(q):
    try:
        factor_prime_power(q)
    except PreconditionError:
        return False
    return True


def test_routes_make_no_tuple_calls(monkeypatch):
    calls = []

    def counted(real):
        return lambda *args: calls.append(real.__name__) or real(*args)

    monkeypatch.setattr(galois, "enumerate_subspaces", counted(galois.enumerate_subspaces))
    # also under the name arrangements would import it by
    monkeypatch.setattr(arrangements, "enumerate_subspaces", galois.enumerate_subspaces,
                        raising=False)
    monkeypatch.setattr(arrangements, "_normalize", counted(arrangements._normalize))
    for r, q in ((2, 3), (3, 4), (4, 2)):
        gf = GF(q)
        _mobius_betti(gf, r)
        _gysin_betti(gf, r)
    assert calls == []


def test_each_route_runs_once_per_report(monkeypatch):
    calls = []
    for name in ("_gysin_betti", "_mobius_betti"):
        real = getattr(arrangements, name)
        monkeypatch.setattr(arrangements, name,
                            lambda *args, real=real: calls.append(real.__name__) or real(*args))
    assert rational_arrangement_poincare(3, 3) == (1, 39, 351, 729)
    assert sorted(calls) == ["_gysin_betti", "_mobius_betti"]


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
    assert len(PackedSpace(gf, 3).multiples()) == 13  # (q^3-1)/(q-1)
    # the normalized nonzero vectors of F_q^n, each once, and their multiples
    for q, n in ((2, 1), (2, 4), (3, 3), (4, 3), (9, 2), (16, 2)):
        gf = GF(q)
        space = PackedSpace(gf, n)
        multiples = space.multiples()
        vectors = {_normalize(gf, v) for v in product(range(q), repeat=n)} - {None}
        assert sorted(map(partial(unpack, space), multiples)) == sorted(vectors) == \
            all_hyperplane_normals(gf, n), (q, n)
        for x, ms in multiples.items():
            assert [unpack(space, m) for m in ms] == [
                tuple(gf.mul(c, a) for a in unpack(space, x)) for c in range(1, q)], (q, x)


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
    sub = list(normals)[:2]   # two points removed from P^1
    betti = _gysin_betti(gf, 1, [PackedSpace(gf, 2).pack(x) for x in sub])
    assert betti == (1, 1)  # P^1 minus two points is the multiplicative line
