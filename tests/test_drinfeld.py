import random
from itertools import combinations
from fractions import Fraction
from math import gcd

import pytest

from weightfil import drinfeld
from weightfil.errors import EnumerationBudgetError, PreconditionError
from weightfil.drinfeld import (LatticeClass, SimplexType, _neighbors, _subspace_lifts,
                                ball, gaussian_binomial, hnf, simplices_through_vertex,
                                stratum_type, v_n_m, vertex_neighbors)
from weightfil.exact_linalg import QMatrix, inverse
from weightfil.galois import GF, enumerate_subspaces


def _is_hnf(m) -> bool:
    """Upper triangular, positive pivots, entries above a pivot in [0, pivot)."""
    n = len(m)
    return all(m[i][j] == 0 for i in range(n) for j in range(i)) and all(
        m[i][i] > 0 and all(0 <= m[k][i] < m[i][i] for k in range(i))
        for i in range(n))


def _vertex_neighbors_oracle(v, p, d):
    """The two-HNF neighbour route: stack the lifts of the subspace rows,
    combined through v's basis, on p times that basis; reduce the
    (s + n) x n rows, divide by p while possible, and reduce again."""
    n = d + 1
    gf = GF(p)
    basis = [list(r) for r in v.rep]
    out = {}
    for s in range(1, n):
        for sub_rows in enumerate_subspaces(gf, n, s):
            rows = []
            for w in sub_rows:
                vec = [0] * n
                for c, b in zip(w, basis):
                    if c:
                        vec = [a + c * x for a, x in zip(vec, b)]
                rows.append(vec)
            rows.extend([p * x for x in b] for b in basis)
            mat = hnf(rows)
            while all(x % p == 0 for row in mat for x in row):
                mat = tuple(tuple(x // p for x in row) for row in mat)
            lc = LatticeClass(hnf(mat), p)
            out[lc.rep] = lc
    return sorted(out.values(), key=LatticeClass.sort_key)


def neighbors_in_ball(b, i):
    """The indices of the neighbours of vertex i inside the ball b."""
    return sorted(b.edge_dim[i])


def _neighbors_product_oracle(v, p, d):
    """The neighbour route before triangular lifts: the full integer product
    of each lift basis (the rows of W plus p e_j per non-pivot column j)
    with v's basis, reduced by a general HNF and divided by p, in lift
    order."""
    n = d + 1
    out = []
    for s in range(1, n):
        for sub_rows in enumerate_subspaces(GF(p), n, s):
            pivots = {r.index(1) for r in sub_rows}
            lift = [list(r) for r in sub_rows] + [[p if i == j else 0 for i in range(n)]
                                                  for j in range(n) if j not in pivots]
            out.append(LatticeClass.from_rows(
                [[sum(a * b for a, b in zip(w, c)) for c in zip(*v.rep)] for w in lift], p))
    return out


def oracle_ball_adjacency(center, n, p, d):
    """The ball by full neighbour enumeration: a BFS to radius n, then every
    neighbour of every vertex, kept when it lies inside the ball.  Returns
    (vertices, distance, adjacency) as `ball` does."""
    dist = {center.rep: 0}
    found = [center]
    frontier = [center]
    for r in range(1, n + 1):
        nxt = []
        for v in frontier:
            for w in vertex_neighbors(v, p, d):
                if w.rep not in dist:
                    dist[w.rep] = r
                    found.append(w)
                    nxt.append(w)
        frontier = nxt
    found.sort(key=lambda v: (dist[v.rep], v.sort_key()))
    index = {v.rep: i for i, v in enumerate(found)}
    adjacency = set()
    for i, v in enumerate(found):
        for w in vertex_neighbors(v, p, d):
            j = index.get(w.rep)
            if j is not None:
                adjacency.add(frozenset((i, j)))
    return found, {index[rep]: r for rep, r in dist.items()}, adjacency


def oracle_adjacency_subspace_dim(w, v, p):
    """For adjacent classes, the dimension s of the subspace of the
    reduction of w's lattice that v corresponds to (1 <= s <= d);
    None if the classes are not adjacent."""
    n = w.dim
    a = QMatrix.from_rows([list(r) for r in w.rep])
    b = QMatrix.from_rows([list(r) for r in v.rep])
    # coordinates of v's basis in w's basis
    coeff = []
    ainv_rows = inverse(a)
    for i in range(n):
        row = b.row(i)
        coeff.append([sum((row[k] * ainv_rows.entry(k, j) for k in range(n)),
                          Fraction(0)) for j in range(n)])
    # scale by the p-power making the coordinates integral and primitive
    t = 0
    while True:
        scaled = [[x * p ** t for x in r] for r in coeff]
        if all(x.denominator == 1 for r in scaled for x in r):
            break
        t += 1
    ints = [[int(x) for x in r] for r in scaled]
    while all(x % p == 0 for r in ints for x in r):
        ints = [[x // p for x in r] for r in ints]
    det = QMatrix.from_rows(ints).det()
    v_det = 0
    det = abs(int(det))
    if det == 0:
        return None
    while det % p == 0:
        det //= p
        v_det += 1
    if det != 1 or not (1 <= n - v_det <= n - 1):
        return None
    # nested reps: index p^(n - s) means subspace dimension s
    return n - v_det


def test_gaussian_binomial_values():
    assert gaussian_binomial(3, 0, 2) == 1
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 3) == 130


def test_gaussian_binomial_symmetry():
    for n in range(1, 6):
        for k in range(0, n + 1):
            for q in (2, 3, 4):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)


def test_gaussian_binomial_range():
    with pytest.raises(PreconditionError):
        gaussian_binomial(2, 3, 2)


def test_hnf_canonical():
    a = hnf([[2, 1], [0, 1]])
    b = hnf([[2, 0], [0, 1], [2, 1]][:2])
    assert a == hnf(list(a))
    assert hnf([[1, 0], [0, 1]]) == ((1, 0), (0, 1))


def test_hnf_random_canonical_and_same_lattice():
    rng = random.Random(20)
    for n in (2, 3, 4, 5):
        for _ in range(150):
            rows = [[rng.randint(-6, 6) for _ in range(n)]
                    for _ in range(n + rng.randint(0, 2))]
            # the index of the row lattice is the gcd of the maximal minors
            index = 0
            for sub in combinations(rows, n):
                index = gcd(index, int(QMatrix.from_rows(list(sub)).det()))
            if index == 0:
                continue
            h = hnf(rows)
            assert _is_hnf(h), (rows, h)
            assert hnf(list(h)) == h
            # same lattice: the input lies in the lattice of h, of equal index
            h_inv = inverse(QMatrix.from_rows(h))
            assert all(x.denominator == 1
                       for x in (QMatrix.from_rows(rows) @ h_inv).entries)
            assert QMatrix.from_rows(h).det() == index


def test_lattice_class_canonical_per_homothety():
    p = 2
    v = LatticeClass.from_rows([[2, 0], [0, 2]], p)
    assert v == LatticeClass.base(1, p)
    w = LatticeClass.from_rows([[4, 0], [0, 2]], p)
    assert w == LatticeClass.from_rows([[2, 0], [0, 1]], p)


def test_neighbor_counts():
    assert len(vertex_neighbors(LatticeClass.base(1, 2), 2, 1)) == 3
    assert len(vertex_neighbors(LatticeClass.base(1, 3), 3, 1)) == 4
    assert len(vertex_neighbors(LatticeClass.base(2, 2), 2, 2)) == 14


def test_neighbor_count_formula():
    for d, p in ((1, 2), (1, 3), (2, 2), (2, 3)):
        expected = sum(gaussian_binomial(d + 1, s, p) for s in range(1, d + 1))
        assert len(vertex_neighbors(LatticeClass.base(d, p), p, d)) == expected


def test_neighbors_match_two_hnf_oracle():
    rng = random.Random(9)
    for d, p, radius, picks in ((1, 3, 3, 8), (2, 2, 2, 6), (3, 2, 1, 4)):
        b = ball(LatticeClass.base(d, p), radius, p, d)
        for v in rng.sample(b.vertices, picks):
            assert vertex_neighbors(v, p, d) == _vertex_neighbors_oracle(v, p, d)


@pytest.mark.parametrize("d,p,n", [(1, 2, 4), (1, 3, 3), (1, 7, 2), (2, 2, 2),
                                   (2, 3, 1), (3, 2, 1), (2, 5, 1)])
def test_triangular_neighbors_match_product_oracle(d, p, n):
    lifts = _subspace_lifts(GF(p), d + 1)[1]
    for v in ball(LatticeClass.base(d, p), n, p, d).vertices:
        assert _neighbors(v, p, lifts) == _neighbors_product_oracle(v, p, d), v


def test_ball_d3_reps_canonical_and_distinct():
    # a non-canonical hnf listed two classes of this ball twice (1,918
    # vertices, 15,704 edges)
    b = ball(LatticeClass.base(3, 2), 2, 2, 3)
    assert len(b.vertices) == 1916
    assert len(b.adjacency) == 15670
    reps = [v.rep for v in b.vertices]
    assert len(set(reps)) == len(reps)
    assert all(_is_hnf(r) and any(x % 2 for row in r for x in row) for r in reps)


def test_ball_counts():
    assert len(ball(LatticeClass.base(1, 2), 2, 2, 1).vertices) == 10
    assert len(ball(LatticeClass.base(1, 3), 2, 3, 1).vertices) == 17
    assert len(ball(LatticeClass.base(2, 2), 0, 2, 2).vertices) == 1


def test_ball_tree_growth():
    for p in (2, 3):
        for n in (1, 2, 3):
            b = ball(LatticeClass.base(1, p), n, p, 1)
            assert len(b.vertices) == 1 + (p + 1) * (p ** n - 1) // (p - 1)


def test_ball_adjacency_symmetric_and_bounded():
    b = ball(LatticeClass.base(1, 2), 3, 2, 1)
    for e in b.adjacency:
        assert len(e) == 2
    for i, dist in b.distance.items():
        assert dist <= 3


def test_ball_budget_guard():
    with pytest.raises(EnumerationBudgetError):
        ball(LatticeClass.base(1, 3), 5, 3, 1, budget=20)
    # the centre and its 26 neighbours over F_3^3 are counted before the
    # link is enumerated, whatever the radius
    for n in (0, 1):
        with pytest.raises(EnumerationBudgetError, match="budget of 26 vertices"):
            ball(LatticeClass.base(2, 3), n, 3, 2, budget=26)
        assert len(ball(LatticeClass.base(2, 3), n, 3, 2, budget=27).vertices) == 1 + 26 * n


def test_neighbor_homogeneity_random_vertices():
    rng = random.Random(8)
    b = ball(LatticeClass.base(2, 2), 1, 2, 2)
    expected = 14
    picks = rng.sample(b.vertices, 5)
    for v in picks:
        assert len(vertex_neighbors(v, 2, 2)) == expected
    b1 = ball(LatticeClass.base(1, 3), 3, 3, 1)
    for v in rng.sample(b1.vertices, 8):
        assert len(vertex_neighbors(v, 3, 1)) == 4


def test_adjacency_subspace_dims():
    v0 = LatticeClass.base(2, 2)
    counts = {}
    for w in vertex_neighbors(v0, 2, 2):
        s = oracle_adjacency_subspace_dim(v0, w, 2)
        counts[s] = counts.get(s, 0) + 1
    assert counts == {1: 7, 2: 7}  # points and lines of the residue plane


BALL_CASES = ([(1, p, n) for p in (2, 3, 5) for n in range(5)]
              + [(2, p, n) for p in (2, 3) for n in range(4)]
              + [(3, 2, n) for n in range(3)])


@pytest.mark.parametrize("d,p,n", BALL_CASES)
def test_ball_matches_oracle_adjacency(d, p, n):
    b = ball(LatticeClass.base(d, p), n, p, d)
    vertices, distance, adjacency = oracle_ball_adjacency(LatticeClass.base(d, p), n, p, d)
    assert b.vertices == vertices
    assert b.distance == distance
    assert b.adjacency == adjacency
    nbrs = {i: [] for i in range(len(vertices))}
    for i, j in map(tuple, adjacency):
        nbrs[i].append(j)
        nbrs[j].append(i)
    assert all(neighbors_in_ball(b, i) == sorted(js) for i, js in nbrs.items())


def test_ball_computes_neighbours_inside_radius_only(monkeypatch):
    # 66 vertices inside radius 2, 65 lifts each, one reduction per lift;
    # the full-neighbour pass makes 124,540
    calls = []
    real = drinfeld._reduce_above_pivots

    def counted(rows):
        calls.append(1)
        return real(rows)

    monkeypatch.setattr(drinfeld, "_reduce_above_pivots", counted)
    b = ball(LatticeClass.base(3, 2), 2, 2, 3)
    assert len(b.vertices) == 1916
    assert len(calls) <= 66 * 65


@pytest.mark.parametrize("d,p,n", [(1, 2, 2), (2, 2, 2), (3, 2, 1)])
def test_ball_edge_dims_match_oracle(d, p, n):
    b = ball(LatticeClass.base(d, p), n, p, d)
    checked = 0
    for i, nb in enumerate(b.edge_dim):
        for j, s in nb.items():
            assert s == oracle_adjacency_subspace_dim(b.vertices[i], b.vertices[j], p)
            assert b.edge_dim[j][i] == d + 1 - s
            checked += 1
    assert checked == 2 * len(b.adjacency)
    # V_n^m read off the stored dimensions, against the recomputed ones
    for r in range(n):
        for m in range(1, d + 1):
            want = [v for i, v in enumerate(b.vertices) if b.distance[i] <= r]
            want += [v for i, v in enumerate(b.vertices) if b.distance[i] == r + 1
                     and any(b.distance[j] <= r and oracle_adjacency_subspace_dim(
                         b.vertices[j], v, p) <= m for j in neighbors_in_ball(b, i))]
            assert v_n_m(b, r, m) == sorted(want, key=LatticeClass.sort_key)


def test_v_n_m_top_is_next_ball():
    b = ball(LatticeClass.base(1, 2), 2, 2, 1)
    got = v_n_m(b, 1, 1)  # m = d = 1
    want = sorted((v for i, v in enumerate(b.vertices) if b.distance[i] <= 2),
                  key=LatticeClass.sort_key)
    assert got == want


def test_v_n_m_point_type():
    b = ball(LatticeClass.base(2, 2), 1, 2, 2)
    got = v_n_m(b, 0, 1)
    assert len(got) == 1 + 7


def test_v_n_m_radius_guard():
    b = ball(LatticeClass.base(1, 2), 1, 2, 1)
    with pytest.raises(PreconditionError):
        v_n_m(b, 1, 1)


def test_simplices_through_vertex():
    assert simplices_through_vertex(2, 2, 1) == 1
    assert simplices_through_vertex(2, 2, 2) == 14
    assert simplices_through_vertex(2, 2, 3) == 21
    assert simplices_through_vertex(1, 3, 2) == 4


def oracle_simplices_through_vertex(d, q, i):
    """The product of Gaussian binomials along every flag signature."""
    total = 0
    for sig in combinations(range(1, d + 1), i - 1):
        cnt = 1
        prev = d + 1
        for dim in reversed(sig):
            cnt *= gaussian_binomial(prev, dim, q)
            prev = dim
        total += cnt
    return total


def test_simplices_through_vertex_matches_oracle():
    for d in range(0, 9):
        for q in (2, 3, 4):
            for i in range(1, d + 2):
                expected = oracle_simplices_through_vertex(d, q, i)
                assert simplices_through_vertex(d, q, i) == expected, (d, q, i)


def test_simplices_through_vertex_complete_flags(monkeypatch):
    # complete flags of F_2^41 number prod_(k=1..41) [k]_2, with [k]_2 = 2^k - 1
    expected = 1
    for k in range(1, 42):
        expected *= 2 ** k - 1
    assert simplices_through_vertex(40, 2, 41) == expected
    # the walk over flag signatures makes C(40, 19) * 19 calls at i = 20
    budget, calls = 20 * 42 ** 2, []
    real = drinfeld.gaussian_binomial

    def budgeted(*args):
        calls.append(args)
        if len(calls) > budget:
            raise AssertionError(f"more than {budget} gaussian_binomial calls")
        return real(*args)

    monkeypatch.setattr(drinfeld, "gaussian_binomial", budgeted)
    assert simplices_through_vertex(40, 2, 20) > 0
    assert 0 < len(calls) <= budget


def test_simplices_range():
    with pytest.raises(PreconditionError):
        simplices_through_vertex(2, 2, 4)
    with pytest.raises(PreconditionError, match="6 is not a prime power"):
        simplices_through_vertex(2, 6, 2)


def test_stratum_type():
    assert stratum_type(SimplexType(()), 2) == [2]
    assert stratum_type(SimplexType((1, 2)), 2) == [0, 0, 0]
    assert stratum_type(SimplexType((1,)), 2) == [0, 1]
    assert stratum_type(SimplexType((2,)), 4) == [1, 2]


def test_stratum_type_validation():
    for sig in ((3,), (0,), (2, 1), (1, 1)):
        with pytest.raises(PreconditionError, match="strictly increasing in"):
            stratum_type(SimplexType(sig), 2)
