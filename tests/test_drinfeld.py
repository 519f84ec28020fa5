import random
from itertools import combinations
from math import gcd

import pytest

from weightfil.errors import EnumerationBudgetError, PreconditionError
from weightfil.drinfeld import (LatticeClass, SimplexType, _rational_inverse,
                                adjacency_subspace_dim, ball, gaussian_binomial,
                                hnf, simplices_through_vertex, stratum_type,
                                v_n_m, vertex_neighbors)
from weightfil.exact_linalg import QMatrix
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
            h_inv = _rational_inverse(QMatrix.from_rows(h))
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
        s = adjacency_subspace_dim(v0, w, 2)
        counts[s] = counts.get(s, 0) + 1
    assert counts == {1: 7, 2: 7}  # points and lines of the residue plane


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
    with pytest.raises(PreconditionError):
        stratum_type(SimplexType((3,)), 2)
