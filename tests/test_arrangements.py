import random
from itertools import product

import pytest

from weightfil.arrangements import (_gysin_betti, _mobius_betti,
                                    all_hyperplane_normals, blowup_poincare,
                                    point_count_oracle,
                                    rational_arrangement_poincare)
from weightfil.errors import PreconditionError
from weightfil.galois import GF, enumerate_subspaces, gf_span_vectors


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
    quot = [0] * n
    quot[n - 1] = whitney[n]
    for c in range(n - 1, 0, -1):
        quot[c - 1] = whitney[c] - quot[c]
    assert whitney[0] == quot[0]
    return tuple(quot)


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
    cases = [(r, q) for r in (1, 2, 3) for q in (2, 3, 4)] + [(4, 2), (4, 3)]
    for r, q in cases:
        assert _mobius_betti(q, r) == _mobius_betti_oracle(q, r), (r, q)


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
