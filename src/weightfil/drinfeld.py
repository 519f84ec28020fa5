"""Bruhat-Tits building combinatorics for PGL_{d+1} over a p-adic field,
in the lattice-class model.

A vertex is a homothety class of rank-(d+1) lattices; its canonical
representative is the unique primitive integral lattice in the class
(contained in Z^(d+1), not contained in p Z^(d+1)), stored as the Hermite
normal form of a basis matrix.  Two vertices are adjacent iff they have
representatives L' with p L < L' < L; the neighbors of a vertex therefore
correspond to the nonzero proper F_p-subspaces W of L / pL, each one the
triangular product of a lift of W and the HNF, reduced above its pivots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EnumerationBudgetError, PreconditionError
from .galois import GF, PackedSpace, enumerate_subspaces, factor_prime_power, is_prime


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if not (0 <= k <= n):
        raise PreconditionError("need 0 <= k <= n")
    if q < 2:
        raise PreconditionError("need q >= 2")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def hnf(rows: list) -> tuple:
    """Row-style Hermite normal form of a nonsingular integer matrix:
    upper triangular, positive pivots, entries above a pivot reduced into
    [0, pivot).  Unique per row lattice."""
    m = [list(map(int, r)) for r in rows]
    n = len(m[0])
    # integer row echelon by gcd elimination
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            while m[i][c]:
                if abs(m[i][c]) < abs(m[r][c]):
                    m[r], m[i] = m[i], m[r]
                f = m[i][c] // m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        r += 1
    m = m[:r]
    if len(m) != n:
        raise PreconditionError("matrix rows do not span a full lattice")
    return _reduce_above_pivots(m)


def _reduce_above_pivots(m: list) -> tuple:
    """HNF of the upper triangular m with a positive diagonal: reduce above
    each pivot into [0, pivot), left to right.  Row i is zero left of its
    pivot (column i), so it leaves the columns already reduced alone."""
    for i, row in enumerate(m):
        piv = row[i]
        for k in range(i):
            f = m[k][i] // piv
            if f:
                m[k] = [a - f * b for a, b in zip(m[k], row)]
    return tuple(map(tuple, m))


@dataclass(frozen=True)
class LatticeClass:
    """Homothety class of lattices; `rep` is the HNF basis of the primitive
    integral representative.  det(rep) = p^m with m >= 0; the identity
    matrix represents the base vertex."""

    rep: tuple
    p: int

    @staticmethod
    def from_rows(rows, p: int) -> "LatticeClass":
        mat = hnf(rows)
        # an HNF divided by p is still an HNF
        while all(x % p == 0 for row in mat for x in row):
            mat = tuple(tuple(x // p for x in row) for row in mat)
        return LatticeClass(mat, p)

    @staticmethod
    def base(d: int, p: int) -> "LatticeClass":
        return LatticeClass(tuple(tuple(1 if i == j else 0 for j in range(d + 1))
                                  for i in range(d + 1)), p)

    @property
    def dim(self) -> int:
        return len(self.rep)

    def sort_key(self) -> tuple:
        return self.rep


def _subspace_lifts(gf: GF, n: int) -> tuple:
    """The nonzero proper subspaces W of F_p^n as RREF bases, by increasing
    dimension, and for each one a square integer basis M_W of
    {x in Z^n : x mod p in W}: the rows of W plus p e_j for each non-pivot
    column j.  Sorted by leading column, M_W is upper triangular with 1 or p
    on the diagonal; row j is stored as that entry and the nonzero (column,
    entry) pairs right of it.  The neighbour of rowspace(B) is rowspace(M_W B)."""
    p = gf.p
    subs = [rows for s in range(1, n) for rows in enumerate_subspaces(gf, n, s)]
    lifts = []
    for sub_rows in subs:
        lead = {r.index(1): r for r in sub_rows}
        lifts.append([(1, [(i, c) for i, c in enumerate(lead[j]) if c and i > j])
                      if j in lead else (p, []) for j in range(n)])
    return subs, lifts


def _neighbors(v: LatticeClass, p: int, lifts: list) -> list:
    """The neighbours of v in lift order: entry a comes from lifts[a].  Like
    the HNF v.rep, M_W v.rep is upper triangular with a positive diagonal,
    so reducing above its pivots gives its HNF, and dividing by p keeps it."""
    rep = v.rep
    out = []
    for m in lifts:
        mat = []
        for row, (c, terms) in zip(rep, m):
            row = [c * x for x in row]
            for i, c in terms:
                row = [a + c * x for a, x in zip(row, rep[i])]
            mat.append(row)
        mat = _reduce_above_pivots(mat)
        while all(x % p == 0 for row in mat for x in row):
            mat = tuple(tuple(x // p for x in row) for row in mat)
        out.append(LatticeClass(mat, p))
    return out


def vertex_neighbors(v: LatticeClass, p: int, d: int) -> list:
    """All classes adjacent to v: one per nonzero proper subspace of the
    reduction of its representative mod p, in canonical form."""
    return sorted(_neighbors(v, p, _subspace_lifts(GF(p), d + 1)[1]),
                  key=LatticeClass.sort_key)


def _flag_pairs(gf: GF, subs: list, n: int) -> list:
    """The pairs (a, b) with subs[a] a proper subspace of subs[b] in F_p^n:
    every RREF row of subs[a] is a projective point of subs[b]."""
    space = PackedSpace(gf, n)
    points = [set(space.points(sub)) for sub in subs]
    return [(a, b) for b, pts in enumerate(points) for a, sub in enumerate(subs)
            if len(sub) < len(subs[b]) and all(space.pack(r) in pts for r in sub)]


@dataclass
class BuildingBall:
    """Ball of given radius around a center vertex: vertices, graph
    distances from the center, and the edges inside the ball.
    edge_dim[i][j], for each neighbour j of vertex i inside the ball, is the
    dimension s (1 <= s <= d) of the subspace of the reduction of vertex
    i's lattice that j corresponds to; edge_dim[j][i] is d + 1 - s."""

    center: LatticeClass
    radius: int
    p: int
    d: int
    vertices: list
    distance: dict          # vertex index -> distance from center
    edge_dim: list          # vertex index -> {neighbour index: s}

    @property
    def adjacency(self) -> set:
        """The edges, as frozensets {i, j} of vertex indices."""
        return {frozenset((i, j)) for i, nb in enumerate(self.edge_dim)
                for j in nb if i < j}


def ball(center: LatticeClass, n: int, p: int, d: int,
         budget: int = 100_000) -> BuildingBall:
    if d < 1:
        raise PreconditionError(f"d must be >= 1 (the building of PGL_(d+1)), got {d}")
    if n < 0:
        raise PreconditionError("radius must be >= 0")
    if not is_prime(p):
        # the neighbour enumeration reads GF(p) element codes as integers mod p
        raise PreconditionError(f"p must be a prime, got {p}")
    # the link of the centre is enumerated whatever the radius: it and the
    # centre must fit the budget before GF(p) and the lifts are built
    if 1 + sum(gaussian_binomial(d + 1, s, p) for s in range(1, d + 1)) > budget:
        raise EnumerationBudgetError(f"ball exceeds budget of {budget} vertices")
    gf = GF(p)
    subs, lifts = _subspace_lifts(gf, d + 1)
    dist = {center.rep: 0}
    nbrs = {}   # rep -> neighbours in lift order, for every vertex inside radius n
    order = [center]
    frontier = [center]
    for r in range(1, n + 1):
        nxt = []
        for v in frontier:
            nbrs[v.rep] = _neighbors(v, p, lifts)
            for w in nbrs[v.rep]:
                if w.rep not in dist:
                    dist[w.rep] = r
                    order.append(w)
                    nxt.append(w)
                    if len(order) > budget:
                        raise EnumerationBudgetError(
                            f"ball exceeds budget of {budget} vertices")
        frontier = nxt
    # canonical vertex order: by distance then representative
    order.sort(key=lambda v: (dist[v.rep], v.sort_key()))
    index = {v.rep: i for i, v in enumerate(order)}
    # Every edge with an end inside radius n is in that end's neighbour list.
    # Two adjacent radius-n vertices x, y have a common neighbour u at radius
    # n - 1, so the edge joins the neighbours of u for two nested subspaces:
    # the link of u is the flag complex of F_p^(d+1).  Why u exists: the
    # centre o and the edge lie in one apartment, whose vertices are integer
    # vectors mod (1, ..., 1), with o = 0, distance to o = max - min, and
    # y = x + e for a 0/1 vector e.  Let A and B be the coordinates where x
    # is least and greatest.  If e meets B, then A lies in e (else y is at
    # n + 1) and u = x + 1_A; otherwise e misses part of A (else y is at
    # n - 1) and u = x - 1_B.
    dims = [len(rows) for rows in subs]
    flags = _flag_pairs(gf, subs, d + 1)
    edge_dim = [{} for _ in order]

    def join(i, j, s):
        edge_dim[i][j] = s
        edge_dim[j][i] = d + 1 - s

    for rep, ws in nbrs.items():
        i = index[rep]
        ids = [index[w.rep] for w in ws]
        for j, s in zip(ids, dims):
            join(i, j, s)
        if dist[rep] == n - 1:
            for a, b in flags:
                join(ids[a], ids[b], dims[b] - dims[a])
    return BuildingBall(center, n, p, d, order,
                        {index[rep]: r for rep, r in dist.items()}, edge_dim)


def v_n_m(b: BuildingBall, n: int, m: int) -> list:
    """V_n plus the radius-(n+1) vertices adjacent to some vertex of V_n
    through a subspace of dimension at most m.  The case m = d returns all
    of V_{n+1}."""
    if not (1 <= m <= b.d):
        raise PreconditionError("need 1 <= m <= d")
    if b.radius < n + 1:
        raise PreconditionError("ball radius must be at least n + 1")
    chosen = [v for i, v in enumerate(b.vertices) if b.distance[i] <= n]
    chosen += [v for i, v in enumerate(b.vertices) if b.distance[i] == n + 1
               and any(b.distance[j] <= n and b.edge_dim[j][i] <= m
                       for j in b.edge_dim[i])]
    return sorted(chosen, key=LatticeClass.sort_key)


def simplices_through_vertex(d: int, q: int, i: int) -> int:
    """Number of (i-1)-simplices of the building containing a fixed vertex:
    flags of i-1 proper nonzero subspaces of F_q^(d+1)."""
    if not (1 <= i <= d + 1):
        raise PreconditionError("need 1 <= i <= d + 1")
    factor_prime_power(q)  # F_q must exist
    # w[m]: flags of k subspaces whose smallest has dimension m, for k = 0 (the
    # whole space F_q^(d+1) alone) up to i - 1
    w = [0] * (d + 1) + [1]
    for _ in range(i - 1):
        w = [0] + [sum(w[m] * gaussian_binomial(m, s, q) for m in range(s + 1, d + 2))
                   for s in range(1, d + 1)] + [0]
    return sum(w)


@dataclass(frozen=True)
class SimplexType:
    """Flag signature 0 < d_1 < ... < d_{i-1} < d+1 of a building simplex."""

    flag_signature: tuple


def stratum_type(sig: SimplexType, d: int) -> list:
    """Dimensions of the product factors of the stratum attached to a
    simplex type: the successive gaps of the flag signature, each minus 1."""
    cuts = [0] + list(sig.flag_signature) + [d + 1]
    if cuts != sorted(set(cuts)):
        raise PreconditionError("signature must be strictly increasing in (0, d+1)")
    return [b - a - 1 for a, b in zip(cuts, cuts[1:])]
