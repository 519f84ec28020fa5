"""Bruhat-Tits building combinatorics for PGL_{d+1} over a p-adic field,
in the lattice-class model.

A vertex is a homothety class of rank-(d+1) lattices; its canonical
representative is the unique primitive integral lattice in the class
(contained in Z^(d+1), not contained in p Z^(d+1)), stored as the Hermite
normal form of a basis matrix.  Two vertices are adjacent iff they have
representatives L' with p L < L' < L; the neighbors of a vertex therefore
correspond to the nonzero proper F_p-subspaces of L / pL.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import EnumerationBudgetError, PreconditionError
from .exact_linalg import QMatrix, inverse
from .galois import GF, enumerate_subspaces, factor_prime_power


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
    # reduce entries above the pivots, left to right: row i is zero left of
    # its pivot (column i), so it leaves the columns already reduced alone
    for i in range(n):
        for k in range(i):
            f = m[k][i] // m[i][i]
            if f:
                m[k] = [a - f * b for a, b in zip(m[k], m[i])]
    return tuple(tuple(row) for row in m)


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


def _subspace_lifts(p: int, n: int) -> list:
    """One square integer basis M_W of {x in Z^n : x mod p in W} per nonzero
    proper subspace W of F_p^n: the RREF rows of W plus p e_j for each
    non-pivot column j.  The neighbour of rowspace(B) for W is
    rowspace(M_W B)."""
    gf = GF(p)
    out = []
    for s in range(1, n):
        for sub_rows in enumerate_subspaces(gf, n, s):
            pivots = {r.index(1) for r in sub_rows}
            out.append([list(r) for r in sub_rows]
                       + [[p if i == j else 0 for i in range(n)]
                          for j in range(n) if j not in pivots])
    return out


def _neighbors(v: LatticeClass, p: int, lifts: list) -> list:
    cols = list(zip(*v.rep))
    out = [LatticeClass.from_rows([[sum(map(mul, w, c)) for c in cols] for w in m], p)
           for m in lifts]
    return sorted(out, key=LatticeClass.sort_key)


def vertex_neighbors(v: LatticeClass, p: int, d: int) -> list:
    """All classes adjacent to v: one per nonzero proper subspace of the
    reduction of its representative mod p, in canonical form."""
    return _neighbors(v, p, _subspace_lifts(p, d + 1))


def adjacency_subspace_dim(w: LatticeClass, v: LatticeClass, p: int):
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


@dataclass
class BuildingBall:
    """Ball of given radius around a center vertex: vertices, symmetric
    adjacency on them, and graph distances from the center."""

    center: LatticeClass
    radius: int
    p: int
    d: int
    vertices: list
    adjacency: set          # frozensets {i, j} of vertex indices
    distance: dict          # vertex index -> distance from center

    def neighbors_in_ball(self, i: int) -> list:
        out = []
        for e in self.adjacency:
            if i in e:
                (j,) = e - {i}
                out.append(j)
        return sorted(out)


def ball(center: LatticeClass, n: int, p: int, d: int,
         budget: int = 100_000) -> BuildingBall:
    if d < 1:
        raise PreconditionError(f"d must be >= 1 (the building of PGL_(d+1)), got {d}")
    if n < 0:
        raise PreconditionError("radius must be >= 0")
    try:
        prime = factor_prime_power(p)[1] == 1
    except PreconditionError:
        prime = False
    if not prime:
        # the neighbour enumeration reads GF(p) element codes as integers mod p
        raise PreconditionError(f"p must be a prime, got {p}")
    lifts = _subspace_lifts(p, d + 1)
    dist = {center.rep: 0}
    nbrs = {}   # rep -> neighbours, for every vertex inside radius n
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
    adjacency = set()
    for i, v in enumerate(order):
        ws = nbrs[v.rep] if v.rep in nbrs else _neighbors(v, p, lifts)
        for w in ws:
            j = index.get(w.rep)
            if j is not None and j != i:
                adjacency.add(frozenset((i, j)))
    return BuildingBall(center, n, p, d, order, adjacency,
                        {index[rep]: r for rep, r in dist.items()})


def v_n_m(b: BuildingBall, n: int, m: int) -> list:
    """V_n plus the radius-(n+1) vertices adjacent to some vertex of V_n
    through a subspace of dimension at most m.  The case m = d returns all
    of V_{n+1}."""
    if not (1 <= m <= b.d):
        raise PreconditionError("need 1 <= m <= d")
    if b.radius < n + 1:
        raise PreconditionError("ball radius must be at least n + 1")
    chosen = [v for i, v in enumerate(b.vertices) if b.distance[i] <= n]
    for i, v in enumerate(b.vertices):
        if b.distance[i] != n + 1:
            continue
        for j in b.neighbors_in_ball(i):
            if b.distance[j] <= n:
                s = adjacency_subspace_dim(b.vertices[j], v, b.p)
                if s is not None and s <= m:
                    chosen.append(v)
                    break
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

    def validate(self, d: int) -> "SimplexType":
        sig = self.flag_signature
        if list(sig) != sorted(set(sig)) or (sig and not
                                             (0 < sig[0] and sig[-1] < d + 1)):
            raise PreconditionError("signature must be strictly increasing in (0, d+1)")
        return self


def stratum_type(sig: SimplexType, d: int) -> list:
    """Dimensions of the product factors of the stratum attached to a
    simplex type: the successive gaps of the flag signature, each minus 1."""
    sig.validate(d)
    cuts = [0] + list(sig.flag_signature) + [d + 1]
    return [b - a - 1 for a, b in zip(cuts, cuts[1:])]
