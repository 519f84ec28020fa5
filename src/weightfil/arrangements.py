"""Cohomology dimensions of rational hyperplane-arrangement complements in
P^r over F_q, and of the iterated blow-ups of P^r along all rational linear
centers, with mandatory independent cross-checks.

The arrangement complement of all F_q-rational hyperplanes is computed two
ways: a Gysin recursion that deletes one hyperplane at a time (purity makes
the long exact sequence split), and the Moebius function of the intersection
lattice (all subspaces of F_q^(r+1)); the Betti vector carries Frobenius
q^m on degree m.  The recursion traces a normal on a hyperplane with one
table lookup pair per coordinate; the Moebius route keys its incidences by
packed projective points (`galois.PackedSpace`) and sums mu over the
supersets of a subspace by one popcount per distinct mu value.  A lattice
of more than LATTICE_BUDGET subspaces is refused before anything is
enumerated.  Blow-up Poincare polynomials live in even degrees with
Frobenius q^(m/2) on degree m and are validated against a direct point
count over F_{q^s}.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .drinfeld import gaussian_binomial
from .errors import CrossCheckError, EnumerationBudgetError, PreconditionError
from .galois import GF, PackedSpace, enumerate_subspaces, factor_prime_power

# the most subspaces of F_q^(r+1) the two routes may enumerate; the largest
# benchmark case, r = 5 over F_2, has 2,825
LATTICE_BUDGET = 10_000


def _normalize(gf: GF, vec: tuple):
    """Scale a nonzero vector so its first nonzero entry is 1."""
    lead = next((x for x in vec if x), None)
    if lead is None or lead == 1:
        return vec if lead else None
    return tuple(map(gf.mul_table[gf.inv(lead)].__getitem__, vec))


def all_hyperplane_normals(gf: GF, n: int) -> list:
    """All hyperplanes of P^(n-1) over F_q, as normalized normal vectors:
    the projective points of F_q^n."""
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    space = PackedSpace(gf, n)
    return sorted(map(space.unpack, space.points(identity)))


def _trace_arrangement(gf: GF, normals: frozenset, h: tuple) -> frozenset:
    """Restriction of the arrangement to the hyperplane h, as normals in the
    basis e_j + c_j e_piv (j != piv, c_j = -h_j / h_piv, piv the first
    nonzero coordinate) of h: coordinate j of lam is lam_j + lam_piv c_j."""
    add, mul = gf.add_table, gf.mul_table
    piv = next(i for i, x in enumerate(h) if x)
    inv = gf.inv(h[piv])
    coeffs = [(j, gf.neg(mul[x][inv])) for j, x in enumerate(h) if j != piv]
    out = set()
    for lam in normals:
        if lam == h:
            continue
        row = mul[lam[piv]]
        nv = _normalize(gf, tuple([add[lam[j]][row[c]] for j, c in coeffs]))
        if nv is not None:
            out.add(nv)
    return frozenset(out)


def _dot(gf: GF, a, b) -> int:
    s = 0
    for x, y in zip(a, b):
        if x and y:
            s = gf.add(s, gf.mul(x, y))
    return s


def _gysin_betti(gf: GF, r: int, normals: frozenset, memo: dict) -> tuple:
    """Betti numbers of P^r minus the union of the given hyperplanes via
    the split Gysin recursion; purity forces the connecting maps to vanish."""
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
    base = _gysin_betti(gf, r, rest, memo)
    trace = _trace_arrangement(gf, rest, h)
    step = _gysin_betti(gf, r - 1, trace, memo)
    out = list(base) + [0] * (len(step) + 1 - len(base))
    for m, c in enumerate(step):
        out[m + 1] += c
    result = tuple(out)
    memo[key] = result
    return result


def _mobius_betti(gf: GF, r: int) -> tuple:
    """Betti numbers of the full rational arrangement complement via the
    Moebius function of the intersection lattice (all subspaces of
    F_q^(r+1)); the projective answer divides the cone polynomial by 1+u."""
    n = r + 1
    # subspaces in order of codimension, one bit each; contains[x] is the
    # bitmask of those so far containing the packed projective point x
    space = PackedSpace(gf, n)
    contains = {}
    by_mu = {}  # mu value -> bitmask of the subspaces with that value
    whitney = [0] * (n + 1)
    bit = 1
    for k in range(n, -1, -1):
        for rows in enumerate_subspaces(gf, n, k):
            # the strict supersets of this subspace all come before it
            sup = bit - 1
            for r in rows:
                sup &= contains.get(space.pack(r), 0)
            mu = 1 if k == n else -sum(m * (sup & mask).bit_count()
                                       for m, mask in by_mu.items())
            by_mu[mu] = by_mu.get(mu, 0) | bit
            whitney[n - k] += abs(mu)
            for x in space.points(rows):
                contains[x] = contains.get(x, 0) | bit
            bit <<= 1
    # divide sum |mu| u^codim (degree n) by 1 + u
    quot = [0] * n
    quot[n - 1] = whitney[n]
    for c in range(n - 1, 0, -1):
        quot[c - 1] = whitney[c] - quot[c]
    if whitney[0] != quot[0]:
        raise CrossCheckError("cone polynomial is not divisible by 1 + u")
    return tuple(quot)


def rational_arrangement_poincare(r: int, q: int) -> tuple:
    """Betti numbers (b_0, ..., b_r) of P^r minus all F_q-rational
    hyperplanes; Frobenius acts by q^m on degree m.  Computed by the Gysin
    recursion and the intersection-lattice Moebius function, which must
    agree."""
    if r < 1:
        raise PreconditionError("need r >= 1")
    if q < 2:
        raise PreconditionError("need q >= 2")
    factor_prime_power(q)  # F_q must exist
    size = sum(gaussian_binomial(r + 1, k, q) for k in range(r + 2))
    if size > LATTICE_BUDGET:
        raise EnumerationBudgetError(
            f"the intersection lattice has {size} subspaces, over the budget "
            f"of {LATTICE_BUDGET}")
    gf = GF(q)
    normals = frozenset(all_hyperplane_normals(gf, r + 1))
    gysin = _gysin_betti(gf, r, normals, {})
    gysin = tuple(list(gysin) + [0] * (r + 1 - len(gysin)))
    mobius = _mobius_betti(gf, r)
    if gysin != mobius:
        raise CrossCheckError(
            f"arrangement method disagreement: gysin {gysin} vs mobius {mobius}")
    assert gysin[0] == 1
    return gysin


@lru_cache(maxsize=None)
def _blowup_point_count(r: int, q: int, s: int) -> int:
    t = q ** s

    def proj_points(m: int) -> int:
        return (t ** (m + 1) - 1) // (t - 1) if m >= 0 else 0

    total = proj_points(r)
    for j in range(0, r - 1):
        centers = gaussian_binomial(r + 1, j + 1, q)
        total += centers * _blowup_point_count(j, q, s) * (proj_points(r - j - 1) - 1)
    return total


def blowup_poincare(r: int, q: int) -> tuple:
    """Even-degree Poincare polynomial of the iterated blow-up of P^r along
    all rational linear subschemes of dimensions 0..r-2 (strict transforms,
    in increasing dimension); cross-checked against the point count over
    F_{q^s} for s = 1, 2, 3."""
    if r < 0:
        raise PreconditionError("need r >= 0")
    factor_prime_power(q)  # F_q must exist

    def poly(rr: int) -> list:
        # coefficients of H^0, H^2, H^4, ... (even degrees only)
        out = [1] * (rr + 1)  # projective space
        for j in range(0, rr - 1):
            centers = gaussian_binomial(rr + 1, j + 1, q)
            inner = poly(j)
            # exceptional divisor adds H^(2k) of the center for k = 1..codim-1
            for shift in range(1, rr - j):
                for m, c in enumerate(inner):
                    out[m + shift] += centers * c
        return out

    even = poly(r)
    for s in (1, 2, 3):
        lhs = sum(c * (q ** s) ** k for k, c in enumerate(even))
        rhs = _blowup_point_count(r, q, s)
        if lhs != rhs:
            raise CrossCheckError(
                f"blow-up point count mismatch at s={s}: {lhs} vs {rhs}")
    out = []
    for c in even:
        out.extend([c, 0])
    out.pop()
    assert out[0] == 1 and all(out[m] == 0 for m in range(1, len(out), 2))
    return tuple(out)


def _arrangement_point_count(r: int, q: int, s: int) -> int:
    """Points of P^r(F_{q^s}) avoiding every F_q-rational hyperplane, by
    direct enumeration over the extension field."""
    ext = GF(q ** s)
    sub = ext.subfield(q)
    n = r + 1
    normals = set()
    for v in product(sub, repeat=n):
        nv = _normalize(ext, v)
        if nv is not None:
            normals.add(nv)
    count = 0
    # projective points: first nonzero coordinate = 1
    for lead in range(n):
        for tail in product(range(ext.q), repeat=n - lead - 1):
            pt = (0,) * lead + (1,) + tail
            if all(_dot(ext, lam, pt) != 0 for lam in normals):
                count += 1
    return count


def point_count_oracle(space_spec, q: int, s: int) -> int:
    """#X(F_{q^s}) by direct counting for the two space families.

    space_spec is ('arrangement_complement', r) or ('iterated_blowup', r).
    For the blow-up, the count equals the even Poincare polynomial evaluated
    at q^s (H^(2k) contributing q^(s k)); for the arrangement complement it
    equals sum_m (-1)^m b_m q^(s (r - m)).
    """
    if s < 1:
        raise PreconditionError("need s >= 1")
    kind, r = space_spec
    if kind == "arrangement_complement":
        if r < 1:
            raise PreconditionError("need r >= 1")
        return _arrangement_point_count(r, q, s)
    if kind == "iterated_blowup":
        if r < 0:
            raise PreconditionError("need r >= 0")
        return _blowup_point_count(r, q, s)
    raise PreconditionError(f"unknown space spec {space_spec!r}")
