"""Cohomology dimensions of rational hyperplane-arrangement complements in
P^r over F_q, and of the iterated blow-ups of P^r along all rational linear
centers, with mandatory independent cross-checks.

The arrangement complement of all F_q-rational hyperplanes is computed two
ways: a Gysin recursion that deletes one hyperplane at a time (purity makes
the long exact sequence split), and the Moebius function of the intersection
lattice (all subspaces of F_q^(r+1)); the Betti vector carries Frobenius
q^m on degree m.  Both routes run on vectors packed into integers
(`galois.PackedSpace`) and build their tables inside each call.  The
recursion traces the normals on a hyperplane by one lane-wise add each
(`PackedSpace.eliminate`) and normalises them through a table of every
nonzero vector's projective point.  The Moebius route builds the lattice
layer by layer, each subspace from the one its lower RREF rows span, keys
its incidences by packed projective points and sums mu over the supersets
of a subspace by one popcount per distinct mu value.  A lattice of more
than LATTICE_BUDGET subspaces is refused before anything is enumerated.
Blow-up Poincare polynomials live in even degrees with Frobenius q^(m/2) on
degree m and are validated against a direct point count over F_{q^s}.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .drinfeld import gaussian_binomial
from .errors import CrossCheckError, EnumerationBudgetError, PreconditionError
from .galois import GF, PackedSpace, factor_prime_power

# the most subspaces of F_q^(r+1) the two routes may enumerate; the largest
# benchmark case, r = 5 over F_2, has 2,825
LATTICE_BUDGET = 10_000


def _normalize(gf: GF, vec: tuple):
    """Scale a nonzero vector so its first nonzero entry is 1."""
    lead = next((x for x in vec if x), None)
    if lead is None or lead == 1:
        return vec if lead else None
    return tuple(map(gf.mul_table[gf.inv(lead)].__getitem__, vec))


def _dot(gf: GF, a, b) -> int:
    s = 0
    for x, y in zip(a, b):
        if x and y:
            s = gf.add(s, gf.mul(x, y))
    return s


def _gysin_betti(gf: GF, r: int, normals=None) -> tuple:
    """Betti numbers of P^r minus the union of the given hyperplanes via
    the split Gysin recursion; purity forces the connecting maps to vanish.
    The normals are packed projective points of `PackedSpace(gf, r + 1)`,
    all of them by default; the deletion order follows the packed codes,
    and the trace on h is lam - lam_piv h with h's pivot coordinate piv
    dropped, normalised by a table."""
    space = PackedSpace(gf, r + 1)
    multiples = space.multiples()
    # every nonzero vector of F_q^m, m <= r + 1, to its projective point
    point = {m: x for x, ms in multiples.items() for m in ms}
    memo = {}

    def betti(r: int, normals: frozenset) -> tuple:
        # delete the largest normal until a known or trivial arrangement is
        # left, then add the traces back: the stack grows with r, not with
        # the number of hyperplanes
        chain = []
        while r and len(normals) > 1 and (r, normals) not in memo:
            h = max(normals)
            chain.append((normals, h))
            normals = normals - {h}
        # the complement of one hyperplane is affine r-space
        result = memo[r, normals] if r and len(normals) > 1 else (1,)
        for normals, h in reversed(chain):
            trace = space.eliminate(normals - {h}, h, multiples[h])
            step = betti(r - 1, frozenset(map(point.__getitem__, trace)))
            out = list(result) + [0] * (len(step) + 1 - len(result))
            for m, c in enumerate(step):
                out[m + 1] += c
            memo[r, normals] = result = tuple(out)
        return result

    return betti(r, frozenset(multiples if normals is None else normals))


def _mobius_betti(gf: GF, r: int) -> tuple:
    """Betti numbers of the full rational arrangement complement via the
    Moebius function of the intersection lattice (all subspaces of
    F_q^(r+1)); the projective answer divides the cone polynomial by 1+u.

    The subspaces are built by increasing dimension.  A k-subspace in RREF
    is a new leading row, pivot c left of the pivots of the (k-1)-subspace T
    that its other rows span, so its new projective points are that row
    plus span(T).  Layer k takes the bits from sum_(j>k) [n, j]_q up, so
    strict supersets have lower bits; contains[x] is the bitmask of the
    subspaces holding the packed projective point x."""
    n = r + 1
    space = PackedSpace(gf, n)
    multiples = space.multiples()
    units = [space.pack([int(i == j) for j in range(n)]) for i in range(n)]
    sizes = [gaussian_binomial(n, k, gf.q) for k in range(n + 1)]
    contains = dict.fromkeys(multiples, 0)
    layers = [[()]]  # each layer's subspaces as their packed RREF rows
    # the subspaces with pivots >= 1, which can be extended, as (pivots,
    # rows, span, projective points); the zero subspace has no pivot
    frontier = [((), (), [0], [])]
    # pivots (c, ...) -> every first RREF row with pivot c and zeros at the
    # other pivots
    leads = {}
    for k in range(1, n + 1):
        bit = sum(sizes[k + 1:])
        layer, extendable = [], []
        for pivots, rows, span, points in frontier:
            start = bit
            for c in range(pivots[0] if pivots else n):
                key = (c,) + pivots
                if key not in leads:
                    vecs = [units[c]]
                    for j in range(c + 1, n):
                        if j not in pivots:
                            vecs = [v for m in [0] + multiples[units[j]]
                                    for v in space.translate(m, vecs)]
                    leads[key] = vecs
                for row in leads[key]:
                    new = space.translate(row, span)
                    b = 1 << bit
                    for x in new:
                        contains[x] |= b
                    layer.append((row,) + rows)
                    if c:
                        extendable.append((key, layer[-1],
                                           span + [m for x in new for m in multiples[x]],
                                           points + new))
                    bit += 1
            # the extensions of T hold its points and take the bits from start up
            run = (1 << bit) - (1 << start)
            for x in points:
                contains[x] |= run
        layers.append(layer)
        frontier = extendable
    # mu in order of codimension: the strict supersets of a subspace are
    # the subspaces of larger dimension that hold all its rows, and their
    # mu values are known
    by_mu = {}  # mu value -> bitmask of the subspaces with that value
    whitney = [0] * (n + 1)
    for k in range(n, -1, -1):
        bit = sum(sizes[k + 1:])
        larger = (1 << bit) - 1
        above = {x: m & larger for x, m in contains.items()}
        for rows in layers[k]:
            sup = larger
            for x in rows:
                sup &= above[x]
            mu = 1 if k == n else -sum(m * (sup & mask).bit_count()
                                       for m, mask in by_mu.items())
            by_mu[mu] = by_mu.get(mu, 0) | 1 << bit
            whitney[n - k] += abs(mu)
            bit += 1
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
    gysin = _gysin_betti(gf, r)
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
