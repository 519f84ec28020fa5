"""Cohomology dimensions of rational hyperplane-arrangement complements in
P^r over F_q, and of the iterated blow-ups of P^r along all rational linear
centers, with mandatory independent cross-checks.

The arrangement complement of all F_q-rational hyperplanes is computed two
ways: a Gysin recursion that deletes one hyperplane at a time (purity makes
the long exact sequence split), and the Moebius function of the intersection
lattice (all subspaces of F_q^(r+1)); the Betti vector carries Frobenius
q^m on degree m.  Blow-up Poincare polynomials live in even degrees with
Frobenius q^(m/2) on degree m and are validated against a direct point
count over F_{q^s}.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import CrossCheckError, PreconditionError
from .galois import GF, enumerate_subspaces, gf_span_vectors


def _normalize(gf: GF, vec: tuple):
    """Scale a nonzero vector so its first nonzero entry is 1."""
    lead = next((x for x in vec if x), None)
    if lead is None:
        return None
    inv = gf.inv(lead)
    return tuple(gf.mul(inv, x) for x in vec)


def all_hyperplane_normals(gf: GF, n: int) -> list:
    """All hyperplanes of P^(n-1) over F_q, as normalized normal vectors."""
    out = set()
    for v in product(range(gf.q), repeat=n):
        nv = _normalize(gf, v)
        if nv is not None:
            out.add(nv)
    return sorted(out)


def _hyperplane_basis(gf: GF, normal: tuple) -> list:
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
        coeff = gf.neg(gf.mul(normal[j], gf.inv(normal[piv])))
        v[piv] = coeff
        rows.append(v)
    return rows


def _trace_arrangement(gf: GF, normals: frozenset, h: tuple) -> frozenset:
    """Restriction of the arrangement to the hyperplane h, as normals in the
    coordinates of a chosen basis of h."""
    basis = _hyperplane_basis(gf, h)
    out = set()
    for lam in normals:
        if lam == h:
            continue
        tr = tuple(
            _dot(gf, lam, row) for row in basis)
        nv = _normalize(gf, tr)
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


def _mobius_betti(q: int, r: int) -> tuple:
    """Betti numbers of the full rational arrangement complement via the
    Moebius function of the intersection lattice (all subspaces of
    F_q^(r+1)); the projective answer divides the cone polynomial by 1+u."""
    gf = GF(q)
    n = r + 1
    # subspaces in order of codimension; contains[v] is the bitmask of the
    # indices of the subspaces containing the vector v
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
        # the strict supersets of subspace i all come before it
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
    gf = GF(q)
    normals = frozenset(all_hyperplane_normals(gf, r + 1))
    gysin = _gysin_betti(gf, r, normals, {})
    gysin = tuple(list(gysin) + [0] * (r + 1 - len(gysin)))
    mobius = _mobius_betti(q, r)
    if gysin != mobius:
        raise CrossCheckError(
            f"arrangement method disagreement: gysin {gysin} vs mobius {mobius}")
    assert gysin[0] == 1
    return gysin


@lru_cache(maxsize=None)
def _blowup_point_count(r: int, q: int, s: int) -> int:
    from .drinfeld import gaussian_binomial
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
    if q < 2:
        raise PreconditionError("need q >= 2")
    from .drinfeld import gaussian_binomial

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
