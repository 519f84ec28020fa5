"""Arithmetic over F_p: primality, F_p[x] and the small fields F_q.

Polynomials are lists of ints, lowest degree first, without trailing
zeros; the ring helpers (`_padd`, `_pmul`, ...) also serve Z[x] in the
factoring over Q.  Over F_p the remainder, gcd and power of polynomials
build the fields F_q = F_p[x]/(f) and the mod-p half of factoring over Q:
distinct-degree factorisation and Cantor-Zassenhaus equal-degree
splitting (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 14).

Elements of F_q, q = p^k, are integers 0..q-1 encoding polynomial
coefficient vectors over F_p in base p, with table-based arithmetic.
Intended for the desk-scale counting in the arrangement and building
modules: `GF` refuses q above `GF_MAX_Q` before building any table.
`PackedSpace` packs those digit vectors into integer lanes, to add vectors
of F_q^n and list the projective points of a span."""

from __future__ import annotations

from itertools import product
from math import isqrt

from .errors import EnumerationBudgetError, PreconditionError


def _least_divisor(n: int) -> int:
    """The least divisor >= 2 of n >= 2, by trial division up to sqrt(n)."""
    return next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)


def is_prime(n: int) -> bool:
    return n >= 2 and _least_divisor(n) == n


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n, k >= 1, by integer Newton steps down from a
    power of 2 above the root."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def factor_prime_power(q: int) -> tuple:
    if q < 2:
        raise PreconditionError("q must be >= 2")
    # q = m^j for the largest such j: when q is a power of a prime p, m = p,
    # so trial division finds p below sqrt(m), not below p
    root = next((m for j in range(q.bit_length() - 1, 1, -1)
                 if (m := _iroot(q, j)) ** j == q), q)
    p = _least_divisor(root)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise PreconditionError(f"{q} is not a prime power")
    return p, k


def _ptrim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def _padd(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return _ptrim([x + y for x, y in zip(a, b)] + a[len(b):])


def _psub(a: list, b: list) -> list:
    return _padd(a, [-y for y in b])


def _pmul(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pmod(f: list, m: int) -> list:
    return _ptrim([x % m for x in f])


def _pdivmod(a: list, b: list, m: int) -> tuple:
    """Quotient and remainder mod m of a by the monic b."""
    a, db = list(a), len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for k in reversed(range(len(q))):
        c = q[k] = a[k + db] % m
        if c:
            for i, y in enumerate(b):
                a[k + i] -= c * y
    return q, _pmod(a[:db], m)


def _pmonic(f: list, m: int) -> list:
    inv = pow(f[-1], -1, m)
    return [x * inv % m for x in f]


def _poly_mul_mod(a: list, b: list, mod: list, p: int) -> list:
    return _pdivmod(_pmul(a, b), mod, p)[1]


def _poly_pow_mod(a: list, e: int, mod: list, p: int) -> list:
    """a^e modulo the monic mod over F_p, by square and multiply."""
    acc = [1]
    for bit in bin(e)[2:]:
        acc = _poly_mul_mod(acc, acc, mod, p)
        if bit == "1":
            acc = _poly_mul_mod(acc, a, mod, p)
    return acc


def _poly_gcd(a: list, b: list, p: int) -> list:
    """gcd(a, b) over F_p; monic unless b = 0 and a is not monic mod p."""
    a, b = _pmod(a, p), _pmod(b, p)
    while b:
        b = _pmonic(b, p)
        a, b = b, _pdivmod(a, b, p)[1]
    return a


def _distinct_degree(f: list, p: int):
    """Distinct-degree factorisation of the monic f over F_p: yields (r, g)
    for r increasing, g the product of the monic irreducible factors of
    degree r when f is squarefree.  For any f, the first r yielded is the
    least degree of an irreducible factor."""
    rest, h, r = f, [0, 1], 0
    while len(rest) - 1 >= 2 * (r + 1):
        r += 1
        h = _poly_pow_mod(h, p, rest, p)  # x^(p^r) mod rest
        g = _poly_gcd(rest, _psub(h, [0, 1]), p)
        if len(g) > 1:
            yield r, g
            rest = _pdivmod(rest, g, p)[0]
            h = _pdivmod(h, rest, p)[1]
    if len(rest) > 1:
        yield len(rest) - 1, rest


def _split_equal_degree(g: list, r: int, p: int, rng) -> list:
    """Cantor-Zassenhaus: the monic irreducible factors of the monic
    squarefree g over F_p, p odd, all of which have degree r."""
    n = len(g) - 1
    if n == r:
        return [g]
    e = (p ** r - 1) // 2
    while True:
        a = _ptrim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        d = _poly_gcd(g, _psub(_poly_pow_mod(a, e, g, p), [1]), p)
        if 1 < len(d) <= n:
            return (_split_equal_degree(d, r, p, rng)
                    + _split_equal_degree(_pdivmod(g, d, p)[0], r, p, rng))


def factor_mod_p(f: list, p: int, rng) -> list:
    """The monic irreducible factors of the monic squarefree f over F_p for
    an odd prime p; the splitting draws from the random.Random rng."""
    return [u for r, g in _distinct_degree(f, p)
            for u in _split_equal_degree(g, r, p, rng)]


def find_irreducible(p: int, k: int) -> list:
    """Lexicographically first monic irreducible of degree k over F_p."""
    if k == 1:
        return [0, 1]
    for tail in product(range(p), repeat=k):
        poly = list(tail) + [1]
        if poly[0] and next(_distinct_degree(poly, p))[0] == k:
            return poly
    raise PreconditionError("no irreducible polynomial found")  # unreachable


# the largest field GF builds: at q = 256 its tables hold 2 q^2 entries,
# about 1.1 MB, built in about 0.3 s; memory and time grow as q^2
GF_MAX_Q = 256


class GF:
    """F_q with add/mul tables; elements are ints 0..q-1."""

    def __init__(self, q: int):
        if q > GF_MAX_Q:
            raise EnumerationBudgetError(
                f"F_{q} exceeds the field size cap of {GF_MAX_Q}")
        p, k = factor_prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        self.modulus = find_irreducible(p, k)

        def digits(n):
            out = []
            for _ in range(k):
                out.append(n % p)
                n //= p
            return out

        def undigits(ds):
            n = 0
            for d in reversed(ds):
                n = n * p + d
            return n

        self._dig = [digits(n) for n in range(q)]
        self.add_table = [[undigits([(a + b) % p for a, b in
                                     zip(self._dig[x], self._dig[y])])
                           for y in range(q)] for x in range(q)]
        self.mul_table = [[0] * q for _ in range(q)]
        for x in range(q):
            for y in range(x, q):
                v = undigits(_poly_mul_mod(self._dig[x], self._dig[y], self.modulus, p))
                self.mul_table[x][y] = v
                self.mul_table[y][x] = v
        self.neg_table = [self.mul_table[x][self.coerce(p - 1)] for x in range(q)]
        self.inv_table = [0] * q
        for x in range(1, q):
            self.inv_table[x] = next(y for y in range(1, q)
                                     if self.mul_table[x][y] == 1)

    def coerce(self, n: int) -> int:
        """Image of an integer under Z -> F_p <= F_q."""
        return n % self.p

    def add(self, x, y):
        return self.add_table[x][y]

    def mul(self, x, y):
        return self.mul_table[x][y]

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.inv_table[x]

    def neg(self, x):
        return self.neg_table[x]

    def pow(self, x, e):
        out = 1
        for _ in range(e):
            out = self.mul(out, x)
        return out

    def subfield(self, q_sub: int) -> list:
        """Elements of the subfield F_{q_sub}, i.e. fixed points of x -> x^{q_sub}."""
        if self.q == q_sub:
            return list(range(self.q))
        ps, ks = factor_prime_power(q_sub)
        if ps != self.p or self.k % ks != 0:
            raise PreconditionError(f"F_{q_sub} is not a subfield of F_{self.q}")
        out = [x for x in range(self.q) if self.pow(x, q_sub) == x]
        assert len(out) == q_sub
        return out


def enumerate_subspaces(gf: GF, n: int, k: int) -> list:
    """All k-dimensional subspaces of F_q^n as canonical RREF bases."""
    from itertools import combinations
    if k == 0:
        return [()]
    out = []
    for pivots in combinations(range(n), k):
        free_positions = []
        for i, pc in enumerate(pivots):
            for c in range(pc + 1, n):
                if c not in pivots:
                    free_positions.append((i, c))
        for vals in product(range(gf.q), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(k)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (idx, (i, c)) in enumerate(free_positions):
                rows[i][c] = vals[idx]
            out.append(tuple(tuple(r) for r in rows))
    return out


class PackedSpace:
    """Vectors of F_q^n, q = p^k, packed into one integer: the base-p digits
    of the element codes fill n k lanes of w = p.bit_length() + 1 bits, so
    one add and a lane-wise reduction by p add two vectors (SWAR, "SIMD
    within a register", Fisher & Dietz, LCPC 1998).  Packed codes are
    canonical.  Scaling is not lane-wise when k > 1: the multiples of a row
    come from the mul table, once per row and instance."""

    def __init__(self, gf: GF, n: int):
        w = gf.p.bit_length() + 1
        ones = sum(1 << w * t for t in range(n * gf.k))
        self.gf, self.n, self.width = gf, n, w * gf.k  # bits per coordinate
        self._spread = [sum(d << w * t for t, d in enumerate(ds)) for ds in gf._dig]
        self._code = {s: x for x, s in enumerate(self._spread)}
        self._reduce = (ones * ((1 << w - 1) - gf.p), w - 1, ones)
        self._multiples = {}

    def pack(self, vec) -> int:
        out = 0
        for x in reversed(vec):
            out = out << self.width | self._spread[x]
        return out

    def unpack(self, code: int) -> tuple:
        mask = (1 << self.width) - 1
        return tuple(self._code[code >> self.width * i & mask] for i in range(self.n))

    def points(self, rows: tuple) -> list:
        """The projective points of the span of the RREF rows, packed, each
        once: one leading row plus any combination of the rows below it."""
        bias, shift, ones = self._reduce
        p, mul, memo = self.gf.p, self.gf.mul_table, self._multiples
        points = []
        below = [0]  # span of the rows below
        for i in range(len(rows) - 1, -1, -1):
            if rows[i] not in memo:  # the packed c row_i, c = 1, ..., q - 1
                memo[rows[i]] = [self.pack([mul[c][x] for x in rows[i]])
                                 for c in range(1, self.gf.q)]
            # c row_i + v, v in below: c = 1 gives the points led by row i
            # and all c give span(rows[i:])
            cs = memo[rows[i]] if i else memo[rows[i]][:1]
            shifted = [s - ((s + bias) >> shift & ones) * p
                       for m in cs for v in below for s in (m + v,)]
            points += shifted[:len(below)]
            below += shifted
        return points
