"""Small finite fields F_q, q = p^k, with table-based arithmetic.

Elements are integers 0..q-1 encoding polynomial coefficient vectors over
F_p in base p.  Intended for the desk-scale counting in the arrangement
and building modules (q up to a few hundred)."""

from __future__ import annotations

from itertools import product

from .errors import PreconditionError


def factor_prime_power(q: int) -> tuple:
    if q < 2:
        raise PreconditionError("q must be >= 2")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise PreconditionError(f"{q} is not a prime power")
    return p, k


def _poly_mul_mod(a, b, mod_poly, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    deg = len(mod_poly) - 1
    while len(out) > deg:
        lead = out.pop()
        if lead:
            for i in range(deg):
                out[-deg + i] = (out[-deg + i] - lead * mod_poly[i]) % p
    return out


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    def norm(u):
        while u and u[-1] == 0:
            u.pop()
        return u
    a, b = norm(a), norm(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            f = a[-1] * inv % p
            sh = len(a) - len(b)
            for i, c in enumerate(b):
                a[sh + i] = (a[sh + i] - f * c) % p
            a = norm(a)
            if not a:
                break
        a, b = b, a
    return norm(a)


def _poly_pow_p(base, poly, p):
    acc = [1]
    e = p
    b = list(base)
    while e:
        if e & 1:
            acc = _poly_mul_mod(acc, b, poly, p)
        b = _poly_mul_mod(b, b, poly, p)
        e >>= 1
    return acc


def _is_irreducible(poly, p):
    """Monic poly of degree k over F_p is irreducible iff x^(p^k) = x mod
    poly and gcd(x^(p^j) - x, poly) = 1 for every proper divisor j of k."""
    k = len(poly) - 1
    x = [0, 1]
    xp = list(x)
    for j in range(1, k + 1):
        xp = _poly_pow_p(xp, poly, p)  # x^(p^j) mod poly
        diff = [(a - b) % p for a, b in
                zip(xp + [0] * len(x), x + [0] * len(xp))]
        if j == k:
            return all(c == 0 for c in diff)
        if k % j == 0 and len(_poly_gcd(poly, diff, p)) > 1:
            return False
    return True


def find_irreducible(p: int, k: int) -> list:
    """Lexicographically first monic irreducible of degree k over F_p."""
    if k == 1:
        return [0, 1]
    for tail in product(range(p), repeat=k):
        poly = list(tail) + [1]
        if poly[0] == 0:
            continue
        if _is_irreducible(poly, p):
            return poly
    raise PreconditionError("no irreducible polynomial found")  # unreachable


class GF:
    """F_q with add/mul tables; elements are ints 0..q-1."""

    def __init__(self, q: int):
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
                prod_ = _poly_mul_mod(self._dig[x], self._dig[y], self.modulus, p)
                prod_ = prod_ + [0] * (k - len(prod_))
                v = undigits(prod_[:k])
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


def gf_span_vectors(gf: GF, basis: list, n: int) -> list:
    """All vectors in the span of the given basis rows."""
    span = [(0,) * n]
    add = gf.add_table
    for row in basis:
        multiples = [[gf.mul(c, x) for x in row] for c in range(1, gf.q)]
        span += [tuple(add[a][b] for a, b in zip(v, m))
                 for m in multiples for v in span]
    return sorted(set(span))


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
