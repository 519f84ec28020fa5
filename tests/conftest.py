import random
from fractions import Fraction

from weightfil import exact_linalg
from weightfil.exact_linalg import (Polynomial, QMatrix, QuotientMap, Subspace, _rref, kernel,
                                    rat, rat_str)
from weightfil.filtration import DECREASING, IndexedFiltration
from weightfil.nerve import NerveDatum
from weightfil.phin import PhiNModule, monodromy_filtration, weight_filtration


def rank(m: QMatrix) -> int:
    red, _ = _rref(m.row_list())
    return len(red)


def counting_rref(monkeypatch) -> list:
    """Count the calls of exact_linalg._rref (one elimination each)."""
    calls, rref = [], exact_linalg._rref
    monkeypatch.setattr(exact_linalg, "_rref", lambda rows: calls.append(1) or rref(rows))
    return calls


def annihilator_matrix(w: Subspace) -> QMatrix:
    """Matrix K with w = {x : K x = 0}; K has ambient_dim - dim rows."""
    ker = kernel(w.basis) if w.dim else Subspace.full(w.ambient_dim)
    return ker.basis


def oracle_intersect(a: Subspace, b: Subspace) -> Subspace:
    """a /\\ b by the annihilator route that Zassenhaus replaced: the kernel
    of the stacked annihilators of a and b."""
    rows = annihilator_matrix(a).row_list() + annihilator_matrix(b).row_list()
    return kernel(QMatrix.from_rows(rows)) if rows else Subspace.full(a.ambient_dim)


def monodromy_weight_diff(D: PhiNModule) -> list:
    """Step-level differences [(r, dim M_r, dim P_r)]."""
    return monodromy_filtration(D).step_diff(weight_filtration(D))


def from_roots(roots) -> Polynomial:
    """The monic polynomial with the given roots."""
    out = Polynomial.from_coeffs([1])
    for r in roots:
        out = out * Polynomial.from_coeffs([-rat(r), 1])
    return out


def normalized_steps(fl: IndexedFiltration) -> tuple:
    """The minimal step map with the same semantics as fl's."""
    zero = Subspace.zero(fl.ambient_dim)
    # a decreasing step repeating the next one, or an increasing step the
    # previous one, is redundant
    if fl.orientation == DECREASING:
        nbrs = [s for _, s in fl.steps[1:]] + [zero]
    else:
        nbrs = [zero] + [s for _, s in fl.steps[:-1]]
    return tuple((k, s) for (k, s), nbr in zip(fl.steps, nbrs) if s != nbr)


def filtration_json(fl) -> dict:
    return {rat_str(k): s.to_strings() for k, s in normalized_steps(fl)}


def is_degenerate(page) -> bool:
    return all(m.is_zero() for m in page.differentials.values())


def euler_characteristic(page) -> int:
    return sum((-1) ** (p + q) * d for (p, q), d in page.entries.items())


def qm(rows):
    return QMatrix.from_rows(rows)


def sub(ambient, vectors):
    return Subspace.from_vectors(ambient, vectors)


def mk_module(p, a, d, phi_rows, n_rows, fil_steps, gamma=None):
    """fil_steps: {index: basis rows | 'full' | 'zero'}."""
    dim = len(phi_rows)
    steps = {}
    for k, v in fil_steps.items():
        if v == "full":
            steps[k] = Subspace.full(dim)
        elif v == "zero":
            steps[k] = Subspace.zero(dim)
        else:
            steps[k] = Subspace.from_vectors(dim, v)
    fil = IndexedFiltration.make(dim, DECREASING, steps)
    return PhiNModule(p, a, d, qm(phi_rows), qm(n_rows), fil, gamma)


def tate_module(p=2, a=1, i=1):
    """Dimension 1, phi = q^i, filtration jump at i."""
    q = p ** a
    return mk_module(p, a, i, [[q ** i]], [[0]], {i: "full"})


def tate_curve_module(p=2, a=1):
    """Dimension 2, d = 1, phi = diag(1, q), N e2 = e1, generic Hodge line."""
    q = p ** a
    return mk_module(p, a, 1, [[1, 0], [0, q]], [[0, 1], [0, 0]],
                     {0: "full", 1: [[1, 1]]})


def jordan_nilpotent(block_sizes):
    """Nilpotent matrix with lower-shift blocks of the given sizes
    (columns map e_i to e_{i+1} within a block)."""
    n = sum(block_sizes)
    rows = [[Fraction(0)] * n for _ in range(n)]
    pos = 0
    for b in block_sizes:
        for i in range(b - 1):
            rows[pos + i + 1][pos + i] = Fraction(1)
        pos += b
    return qm(rows)


def random_invertible(rng, n, spread=2):
    while True:
        rows = [[Fraction(rng.randint(-spread, spread)) for _ in range(n)]
                for _ in range(n)]
        m = qm(rows)
        if m.det() != 0:
            return m


def conjugate(g, m):
    from weightfil.exact_linalg import inverse
    return g @ m @ inverse(g)


def random_nilpotent(rng, n):
    """Random Jordan type on dimension n, conjugated by a random invertible."""
    sizes = []
    left = n
    while left:
        s = rng.randint(1, left)
        sizes.append(s)
        left -= s
    return conjugate(random_invertible(rng, n), jordan_nilpotent(sizes))


def random_functorial_nerve(rng, n_components, max_degree=2, max_dim=3):
    """Nerve data built from quotients of a fixed space: V_J = W / sum of
    per-component subspaces, with the natural projections as restriction
    maps.  Functorial by construction."""
    comps = [chr(ord("a") + i) for i in range(n_components)]
    degrees = list(range(max_degree + 1))
    ambient = {s: rng.randint(1, max_dim) for s in degrees}
    comp_sub = {}
    for c in comps:
        for s in degrees:
            w = ambient[s]
            k = rng.randint(0, w)
            vecs = [[Fraction(rng.randint(-2, 2)) for _ in range(w)]
                    for _ in range(k)]
            comp_sub[(c, s)] = Subspace.from_vectors(w, vecs)
    from itertools import combinations
    subsets = [frozenset(c) for k in range(1, n_components + 1)
               for c in combinations(comps, k)]
    quot = {}
    for j in subsets:
        for s in degrees:
            w = ambient[s]
            u = Subspace.zero(w)
            for c in j:
                from weightfil.exact_linalg import subspace_sum
                u = subspace_sum(u, comp_sub[(c, s)])
            quot[(j, s)] = QuotientMap(u, Subspace.full(w))
    strata = {}
    for j in subsets:
        dims = {s: quot[(j, s)].dim for s in degrees if quot[(j, s)].dim}
        if dims:
            strata[j] = dims
    restrictions = {}
    for j in subsets:
        for c in comps:
            if c in j:
                continue
            j2 = j | {c}
            by_deg = {}
            for s in degrees:
                q1, q2 = quot[(j, s)], quot[(j2, s)]
                if q1.dim == 0 or q2.dim == 0:
                    continue
                cols = [q2.coords(row) for row in q1.comp_rows]
                by_deg[s] = qm([[cols[jj][ii] for jj in range(q1.dim)]
                                for ii in range(q2.dim)])
            if by_deg:
                restrictions[(j, j2)] = by_deg
    return NerveDatum(comps, strata, restrictions)
