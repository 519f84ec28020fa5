"""Cech complexes of closed coverings given as combinatorial nerve data.

A NerveDatum records, for each nonempty set J of covering components, the
graded dimensions of the cohomology of the J-fold intersection stratum
together with functorial restriction maps towards deeper strata.  Two
complexes are built from it: the standard nerve complex indexed by the
sets J themselves, and the flag-indexed variant whose m-cells are chains
J_0 < J_1 < ... < J_m of nonempty subsets; both compute the same total
cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import PreconditionError, SchemaError
from .exact_linalg import QMatrix, Subspace
from .spectral import FilteredComplex, GradedComplex


def nonempty_subsets(components) -> list:
    comps = list(components)
    out = []
    for k in range(1, len(comps) + 1):
        out.extend(frozenset(c) for c in combinations(comps, k))
    return out


def lambda_flags(n: int, m: int) -> list:
    """All strictly increasing flags J_0 < J_1 < ... < J_m of nonempty
    subsets of an n-element set, as tuples of frozensets.  Face maps act by
    deleting one member of the flag."""
    if n < 1 or m < 0:
        raise PreconditionError("need n >= 1 and m >= 0")
    subs = nonempty_subsets(range(n))
    flags = [(s,) for s in subs]
    for _ in range(m):
        flags = [f + (t,) for f in flags for t in subs if f[-1] < t]
    return flags


def flag_delete(flag: tuple, s: int) -> tuple:
    return flag[:s] + flag[s + 1:]


@dataclass
class NerveDatum:
    """components: ordered component names.
    strata: {frozenset J: {degree s: dim}} with absent strata zero.
    restrictions: {(J, J'): {degree s: QMatrix}} for J < J' covering pairs
    (|J'| = |J| + 1); longer restrictions are composites.
    weights: {degree s: label} Frobenius weight labels per stratum degree
    (defaults to the degree itself)."""

    components: list
    strata: dict
    restrictions: dict
    weights: dict | None = None

    def stratum_dim(self, j: frozenset, s: int) -> int:
        return self.strata.get(j, {}).get(s, 0)

    def degrees(self) -> list:
        degs = {s for v in self.strata.values() for s, d in v.items() if d}
        return sorted(degs)

    def weight(self, s: int):
        if self.weights is None:
            return s
        return self.weights.get(s, s)

    def restriction(self, j1: frozenset, j2: frozenset, s: int) -> QMatrix:
        """Restriction matrix H^s(M_{j1}) -> H^s(M_{j2}) for j1 <= j2,
        composed along any maximal chain (functoriality is validated)."""
        if j1 == j2:
            return QMatrix.identity(self.stratum_dim(j1, s))
        if not j1 < j2:
            raise PreconditionError("restriction requires nested index sets")
        added = sorted(j2 - j1, key=self.components.index)
        cur = j1
        mat = QMatrix.identity(self.stratum_dim(j1, s))
        for x in added:
            nxt = cur | {x}
            step = self.restrictions.get((cur, nxt), {}).get(s)
            if step is None:
                step = QMatrix.zero(self.stratum_dim(nxt, s), self.stratum_dim(cur, s))
            mat = step @ mat
            cur = nxt
        return mat

    def validate(self) -> "NerveDatum":
        for (j1, j2), mats in self.restrictions.items():
            if not (j1 < j2 and len(j2) == len(j1) + 1):
                raise SchemaError("restriction maps must join covering pairs")
            for s, m in mats.items():
                if m.cols != self.stratum_dim(j1, s) or m.rows != self.stratum_dim(j2, s):
                    raise SchemaError(f"restriction {sorted(j1)}->{sorted(j2)} "
                                      f"has wrong shape in degree {s}")
        # functoriality: squares J -> J+x -> J+x+y commute with J -> J+y -> ...
        subs = nonempty_subsets(self.components)
        for j in subs:
            rest = [c for c in self.components if c not in j]
            for x, y in combinations(rest, 2):
                for s in self.degrees():
                    top = j | {x, y}
                    via_x = self.restriction(j | {x}, top, s) @ self.restriction(j, j | {x}, s)
                    via_y = self.restriction(j | {y}, top, s) @ self.restriction(j, j | {y}, s)
                    if via_x != via_y:
                        raise PreconditionError(
                            f"restriction maps are not functorial at {sorted(j)} + "
                            f"{x!r},{y!r} in degree {s}")
        return self


def _cech_sign(j_small: frozenset, j_big: frozenset, order: list) -> int:
    """Sign of the nerve differential component J -> J + {x}: (-1)^position
    of x in the ordered enumeration of J + {x}."""
    (x,) = tuple(j_big - j_small)
    pos = sorted(j_big, key=order.index).index(x)
    return -1 if pos % 2 else 1


def cech_complex(nd: NerveDatum) -> FilteredComplex:
    """Total complex of the nerve double complex K^{r,s} = (+)_{|J|=r+1}
    H^s(M_J) with alternating-sign restriction differentials, filtered by
    the Cech index r.  Its first page reproduces the K^{r,s} dims."""
    nd.validate()
    comps = nd.components
    subs = nonempty_subsets(comps)
    by_size = {}
    for j in subs:
        by_size.setdefault(len(j) - 1, []).append(j)
    for r in by_size:
        by_size[r].sort(key=lambda j: sorted(comps.index(c) for c in j))
    degs = nd.degrees() or [0]
    smax = max(degs)
    rmax = len(comps) - 1

    # coordinate layout per total degree: blocks ordered by (r, J, s)
    layout = {}
    for n in range(0, rmax + smax + 1):
        blocks = []
        for r in range(0, min(n, rmax) + 1):
            s = n - r
            for j in by_size.get(r, []):
                dim = nd.stratum_dim(j, s)
                if dim:
                    blocks.append((r, s, j, dim))
        layout[n] = blocks

    def offsets(blocks):
        out = {}
        pos = 0
        for (r, s, j, dim) in blocks:
            out[(r, j)] = (pos, dim)
            pos += dim
        return out, pos

    spaces = {}
    diffs = {}
    for n, blocks in layout.items():
        _, total = offsets(blocks)
        spaces[n] = total
    for n in sorted(layout):
        src_off, src_dim = offsets(layout[n])
        tgt_off, tgt_dim = offsets(layout.get(n + 1, []))
        rows = [[Fraction(0)] * src_dim for _ in range(tgt_dim)]
        for (r, s, j, dim) in layout[n]:
            s0, _ = src_off[(r, j)]
            for x in comps:
                if x in j:
                    continue
                j2 = j | {x}
                key = (r + 1, j2)
                if key not in tgt_off:
                    continue
                t0, tdim = tgt_off[key]
                mat = nd.restriction(j, j2, s)
                sign = _cech_sign(j, j2, comps)
                for i in range(tdim):
                    for k in range(dim):
                        v = mat.entry(i, k)
                        if v:
                            rows[t0 + i][s0 + k] += sign * v
        if tgt_dim or src_dim:
            diffs[n] = QMatrix.from_rows(rows) if tgt_dim and src_dim \
                else QMatrix.zero(tgt_dim, src_dim)

    gc = GradedComplex(spaces, {n: m for n, m in diffs.items() if m.rows and m.cols})
    filtration = {}
    blocks_meta = {}
    labels = {}
    for n, blocks in layout.items():
        off, total = offsets(blocks)
        levels = {}
        for p in range(0, rmax + 2):
            vecs = []
            for (r, s, j, dim) in blocks:
                if r >= p:
                    b0, _ = off[(r, j)]
                    for k in range(dim):
                        v = [Fraction(0)] * total
                        v[b0 + k] = Fraction(1)
                        vecs.append(v)
            levels[p] = Subspace.from_vectors(total, vecs)
        filtration[n] = levels
        meta = []
        for (r, s, j, dim) in blocks:
            if meta and meta[-1][0] == (r, s):
                meta[-1] = ((r, s), meta[-1][1] + dim)
            else:
                meta.append(((r, s), dim))
        blocks_meta[n] = [(rs[0], rs[1], dim) for rs, dim in meta]
        for (r, s, j, dim) in blocks:
            labels[(r, s)] = nd.weight(s)
    return FilteredComplex(gc, filtration, blocks_meta, labels)


def flag_complex(nd: NerveDatum) -> GradedComplex:
    """The flag-indexed variant: the m-th space is the sum of H^*(M_{top})
    over flags of length m + 1, with the alternating sum of deletion maps."""
    nd.validate()
    comps = nd.components
    n_comp = len(comps)
    all_flags = {}
    for m in range(0, n_comp):
        flags = lambda_flags(n_comp, m)
        all_flags[m] = [tuple(frozenset(comps[i] for i in f) for f in flag)
                        for flag in flags]
    degs = nd.degrees() or [0]
    smax = max(degs)

    layout = {}
    for n in range(0, (n_comp - 1) + smax + 1):
        blocks = []
        for m in range(0, min(n, n_comp - 1) + 1):
            s = n - m
            for flag in all_flags[m]:
                dim = nd.stratum_dim(flag[-1], s)
                if dim:
                    blocks.append((m, s, flag, dim))
        layout[n] = blocks

    def offsets(blocks):
        out = {}
        pos = 0
        for (m, s, flag, dim) in blocks:
            out[(m, flag)] = (pos, dim)
            pos += dim
        return out, pos

    spaces = {}
    for n, blocks in layout.items():
        _, total = offsets(blocks)
        spaces[n] = total
    diffs = {}
    for n in sorted(layout):
        src_off, src_dim = offsets(layout[n])
        tgt_off, tgt_dim = offsets(layout.get(n + 1, []))
        rows = [[Fraction(0)] * src_dim for _ in range(tgt_dim)]
        for (m, s, flag, dim) in layout[n]:
            s0, _ = src_off[(m, flag)]
            # cofaces: flags of length m+2 whose deletion gives this flag
            for (m2, s2, flag2, dim2) in layout.get(n + 1, []):
                if m2 != m + 1 or s2 != s:
                    continue
                for del_at in range(m2 + 1):
                    if flag_delete(flag2, del_at) != flag:
                        continue
                    sign = -1 if del_at % 2 else 1
                    mat = nd.restriction(flag[-1], flag2[-1], s)  # identity unless top grew
                    t0, tdim = tgt_off[(m2, flag2)]
                    for i in range(tdim):
                        for k in range(dim):
                            v = mat.entry(i, k)
                            if v:
                                rows[t0 + i][s0 + k] += sign * v
        if tgt_dim or src_dim:
            diffs[n] = QMatrix.from_rows(rows) if tgt_dim and src_dim \
                else QMatrix.zero(tgt_dim, src_dim)
    gc = GradedComplex(spaces, {n: m for n, m in diffs.items() if m.rows and m.cols})
    return gc.validate()


def cech_vs_total_check(nd: NerveDatum, fc: FilteredComplex) -> bool:
    """Dimension-wise equality of the total cohomology computed by the
    standard nerve complex fc = cech_complex(nd) and by the flag-indexed
    variant."""
    flags = flag_complex(nd)
    degs = set(fc.complex.degrees()) | set(flags.degrees())
    for n in sorted(degs | {d + 1 for d in degs}):
        if fc.complex.cohomology_dim(n) != flags.cohomology_dim(n):
            return False
    return True
