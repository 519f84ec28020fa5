"""Cech complexes of closed coverings given as combinatorial nerve data.

A NerveDatum records, for each nonempty set J of covering components, the
graded dimensions of the cohomology of the J-fold intersection stratum
together with functorial restriction maps towards deeper strata.  Two
complexes are built from it: the standard nerve complex indexed by the
sets J themselves, and the flag-indexed variant whose m-cells are chains
J_0 < J_1 < ... < J_m of nonempty subsets; both compute the same total
cohomology.  Each is a summand list and a block callback for the shared
block-layout builder in `spectral`.  A NerveDatum validates itself once, at
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import PreconditionError, SchemaError
from .exact_linalg import QMatrix
from .spectral import (DirectSum, FilteredComplex, GradedComplex, filtered_total_complex,
                       total_cohomology_dims, total_complex)


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

    def __post_init__(self):
        self.validate()

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
        if not j1 <= j2:
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

    def validate(self):
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


def cech_complex(nd: NerveDatum) -> FilteredComplex:
    """Total complex of the nerve double complex K^{r,s} = (+)_{|J|=r+1}
    H^s(M_J) with alternating-sign restriction differentials, filtered by
    the Cech index r.  Its first page reproduces the K^{r,s} dims."""
    comps = nd.components
    rmax = len(comps) - 1
    smax = max(nd.degrees() or [0])
    subs = nonempty_subsets(comps)
    # summands (J, s) of each total degree, ordered by (r, J) with r = |J| - 1
    summands = {n: [((j, n - r), r, n - r, nd.stratum_dim(j, n - r))
                    for r in range(0, min(n, rmax) + 1) for j in subs
                    if len(j) == r + 1 and nd.stratum_dim(j, n - r)]
                for n in range(0, rmax + smax + 1)}

    def cofaces(key):
        j, s = key
        for k, x in enumerate(comps):
            if x not in j and nd.stratum_dim(j | {x}, s):
                # (-1)^(position of x in J + {x}, in component order)
                sign = -1 if len(j.intersection(comps[:k])) % 2 else 1
                yield (j | {x}, s), nd.restriction(j, j | {x}, s), sign

    return filtered_total_complex(summands, cofaces, range(0, rmax + 2),
                                  lambda r, s: nd.weight(s))


def flag_complex(nd: NerveDatum) -> GradedComplex:
    """The flag-indexed variant: the m-th space is the sum of H^*(M_{top})
    over flags of length m + 1, with the alternating sum of deletion maps."""
    comps = nd.components
    n_comp = len(comps)
    smax = max(nd.degrees() or [0])
    all_flags = {m: [tuple(frozenset(comps[i] for i in f) for f in flag)
                     for flag in lambda_flags(n_comp, m)]
                 for m in range(0, n_comp)}
    # the cofaces of a flag: the longer flags it is a face of, with the sign
    # of the deleted position
    cofaces = {}
    for m in range(1, n_comp):
        for flag2 in all_flags[m]:
            for at in range(m + 1):
                cofaces.setdefault(flag_delete(flag2, at), []).append(
                    (flag2, -1 if at % 2 else 1))
    sums = {n: DirectSum(((flag, n - m), nd.stratum_dim(flag[-1], n - m))
                         for m in range(0, min(n, n_comp - 1) + 1) for flag in all_flags[m]
                         if nd.stratum_dim(flag[-1], n - m))
            for n in range(0, (n_comp - 1) + smax + 1)}

    def blocks(key):
        flag, s = key
        for flag2, sign in cofaces.get(flag, []):
            if nd.stratum_dim(flag2[-1], s):
                # identity unless the top stratum grew
                yield (flag2, s), nd.restriction(flag[-1], flag2[-1], s), sign

    return total_complex(sums, blocks)


def cech_vs_total_check(nd: NerveDatum, fc: FilteredComplex) -> bool:
    """Dimension-wise equality of the total cohomology of the standard nerve
    complex fc = cech_complex(nd), read off its persistence pairing, and of
    the flag-indexed variant, from kernels and images."""
    flags = flag_complex(nd)
    h = total_cohomology_dims(fc)
    degs = set(fc.complex.degrees()) | set(flags.degrees())
    for n in sorted(degs | {d + 1 for d in degs}):
        if h.get(n, 0) != flags.cohomology_dim(n):
            return False
    return True
