"""Filtered (phi,N)-modules over Q with exact verification of their
structure theory: monodromy/weight/slope filtrations, Hodge and Newton
numbers, weak admissibility and ordinarity, the kernel/image-filtration
collapse lemma, and the reduced-quotient checks exposed by the CLI as
phin-netcoh.

Conventions: the coefficient field is Q carrying the p-adic valuation,
q = p^a, and phi is an honest linear automorphism.  An eigenvalue of
valuation v_q = alpha contributes slope alpha and weight 2*alpha.

Every ker N^k, im N^k and "N^k = 0" is read off one chain (`_n_chain`:
kernels and images of N, N^2, ... up to where they stop changing, one
product per power); no other power of N is formed.

Weak admissibility compares t_N(W) and t_H(W) on (phi,N)-stable subspaces W.
One route certifies it: `_stable_lattice` lists all stable W of a cyclic phi;
other modules are sampled.  The sum of slope x length over the Newton polygon
of phi|W is the valuation of its determinant, so t_N(W) = v_p(det phi|W) / a,
and the induced Hodge filtration is read off ranks: dim(F^i /\\ W) = dim F^i +
dim W - dim(F^i + W).  `is_ordinary` takes the admissibility report its caller
already has (`rep`) instead of deciding admissibility again.

A PhiNModule checks its invariants once, when it is built (so does
`dataclasses.replace`), and keeps what several checks of one module share
as cached properties: the N chain, the char poly of phi, its rational
factors, the kernel chain ker f(phi)^k of each factor f (read by both
`_stable_lattice` and the slope filtration) and the slope filtration.  Each
is computed on its first read; a read that raises caches nothing.  A module
must not be mutated after construction; `dataclasses.replace` gives a new
module whose cache holds only the N chain its checks read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from math import prod
from typing import NamedTuple

from .errors import (InconclusiveError, ModuleInvariantError, NilpotencyBoundError,
                     SlopeDecompositionError)
from .exact_linalg import (Polynomial, QMatrix, QuotientMap, Subspace, _insert,
                           _integer_row, char_poly, factor_rational_poly, image,
                           image_of_subspace, kernel, newton_polygon, pvaluation, rat,
                           subspace_intersect, subspace_sum)
from .filtration import DECREASING, INCREASING, IndexedFiltration
from .galois import is_prime

INVARIANT_SUBSPACE_GUARD = 100_000


class NChain(NamedTuple):
    """kers[k] = ker N^k and ims[k] = im N^k for k = 0 up to the first power
    at which the kernels stop growing; both are constant past either end."""
    kers: tuple
    ims: tuple

    def ker(self, k: int) -> Subspace:
        return self.kers[min(max(k, 0), len(self.kers) - 1)]

    def im(self, k: int) -> Subspace:
        return self.ims[min(max(k, 0), len(self.ims) - 1)]


def _n_chain(N: QMatrix) -> NChain:
    kers, ims = [Subspace.zero(N.rows)], [Subspace.full(N.rows)]
    power = N
    while True:
        ker = kernel(power)
        if ker.dim == kers[-1].dim:
            break
        kers.append(ker)
        ims.append(image(power))
        if ker.is_full():
            break
        power = power @ N
    return NChain(tuple(kers), tuple(ims))


def _kernel_chain(M: QMatrix, top: int) -> tuple:
    """ker M^k for k = 0, 1, ... up to the first of dimension `top`, where
    the chain stops growing; one product per power."""
    kers, power = [Subspace.zero(M.rows)], M
    while True:
        kers.append(kernel(power))
        if kers[-1].dim == top:
            return tuple(kers)
        power = power @ M


@dataclass(frozen=True)
class PhiNModule:
    """Finite-dimensional Q-vector space with invertible phi, nilpotent N
    satisfying N phi = q phi N, and a decreasing filtration.

    `gamma_fil` optionally carries a second, slope-indexed filtration; when
    absent it is derived from the slope decomposition of phi."""

    p: int
    a: int
    d: int
    phi: QMatrix
    N: QMatrix
    fil: IndexedFiltration
    gamma_fil: IndexedFiltration | None = None

    @property
    def dim(self) -> int:
        return self.phi.rows

    @property
    def q(self) -> int:
        return self.p ** self.a

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Check every module invariant, naming the first one that fails;
        the filtrations checked themselves when they were built."""
        if not is_prime(self.p):
            raise ModuleInvariantError("p_prime", f"p = {self.p} is not a prime")
        n = self.dim
        if self.phi.rows != self.phi.cols or self.N.rows != self.N.cols or self.N.rows != n:
            raise ModuleInvariantError("shape", "phi and N must be square of equal size")
        if self.phi.det() == 0:
            raise ModuleInvariantError("phi_invertible", "det(phi) = 0")
        if not self.n_chain.ker(n).is_full():
            raise ModuleInvariantError("n_nilpotent", f"N^{n} != 0")
        if self.N @ self.phi != (self.phi @ self.N).scale(self.q):
            raise ModuleInvariantError("commutation", "N phi != q phi N")
        for name in ("fil", "gamma_fil"):
            fl = getattr(self, name)
            if fl is not None and (fl.ambient_dim != n or fl.orientation != DECREASING):
                raise ModuleInvariantError("filtration", f"{name} must be decreasing on Q^dim")

    @cached_property
    def n_chain(self) -> NChain:
        return _n_chain(self.N)

    @cached_property
    def char_poly(self) -> Polynomial:
        return char_poly(self.phi)

    @cached_property
    def factors(self) -> list:
        return factor_rational_poly(self.char_poly)

    @cached_property
    def factor_chains(self) -> tuple:
        """Per factor f of multiplicity m in `factors`: ker f(phi)^k from k = 0
        up to the generalised eigenspace, of dimension m deg f."""
        return tuple(_kernel_chain(f.of_matrix(self.phi), f.degree * mult)
                     for f, mult in self.factors)

    @cached_property
    def slope_fil(self) -> IndexedFiltration:
        """Increasing filtration by slope of phi: the partial sums of its
        slope decomposition; graded dims equal newton_numbers."""
        steps, acc = {}, Subspace.zero(self.dim)
        for s, block in slope_decomposition(self.phi, self.p, self.a, factors=self.factors,
                                            chains=self.factor_chains):
            acc = subspace_sum(acc, block)
            steps[s] = acc
        return IndexedFiltration.make(self.dim, INCREASING, steps)


# the name perfbench/selftest.py checks each loaded module with; a module
# has already checked itself when it was built, so nothing else calls it
validate = PhiNModule.validate


# ---------------------------------------------------------------------------
# filtrations attached to N

def kernel_filtration(D: PhiNModule) -> IndexedFiltration:
    """Increasing filtration ker_i = ker(N^(i+1)) for i >= 0."""
    steps = {}
    for i in range(D.dim + 1):
        steps[i] = D.n_chain.ker(i + 1)
        if steps[i].is_full():
            break
    return IndexedFiltration.make(D.dim, INCREASING, steps)


def image_filtration(D: PhiNModule) -> IndexedFiltration:
    """Decreasing filtration im_j = im(N^j) for j >= 0 (N^0 = identity)."""
    steps = {}
    for j in range(D.dim + 1):
        steps[j] = D.n_chain.im(j)
        if steps[j].is_zero():
            break
    return IndexedFiltration.make(D.dim, DECREASING, steps)


def convolution_step(N: QMatrix, r: int, chain: NChain | None = None) -> Subspace:
    """M_r = sum_i ker(N^(i+1)) /\\ im(N^(i-r)); `chain` is _n_chain(N),
    built here when the caller keeps none."""
    if chain is None:
        chain = _n_chain(N)
    out = Subspace.zero(N.rows)
    for i in range(N.rows + 1):
        out = subspace_sum(out, subspace_intersect(chain.ker(i + 1), chain.im(i - r)))
        if out.is_full():
            break
    return out


def monodromy_filtration(D: PhiNModule) -> IndexedFiltration:
    """The convolution of the kernel and image filtrations of N, indexed on
    [-d, d].  Requires N^(d+1) = 0."""
    if not D.n_chain.ker(D.d + 1).is_full():
        raise NilpotencyBoundError(f"N^{D.d + 1} != 0 with d = {D.d}")
    steps = {r: convolution_step(D.N, r, chain=D.n_chain) for r in range(-D.d, D.d + 1)}
    return IndexedFiltration.make(D.dim, INCREASING, steps)


# ---------------------------------------------------------------------------
# Hodge / Newton numbers

def hodge_numbers(D: PhiNModule) -> dict:
    """h_H(i) = dim fil^i / fil^(i+1), keyed by integer i."""
    return {int(i): g for i, g in D.fil.graded_dims().items()}


def newton_numbers(D: PhiNModule) -> dict:
    """Slope multiplicities of phi, read off the q-adic Newton polygon of
    its characteristic polynomial."""
    np_ = newton_polygon(D.char_poly, D.p, D.a)
    out = {s: l for s, l in np_.segments}
    assert sum(out.values()) == D.dim
    return out


def t_numbers(D: PhiNModule) -> tuple:
    """(t_N, t_H): slope-weighted and filtration-weighted dimension sums."""
    tn = sum((rat(a) * m for a, m in newton_numbers(D).items()), Fraction(0))
    th = sum((Fraction(i) * m for i, m in hodge_numbers(D).items()), Fraction(0))
    return tn, th


# ---------------------------------------------------------------------------
# slope decomposition of phi

def slope_decomposition(phi: QMatrix, p: int, a: int, factors=None, chains=None) -> list:
    """[(slope, phi-stable generalized eigenspace sum)] sorted by slope.

    char(phi) is factored into rational irreducibles (`factors`, when the
    caller has them); each factor must have a pure Newton polygon,
    otherwise the valuations of its roots cannot be separated over Q and
    SlopeDecompositionError is raised.  `chains`, when the caller has them,
    are the factors' kernel chains (`PhiNModule.factor_chains`), whose last
    levels are the generalised eigenspaces.
    """
    n = phi.rows
    if factors is None:
        factors = factor_rational_poly(char_poly(phi))
    by_slope = {}
    for j, (f, mult) in enumerate(factors):
        np_ = newton_polygon(f, p, a)
        if len(np_.segments) != 1:
            raise SlopeDecompositionError(
                f"irreducible factor {f.to_strings()} has mixed root valuations "
                f"{[str(s) for s, _ in np_.segments]}")
        slope = np_.segments[0][0]
        chain = chains[j] if chains else _kernel_chain(f.of_matrix(phi), f.degree * mult)
        block = chain[-1]
        assert block.dim == f.degree * mult
        by_slope[slope] = subspace_sum(by_slope[slope], block) \
            if slope in by_slope else block
    out = sorted(by_slope.items(), key=lambda kv: kv[0])
    assert sum(b.dim for _, b in out) == n
    return out


def slope_filtration(D: PhiNModule) -> IndexedFiltration:
    """Increasing filtration by slope; graded dims equal newton_numbers."""
    return D.slope_fil


def weight_filtration(D: PhiNModule) -> IndexedFiltration:
    """Increasing phi-stable filtration with gr_r pure of weight d + r,
    i.e. all eigenvalue valuations on gr_r equal to (d + r)/2."""
    return IndexedFiltration(D.dim, INCREASING,
                             tuple((2 * s - D.d, S) for s, S in D.slope_fil.steps))


def gamma_filtration(D: PhiNModule) -> IndexedFiltration:
    """Decreasing reindexing of the slope filtration: level r holds the
    slope <= d - r part (Frobenius acts as q^(d-r) on the r-th graded)."""
    if D.gamma_fil is not None:
        return D.gamma_fil
    return IndexedFiltration.make(D.dim, DECREASING,
                                  {r: D.slope_fil.at(D.d - r) for r in range(0, D.d + 2)})


# ---------------------------------------------------------------------------
# admissibility

@dataclass(frozen=True)
class AdmissibilityReport:
    t_N: Fraction
    t_H: Fraction
    verdict: str                    # admissible | not_admissible | sampled_inconclusive
    certified: bool
    witness: Subspace | None = None
    method: str = ""
    checked: int = 0


def _meet_dim(F: Subspace, W: Subspace) -> int:
    """dim(F /\\ W) = dim F + dim W - dim(F + W)."""
    if F.is_zero():
        return 0
    if F.is_full():
        return W.dim
    return F.dim + W.dim - F.sum_dim(W)


def _t_numbers_of_subspace(D: PhiNModule, W: Subspace) -> tuple:
    """(t_N, t_H) of a (phi,N)-stable subspace with the induced filtration."""
    rows = W.basis_rows()
    # W's RREF rows are the identity at their pivot columns, so a vector of
    # W has its coordinates there
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    images = [D.phi.apply(row) for row in rows]
    det = QMatrix.from_rows([[v[j] for j in pivots] for v in images]).det()
    tn = Fraction(pvaluation(det, D.p), D.a)
    # fil is constant between its listed levels and zero above the last
    dims = [_meet_dim(F, W) for _, F in D.fil.steps] + [0]
    th = sum((i * (dims[k] - dims[k + 1]) for k, (i, _) in enumerate(D.fil.steps)),
             Fraction(0))
    return tn, th


def _stable_lattice(D: PhiNModule):
    """All (phi,N)-stable subspaces when phi is cyclic (min poly = char poly),
    in the order of the product over D.factors of the chains ker f(phi)^k
    (D.factor_chains: first factor outermost, k increasing); None when phi
    is not cyclic or more than INVARIANT_SUBSPACE_GUARD are stable.  A sum
    of one ker f(phi)^k per factor is N-stable iff the level of f_q is at
    least need[f][k], the least level of the chain of f_q holding
    N ker f(phi)^k.  The edges f -> f_q form disjoint paths, as v_q drops by
    1 along each."""
    chains = D.factor_chains
    if any(chain[1].dim != f.degree for chain, (f, _) in zip(chains, D.factors)):
        return None  # more than one block for some factor: not cyclic
    index = {f: j for j, (f, _) in enumerate(D.factors)}
    succ, need = {}, {}
    for j, (f, _) in enumerate(D.factors):
        # f_q(x) = f(qx) / q^deg(f), whose roots are f's divided by q
        fq = Polynomial.from_coeffs([c * Fraction(D.q) ** (i - f.degree)
                                     for i, c in enumerate(f.coeffs)])
        if fq in index:
            succ[j] = t = index[fq]
            need[j] = [next(k for k, T in enumerate(chains[t]) if T.contains(NS))
                       for NS in (image_of_subspace(D.N, S) for S in chains[j])]

    def ways(j):
        """The number of stable choices from j to the end of its path, per level of j."""
        if j not in succ:
            return [1] * len(chains[j])
        tail = list(accumulate(reversed(ways(succ[j]))))[::-1]
        return [tail[k] for k in need[j]]

    def choices(j):
        """The stable choices [(j, k), (f_q, k'), ...] from j to the end of its path."""
        tails = choices(succ[j]) if j in succ else [[]]
        return [[(j, k)] + s for k in range(len(chains[j])) for s in tails
                if not s or s[0][1] >= need[j][k]]

    heads = [j for j in range(len(chains)) if j not in succ.values()]
    if prod(sum(ways(j)) for j in heads) > INVARIANT_SUBSPACE_GUARD:
        return None
    # one choice per path; sorting by the levels in D.factors order gives the product order
    picks = sorted([k for _, k in sorted(sum(combo, []))]
                   for combo in product(*map(choices, heads)))
    return [Subspace.from_vectors(D.dim, [r for j, k in enumerate(ks)
                                          for r in chains[j][k].basis_rows()])
            for ks in picks]


def _closure(D: PhiNModule, vectors) -> Subspace:
    """The smallest (phi,N)-stable subspace containing `vectors`: a worklist
    of integer vectors, each reduced against the echelon rows found so far;
    phi and N are applied only to the vectors that were independent."""
    echelon, todo = [], [_integer_row(v) for v in vectors]
    while todo and len(echelon) < D.dim:
        v = _insert(echelon, todo.pop())
        if v is not None:
            todo += [D.phi.apply_int(v), D.N.apply_int(v)]
    return Subspace.from_vectors(D.dim, [row for _, row in echelon])


def _sampled_candidates(D: PhiNModule, seed: int, budget: int) -> list:
    """Jointly stable candidate subspaces, not exhaustive."""
    n = D.dim
    cands = {}

    def add(s):
        if 0 < s.dim < n:
            cands.setdefault(s, None)

    chain = D.n_chain
    base = [chain.ker(k) for k in range(1, n)] + [chain.im(k) for k in range(1, n)]
    try:
        # slope <= s parts are N-stable since N lowers slope
        base += [S for _, S in D.slope_fil.steps]
    except SlopeDecompositionError:
        pass
    for s in base:
        add(s)
    # close the base family under sum and intersection (one round is enough
    # at desk scale; all members are jointly stable)
    snapshot = list(cands)
    for i, s1 in enumerate(snapshot):
        for s2 in snapshot[i + 1:]:
            add(subspace_sum(s1, s2))
            add(subspace_intersect(s1, s2))
    rng = random.Random(seed)
    for _ in range(budget):
        v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        if all(x == 0 for x in v):
            continue
        add(_closure(D, [v]))
    return list(cands)


def is_weakly_admissible(D: PhiNModule, seed: int = 0, budget: int = 64) -> AdmissibilityReport:
    """t_N = t_H globally and t_N >= t_H on every (phi,N)-stable subspace.

    Certified ("cyclic-phi") when phi is cyclic and at most
    INVARIANT_SUBSPACE_GUARD subspaces are stable; otherwise a sampled
    verdict.  A violating witness always certifies non-admissibility.
    """
    tn, th = t_numbers(D)
    if tn != th:
        return AdmissibilityReport(tn, th, "not_admissible", True,
                                   witness=None, method="global", checked=0)

    candidates = _stable_lattice(D)
    certified = candidates is not None
    method = "cyclic-phi" if certified else "sampled"
    if not certified:
        candidates = _sampled_candidates(D, seed, budget)

    checked = 0
    for W in candidates:
        if W.dim in (0, D.dim):
            continue
        checked += 1
        wtn, wth = _t_numbers_of_subspace(D, W)
        if wtn < wth:
            return AdmissibilityReport(tn, th, "not_admissible", True,
                                       witness=W, method=method, checked=checked)
    verdict = "admissible" if certified else "sampled_inconclusive"
    return AdmissibilityReport(tn, th, verdict, certified, method=method, checked=checked)


def is_ordinary(D: PhiNModule, seed: int = 0, budget: int = 64,
                rep: AdmissibilityReport | None = None) -> bool:
    """Weakly admissible with integral slopes matching the Hodge numbers.

    `rep` is D's admissibility report when the caller has one; otherwise it
    is computed from seed and budget.  Raises InconclusiveError if
    admissibility is only sampled while the two numeric clauses hold."""
    hn = newton_numbers(D)
    hh = hodge_numbers(D)
    for alpha in hn:
        if alpha.denominator != 1 or alpha < 0:
            return False
    if {int(a): m for a, m in hn.items()} != dict(hh):
        return False
    if rep is None:
        rep = is_weakly_admissible(D, seed=seed, budget=budget)
    if rep.verdict == "sampled_inconclusive":
        raise InconclusiveError(
            "admissibility could not be certified; ordinarity undecided")
    return rep.verdict == "admissible"


# ---------------------------------------------------------------------------
# opposedness and the collapse lemma

def check_opposite(fil_a: IndexedFiltration, fil_b: IndexedFiltration, d: int) -> bool:
    """True iff fil_a^r (+) fil_b^(d+1-r) = ambient for every r."""
    if fil_a.ambient_dim != fil_b.ambient_dim:
        raise ModuleInvariantError("shape", "ambient dimension mismatch")
    n = fil_a.ambient_dim
    rs = set()
    for k in fil_a.keys():
        rs.update([int(k) - 1, int(k), int(k) + 1])
    for k in fil_b.keys():
        rs.update([d + 1 - int(k) - 1, d + 1 - int(k), d + 1 - int(k) + 1])
    for r in rs:
        a = fil_a.at(r)
        b = fil_b.at(d + 1 - r)
        if not subspace_intersect(a, b).is_zero() or a.dim + b.dim != n:
            return False
    return True


@dataclass(frozen=True)
class CollapseReport:
    """Outcome of the kernel/image-filtration collapse check for a nilpotent
    endomorphism with N^(d+1) = 0.

    h1: the two convolution formulas agree at every level j >= 0.
    h2: ker(N) equals the top level F^d.
    conclusion: ker(N^(d+1-j)) = im(N^j) = F^j for all j; only asserted
    (and only guaranteed) when h1 and h2 both hold.
    """
    d: int
    h1: bool
    h2: bool
    conclusion: bool | None
    levels: tuple  # (j, dim F_a^j, dim F_b^j) per level


def kernel_image_collapse(N: QMatrix, d: int) -> CollapseReport:
    chain = _n_chain(N)
    if not chain.ker(d + 1).is_full():
        raise NilpotencyBoundError(f"N^{d + 1} != 0")
    fa, fb = {}, {}
    levels = []
    for j in range(0, d + 2):
        fa[j] = convolution_step(N, d - 2 * j, chain=chain)
        fb[j] = convolution_step(N, d - 2 * j + 1, chain=chain)
        levels.append((j, fa[j].dim, fb[j].dim))
    h1 = all(fa[j] == fb[j] for j in range(0, d + 2))
    h2 = chain.ker(1) == fa[d]
    conclusion = None
    if h1 and h2:
        conclusion = all(
            chain.ker(d + 1 - j) == chain.im(j) == fa[j]
            for j in range(0, d + 2))
    return CollapseReport(d, h1, h2, conclusion, tuple(levels))


# ---------------------------------------------------------------------------
# the quotient by the phi-stable complement C and its checks

def cbar_quotient(D: PhiNModule):
    """(C, Dbar): C = 0 for odd d; for even d, C is the sum of the nonzero
    slope components of phi restricted to ker(N), and Dbar = D/C with the
    induced structure."""
    n = D.dim
    if D.d % 2 == 1:
        c = Subspace.zero(n)
    else:
        kerN = D.n_chain.ker(1)
        qm = QuotientMap(Subspace.zero(n), kerN)
        phi_k = qm.induced_matrix(D.phi)
        c = Subspace.zero(n)
        if kerN.dim:
            for s, block in slope_decomposition(phi_k, D.p, D.a):
                if s != 0:
                    lifted = Subspace.from_vectors(
                        n, [qm.lift(r) for r in block.basis_rows()])
                    c = subspace_sum(c, lifted)
    qm = QuotientMap(c, Subspace.full(n))
    dbar = PhiNModule(
        p=D.p, a=D.a, d=D.d,
        phi=qm.induced_matrix(D.phi),
        N=qm.induced_matrix(D.N),
        fil=D.fil.map_subspaces(qm.subspace_image),
        gamma_fil=gamma_filtration(D).map_subspaces(qm.subspace_image),
    )
    return c, dbar


def monodromy_weight_check(D: PhiNModule) -> bool:
    """True iff the monodromy filtration equals the weight filtration."""
    return monodromy_filtration(D).same_filtration(weight_filtration(D))


@dataclass(frozen=True)
class ReducedModuleReport:
    """Per-clause outcome of the checks on Dbar = D/C.

    a: the images of the Hodge and gamma filtrations are opposite.
    b: the gamma filtration is phi-stable with phi = q^(d-r) on its r-th
       graded piece.
    c: the gamma filtration equals both the kernel and image filtrations
       of the induced nilpotent operator.
    """
    a: bool
    b: bool
    c: bool
    dim_c: int
    c_meets_middle: bool | None   # True iff C /\ gamma^(d/2+1) != 0 (even d)
    mw_holds: bool
    inconclusive: str | None = None


def reduced_module_check(D: PhiNModule) -> ReducedModuleReport:
    try:
        c, dbar = cbar_quotient(D)
    except SlopeDecompositionError as e:
        return ReducedModuleReport(False, False, False, 0, None,
                                   False, inconclusive=str(e))
    d = D.d
    gam = dbar.gamma_fil
    hodge = dbar.fil
    a_ok = check_opposite(hodge, gam, d)

    q = Fraction(D.q)
    b_ok = True
    for r in range(0, d + 1):
        fr = gam.at(r)
        fr1 = gam.at(r + 1)
        for v in fr.basis_rows():
            img = dbar.phi.apply(v)
            if not fr.contains_vector(img):
                b_ok = False
                break
            shifted = tuple(x - (q ** (d - r)) * y for x, y in zip(img, v))
            if not fr1.contains_vector(shifted):
                b_ok = False
                break
        if not b_ok:
            break

    chain = dbar.n_chain
    c_ok = True
    for r in range(0, d + 2):
        fr = gam.at(r)
        if fr != chain.ker(d + 1 - r) or fr != chain.im(r):
            c_ok = False
            break

    meets = None
    if d % 2 == 0:
        mid = gamma_filtration(D).at(d // 2 + 1)
        meets = not subspace_intersect(c, mid).is_zero()
    try:
        mw = monodromy_weight_check(D)
    except NilpotencyBoundError:
        mw = False
    return ReducedModuleReport(a_ok, b_ok, c_ok, c.dim, meets, mw)
