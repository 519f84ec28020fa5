"""Filtered (phi,N)-modules over Q with exact verification of their
structure theory: monodromy/weight/slope filtrations, Hodge and Newton
numbers, weak admissibility and ordinarity, the kernel/image-filtration
collapse lemma, and the reduced-quotient checks exposed by the CLI as
phin-netcoh.

Conventions: the coefficient field is Q carrying the p-adic valuation,
q = p^a, and phi is an honest linear automorphism.  An eigenvalue of
valuation v_q = alpha contributes slope alpha and weight 2*alpha.

Weak admissibility compares t_N(W) and t_H(W) on (phi,N)-stable subspaces
W.  The sum of slope x length over the Newton polygon of phi|W is the
valuation of its determinant, so t_N(W) = v_p(det phi|W) / a, and the
induced Hodge filtration is read off ranks: dim(F^i /\\ W) = dim F^i +
dim W - dim(F^i + W).  `is_ordinary` takes the admissibility report its
caller already has (`rep`) instead of deciding admissibility again.

A PhiNModule keeps, on itself, what several checks of one module share:
its validation, the chain ker N^k, im N^k (one product per power), the
char poly, its rational factors and the slope decomposition of phi, and
the Hodge levels.  A module must not be mutated after construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (InconclusiveError, ModuleInvariantError, NilpotencyBoundError,
                     PreconditionError, SlopeDecompositionError)
from .exact_linalg import (QMatrix, QuotientMap, Subspace, char_poly,
                           factor_rational_poly, image, kernel, newton_polygon,
                           pvaluation, rat, subspace_intersect, subspace_sum)
from .filtration import DECREASING, INCREASING, IndexedFiltration
from .galois import factor_prime_power

INVARIANT_SUBSPACE_GUARD = 100_000


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
    # "valid" -> True, "n_chain" -> _n_chain(N), "char_poly" and "factors"
    # of phi, "slopes" -> its slope decomposition, "hodge_levels" -> [(i, fil^i)]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.phi.rows

    @property
    def q(self) -> int:
        return self.p ** self.a


def _cached(D: PhiNModule, key: str, make):
    """make(), computed once per module and kept on it."""
    if key not in D._memo:
        D._memo[key] = make()
    return D._memo[key]


def validate(D: PhiNModule) -> PhiNModule:
    """Check every module invariant, naming the first one that fails."""
    if D._memo.get("valid"):
        return D
    try:
        prime = factor_prime_power(D.p)[1] == 1
    except PreconditionError:
        prime = False
    if not prime:
        raise ModuleInvariantError("p_prime", f"p = {D.p} is not a prime")
    n = D.dim
    if D.phi.rows != D.phi.cols or D.N.rows != D.N.cols or D.N.rows != n:
        raise ModuleInvariantError("shape", "phi and N must be square of equal size")
    if D.phi.det() == 0:
        raise ModuleInvariantError("phi_invertible", "det(phi) = 0")
    if not D.N.power(n).is_zero():
        raise ModuleInvariantError("n_nilpotent", f"N^{n} != 0")
    lhs = D.N @ D.phi
    rhs = (D.phi @ D.N).scale(D.q)
    if lhs != rhs:
        raise ModuleInvariantError("commutation", "N phi != q phi N")
    if D.fil.ambient_dim != n or D.fil.orientation != DECREASING:
        raise ModuleInvariantError("filtration", "fil must be decreasing on Q^dim")
    D.fil.validate()
    if D.gamma_fil is not None:
        if D.gamma_fil.ambient_dim != n or D.gamma_fil.orientation != DECREASING:
            raise ModuleInvariantError("filtration", "gamma_fil must be decreasing on Q^dim")
        D.gamma_fil.validate()
    D._memo["valid"] = True
    return D


# ---------------------------------------------------------------------------
# filtrations attached to N

def _n_chain(N: QMatrix) -> tuple:
    """(kers, ims): kers[k] = ker N^k and ims[k] = im N^k for k = 0 up to the
    first power at which the kernels stop growing, after which both chains
    are constant; one product per power."""
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
    return tuple(kers), tuple(ims)


def _chain(D: PhiNModule) -> tuple:
    return _cached(D, "n_chain", lambda: _n_chain(D.N))


def _ker_power(N: QMatrix, k: int, chain=None) -> Subspace:
    """ker N^k, read off `chain` (_n_chain(N)) when given."""
    if k <= 0:
        return Subspace.zero(N.rows)
    if chain is None:
        return kernel(N.power(k))
    return chain[0][min(k, len(chain[0]) - 1)]


def _im_power(N: QMatrix, k: int, chain=None) -> Subspace:
    """im N^k, read off `chain` (_n_chain(N)) when given."""
    if k <= 0:
        return Subspace.full(N.rows)
    if chain is None:
        return image(N.power(k))
    return chain[1][min(k, len(chain[1]) - 1)]


def kernel_filtration(D: PhiNModule) -> IndexedFiltration:
    """Increasing filtration ker_i = ker(N^(i+1)) for i >= 0."""
    steps, chain = {}, _chain(D)
    for i in range(D.dim + 1):
        steps[i] = _ker_power(D.N, i + 1, chain)
        if steps[i].is_full():
            break
    return IndexedFiltration.make(D.dim, INCREASING, steps)


def image_filtration(D: PhiNModule) -> IndexedFiltration:
    """Decreasing filtration im_j = im(N^j) for j >= 0 (N^0 = identity)."""
    steps, chain = {}, _chain(D)
    for j in range(D.dim + 1):
        steps[j] = _im_power(D.N, j, chain)
        if steps[j].is_zero():
            break
    return IndexedFiltration.make(D.dim, DECREASING, steps)


def convolution_step(N: QMatrix, r: int, chain=None) -> Subspace:
    """M_r = sum_i ker(N^(i+1)) /\\ im(N^(i-r)).

    `chain` is _n_chain(N) when the caller keeps one; without it each power
    of N is formed anew."""
    n = N.rows
    out = Subspace.zero(n)
    for i in range(n + 1):
        term = subspace_intersect(_ker_power(N, i + 1, chain), _im_power(N, i - r, chain))
        out = subspace_sum(out, term)
        if out.is_full():
            break
    return out


def monodromy_filtration(D: PhiNModule) -> IndexedFiltration:
    """The convolution of the kernel and image filtrations of N, indexed on
    [-d, d].  Requires N^(d+1) = 0."""
    n, d = D.dim, D.d
    chain = _chain(D)
    if not _ker_power(D.N, d + 1, chain).is_full():
        raise NilpotencyBoundError(f"N^{d + 1} != 0 with d = {d}")
    steps = {r: convolution_step(D.N, r, chain=chain) for r in range(-d, d + 1)}
    return IndexedFiltration.make(n, INCREASING, steps)


# ---------------------------------------------------------------------------
# Hodge / Newton numbers

def hodge_numbers(D: PhiNModule) -> dict:
    """h_H(i) = dim fil^i / fil^(i+1), keyed by integer i."""
    keys = D.fil.keys()
    lo = int(min(keys)) - 1
    hi = int(max(keys)) + 1
    out = {}
    for i in range(lo, hi + 1):
        g = D.fil.at(i).dim - D.fil.at(i + 1).dim
        if g:
            out[i] = g
    assert sum(out.values()) == D.dim
    return out


def newton_numbers(D: PhiNModule) -> dict:
    """Slope multiplicities of phi, read off the q-adic Newton polygon of
    its characteristic polynomial."""
    np_ = newton_polygon(_char_poly(D), D.p, D.a)
    out = {s: l for s, l in np_.segments}
    assert sum(out.values()) == D.dim
    return out


def _char_poly(D: PhiNModule):
    return _cached(D, "char_poly", lambda: char_poly(D.phi))


def _factors(D: PhiNModule) -> list:
    return _cached(D, "factors", lambda: factor_rational_poly(_char_poly(D)))


def t_numbers(D: PhiNModule) -> tuple:
    """(t_N, t_H): slope-weighted and filtration-weighted dimension sums."""
    tn = sum((rat(a) * m for a, m in newton_numbers(D).items()), Fraction(0))
    th = sum((Fraction(i) * m for i, m in hodge_numbers(D).items()), Fraction(0))
    return tn, th


# ---------------------------------------------------------------------------
# slope decomposition of phi

def slope_decomposition(phi: QMatrix, p: int, a: int, factors=None) -> list:
    """[(slope, phi-stable generalized eigenspace sum)] sorted by slope.

    char(phi) is factored into rational irreducibles (`factors`, when the
    caller has them); each factor must have a pure Newton polygon,
    otherwise the valuations of its roots cannot be separated over Q and
    SlopeDecompositionError is raised.
    """
    n = phi.rows
    if factors is None:
        factors = factor_rational_poly(char_poly(phi))
    by_slope = {}
    for f, mult in factors:
        np_ = newton_polygon(f, p, a)
        if len(np_.segments) != 1:
            raise SlopeDecompositionError(
                f"irreducible factor {f.to_strings()} has mixed root valuations "
                f"{[str(s) for s, _ in np_.segments]}")
        slope = np_.segments[0][0]
        block = kernel(f.of_matrix(phi).power(mult))
        assert block.dim == f.degree * mult
        by_slope[slope] = subspace_sum(by_slope[slope], block) \
            if slope in by_slope else block
    out = sorted(by_slope.items(), key=lambda kv: kv[0])
    assert sum(b.dim for _, b in out) == n
    return out


def _slopes(D: PhiNModule) -> list:
    """slope_decomposition of D.phi, once per module; a failure is not kept."""
    return _cached(D, "slopes",
                   lambda: slope_decomposition(D.phi, D.p, D.a, factors=_factors(D)))


def slope_filtration(D: PhiNModule) -> IndexedFiltration:
    """Increasing filtration by slope; graded dims equal newton_numbers."""
    parts = _slopes(D)
    steps = {}
    acc = Subspace.zero(D.dim)
    for s, block in parts:
        acc = subspace_sum(acc, block)
        steps[s] = acc
    return IndexedFiltration.make(D.dim, INCREASING, steps)


def weight_filtration(D: PhiNModule) -> IndexedFiltration:
    """Increasing phi-stable filtration with gr_r pure of weight d + r,
    i.e. all eigenvalue valuations on gr_r equal to (d + r)/2."""
    parts = _slopes(D)
    steps = {}
    acc = Subspace.zero(D.dim)
    for s, block in parts:
        acc = subspace_sum(acc, block)
        steps[2 * s - D.d] = acc
    return IndexedFiltration.make(D.dim, INCREASING, steps)


def gamma_filtration(D: PhiNModule) -> IndexedFiltration:
    """Decreasing reindexing of the slope filtration: level r holds the
    slope <= d - r part (Frobenius acts as q^(d-r) on the r-th graded)."""
    if D.gamma_fil is not None:
        return D.gamma_fil
    parts = _slopes(D)
    n = D.dim
    steps = {}
    for r in range(0, D.d + 2):
        acc = Subspace.zero(n)
        for s, block in parts:
            if s <= D.d - r:
                acc = subspace_sum(acc, block)
        steps[r] = acc
    return IndexedFiltration.make(n, DECREASING, steps)


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


def _hodge_levels(D: PhiNModule) -> list:
    """[(i, fil^i)] for i from one below the lowest listed level to one
    above the highest."""
    def make():
        keys = D.fil.keys()
        return [(i, D.fil.at(i)) for i in range(int(min(keys)) - 1, int(max(keys)) + 2)]
    return _cached(D, "hodge_levels", make)


def _meet_dim(F: Subspace, W: Subspace) -> int:
    """dim(F /\\ W) = dim F + dim W - dim(F + W)."""
    if F.is_zero():
        return 0
    if F.is_full():
        return W.dim
    return F.dim + W.dim - subspace_sum(F, W).dim


def _t_numbers_of_subspace(D: PhiNModule, W: Subspace) -> tuple:
    """(t_N, t_H) of a (phi,N)-stable subspace with the induced filtration."""
    rows = W.basis_rows()
    # W's RREF rows are the identity at their pivot columns, so a vector of
    # W has its coordinates there
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    images = [D.phi.apply(row) for row in rows]
    det = QMatrix.from_rows([[v[j] for j in pivots] for v in images]).det()
    tn = Fraction(pvaluation(det, D.p), D.a)
    levels = _hodge_levels(D)
    dims = [_meet_dim(F, W) for _, F in levels]
    th = sum((Fraction(i) * (dims[k] - dims[k + 1])
              for k, (i, _) in enumerate(levels[:-1])), Fraction(0))
    return tn, th


def _is_stable(m: QMatrix, W: Subspace) -> bool:
    return all(W.contains_vector(m.apply(r)) for r in W.basis_rows())


def _phi_invariant_lattice(D: PhiNModule):
    """All phi-invariant subspaces when phi is cyclic (min poly = char poly),
    else None.  For cyclic phi they are exactly ker(prod f_i^{k_i})."""
    chains = []
    count = 1
    for f, mult in _factors(D):
        fm = f.of_matrix(D.phi)
        chain = [Subspace.zero(D.dim), kernel(fm)]
        if chain[1].dim != f.degree:
            return None  # more than one block for this factor: not cyclic
        power = fm
        for _ in range(2, mult + 1):
            power = power @ fm
            chain.append(kernel(power))
        chains.append(chain)
        count *= mult + 1
        if count > INVARIANT_SUBSPACE_GUARD:
            return None
    subspaces = [Subspace.zero(D.dim)]
    for chain in chains:
        subspaces = [subspace_sum(s, c) for s in subspaces for c in chain]
    uniq = {s: None for s in subspaces}
    return list(uniq)


def _nilpotent_invariant_lattice(D: PhiNModule):
    """All N-invariant subspaces when N is a single Jordan block."""
    n, chain = D.dim, _chain(D)
    if n >= 2 and _ker_power(D.N, n - 1, chain).is_full():
        return None
    return [_ker_power(D.N, k, chain) for k in range(0, n + 1)]


def _closure(D: PhiNModule, vectors) -> Subspace:
    """The smallest (phi,N)-stable subspace containing `vectors`."""
    span = Subspace.from_vectors(D.dim, vectors)
    while True:
        rows = span.basis_rows()
        nxt = Subspace.from_vectors(D.dim, rows + [D.phi.apply(r) for r in rows]
                                    + [D.N.apply(r) for r in rows])
        if nxt.dim == span.dim:
            return span
        span = nxt


def _sampled_candidates(D: PhiNModule, seed: int, budget: int) -> list:
    """Jointly stable candidate subspaces, not exhaustive."""
    n = D.dim
    cands = {}

    def add(s):
        if 0 < s.dim < n:
            cands.setdefault(s, None)

    chain = _chain(D)
    base = [_ker_power(D.N, k, chain) for k in range(1, n)] + \
           [_im_power(D.N, k, chain) for k in range(1, n)]
    try:
        acc = Subspace.zero(n)
        for _, block in _slopes(D):
            acc = subspace_sum(acc, block)
            base.append(acc)  # slope <= s sums are N-stable since N lowers slope
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

    Certified when the joint invariant-subspace lattice is finite along a
    recognized route (cyclic phi, or N a single Jordan block); otherwise a
    sampled verdict.  A violating witness always certifies non-admissibility.
    """
    validate(D)
    tn, th = t_numbers(D)
    if tn != th:
        return AdmissibilityReport(tn, th, "not_admissible", True,
                                   witness=None, method="global", checked=0)

    candidates = None
    method = ""
    lattice = _phi_invariant_lattice(D)
    if lattice is not None:
        candidates = [s for s in lattice if _is_stable(D.N, s)]
        method = "cyclic-phi"
    else:
        lattice = _nilpotent_invariant_lattice(D)
        if lattice is not None:
            candidates = [s for s in lattice if _is_stable(D.phi, s)]
            method = "cyclic-N"
    certified = candidates is not None
    if candidates is None:
        candidates = _sampled_candidates(D, seed, budget)
        method = "sampled"

    checked = 0
    for W in candidates:
        if W.dim in (0, D.dim):
            continue
        checked += 1
        wtn, wth = _t_numbers_of_subspace(D, W)
        if wtn < wth:
            return AdmissibilityReport(tn, th, "not_admissible", True,
                                       witness=W, method=method, checked=checked)
    if certified:
        return AdmissibilityReport(tn, th, "admissible", True,
                                   method=method, checked=checked)
    return AdmissibilityReport(tn, th, "sampled_inconclusive", False,
                               method=method, checked=checked)


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
    if not _ker_power(N, d + 1, chain).is_full():
        raise NilpotencyBoundError(f"N^{d + 1} != 0")
    fa, fb = {}, {}
    levels = []
    for j in range(0, d + 2):
        fa[j] = convolution_step(N, d - 2 * j, chain=chain)
        fb[j] = convolution_step(N, d - 2 * j + 1, chain=chain)
        levels.append((j, fa[j].dim, fb[j].dim))
    h1 = all(fa[j] == fb[j] for j in range(0, d + 2))
    h2 = _ker_power(N, 1, chain) == fa[d]
    conclusion = None
    if h1 and h2:
        conclusion = all(
            _ker_power(N, d + 1 - j, chain) == _im_power(N, j, chain) == fa[j]
            for j in range(0, d + 2))
    return CollapseReport(d, h1, h2, conclusion, tuple(levels))


# ---------------------------------------------------------------------------
# the quotient by the phi-stable complement C and its checks

def cbar_quotient(D: PhiNModule):
    """(C, Dbar): C = 0 for odd d; for even d, C is the sum of the nonzero
    slope components of phi restricted to ker(N), and Dbar = D/C with the
    induced structure."""
    validate(D)
    n = D.dim
    if D.d % 2 == 1:
        c = Subspace.zero(n)
    else:
        kerN = _ker_power(D.N, 1, _chain(D))
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
    validate(dbar)
    return c, dbar


def monodromy_weight_check(D: PhiNModule) -> bool:
    """True iff the monodromy filtration equals the weight filtration."""
    return monodromy_filtration(D).same_filtration(weight_filtration(D))


def monodromy_weight_diff(D: PhiNModule) -> list:
    """Step-level differences [(r, dim M_r, dim P_r)]."""
    return monodromy_filtration(D).step_diff(weight_filtration(D))


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
    validate(D)
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

    nbar, chain = dbar.N, _chain(dbar)
    c_ok = True
    for r in range(0, d + 2):
        fr = gam.at(r)
        if fr != _ker_power(nbar, d + 1 - r, chain) or fr != _im_power(nbar, r, chain):
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
