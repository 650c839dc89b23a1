"""Pipeline: invariant tables, necessary-condition rules, witness verification.

For an A-finite corank-one monogerm the engine tabulates, per multiplicity k
and cycle type, the expected dimension, Milnor number (or origin/emptiness
data) of D^k(f)^sigma, and the alternating Milnor number

    muAlt(D^k) = (1/k!) [ sum_{d>=0} |class| mu(D^k ^sigma)
                          - sum_{d<0} |class| (-1)^d beta0(D^k ^sigma) ]

whose integrality is asserted, never rounded.  Four rules gate the verdict:

    R1  d_k > 0 and D^k singular       =>  mu(D^k) = 1
    R2  under R1's hypothesis          =>  mu(D^k ^sigma) = 1 when d^sigma >= 0
    R3  under R1's hypothesis          =>  d^sigma >= -1 (i.e. d_k >= k-2)
    R4  some singular D^l with d_l > 0 =>  D^k empty whenever d_k < k-2

CANDIDATE means no violation; only witness_check can upgrade a candidate to
CONFIRMED by verifying an explicit real perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import factorial
from operator import attrgetter

from .germs import (EMPTY as EMPTY_SPACE, GermCorank1, MararMondReport, SpaceStatus,
                    build_Dk, class_size, marar_mond_check, positive_weights)
from .ideals import affine_elimination, affine_is_smooth
from .realtopo import EMPTY, INCONCLUSIVE, RealSpace, classify_real_space

FAILS = "FAILS"
CANDIDATE = "CANDIDATE"
CONFIRMED = "CONFIRMED"
REFUTED = "REFUTED"


class NotAFiniteError(ValueError):
    def __init__(self, report: MararMondReport):
        self.report = report
        bad = ", ".join(f"(k={s.k}, {s.partition}): {s.reason}" for s in report.violations())
        super().__init__(f"germ is not A-finite: {bad}")


class WitnessPreconditionError(ValueError):
    pass


@dataclass
class ClassEntry:
    partition: tuple[int, ...]
    sigma_sharp: int
    d_sigma: int
    status: str               # "mu" | "beta0" | "empty"
    mu: int | None = None
    beta0: int | None = None
    count: int | None = None  # colength for d_sigma = 0 spaces


@dataclass
class GrpRow:
    k: int
    d_k: int
    empty: bool
    mu: int | None
    mu_alt: int | None
    classes: list[ClassEntry] = field(default_factory=list)


@dataclass
class RuleViolation:
    rule: str
    k: int
    partition: tuple[int, ...] | None
    observed: object


@dataclass
class GrpReport:
    name: str
    n: int
    p: int
    rows: list[GrpRow]
    violations: list[RuleViolation]
    verdict: str
    image_betti: dict[int, int] | None  # None when max_k stopped the sweep
    mu_I: int | None
    zero_dim_counts: list[tuple[int, tuple[int, ...], int]]

    def row(self, k: int) -> GrpRow | None:
        return next((r for r in self.rows if r.k == k), None)

    def mu_of(self, k: int) -> int | None:
        r = self.row(k)
        return None if r is None or r.empty else r.mu


def _analyze_row(statuses: list[SpaceStatus]) -> GrpRow:
    """Invariants of D^k(f) from the finiteness sweep's statuses at one k.

    The identity partition comes first: its d^sigma is d_k, and an EMPTY one
    makes the whole row empty.  The sweep has certified every space and
    measured the Milnor number of each one of nonnegative expected
    dimension, so this only reads mu off the statuses and sums.
    """
    k, d_k = statuses[0].k, statuses[0].expected_dim
    if statuses[0].kind == EMPTY_SPACE:
        return GrpRow(k, d_k, True, None, None, [])
    classes: list[ClassEntry] = []
    acc = Fraction(0)
    for st in statuses:
        part, d_sigma = st.partition, st.expected_dim
        size = class_size(part)
        if st.kind == EMPTY_SPACE:
            classes.append(ClassEntry(part, st.sigma_sharp, d_sigma, "empty"))
            continue
        if d_sigma < 0:
            classes.append(ClassEntry(part, st.sigma_sharp, d_sigma, "beta0", beta0=1))
            acc -= size * (-1 if d_sigma % 2 else 1)
            continue
        entry = ClassEntry(part, st.sigma_sharp, d_sigma, "mu", mu=st.mu)
        if d_sigma == 0:
            entry.count = st.mu + 1  # colength of the zero-dimensional space
        classes.append(entry)
        acc += size * st.mu
    mu_alt = acc / factorial(k)
    if mu_alt.denominator != 1:
        raise ArithmeticError(f"alternating Milnor number is not an integer at k={k}: {mu_alt}")
    return GrpRow(k, d_k, False, classes[0].mu, int(mu_alt), classes)


def analyze(germ: GermCorank1, max_k: int | None = None) -> GrpReport:
    """Full invariant report with rule ledger; raises NotAFiniteError early.

    mu_I and the image Betti numbers sum over every k: None when `max_k`
    stops the sweep early.
    """
    mm = marar_mond_check(germ, max_k)
    if not mm.finite:
        raise NotAFiniteError(mm)
    rows = [_analyze_row(list(statuses))
            for _, statuses in groupby(mm.statuses, key=attrgetter("k"))]

    violations: list[RuleViolation] = []
    singular_positive = [r.k for r in rows if not r.empty and r.d_k > 0 and (r.mu or 0) >= 1]
    for r in rows:
        if r.empty:
            continue
        hyp = r.d_k > 0 and (r.mu or 0) >= 1
        if r.d_k > 0 and (r.mu or 0) >= 2:
            violations.append(RuleViolation("R1", r.k, None, r.mu))
        if hyp:
            for ce in r.classes:
                if ce.partition != (1,) * r.k and ce.status == "mu" and ce.d_sigma >= 0 and ce.mu != 1:
                    violations.append(RuleViolation("R2", r.k, ce.partition, ce.mu))
            if r.d_k < r.k - 2:
                violations.append(RuleViolation("R3", r.k, None, f"d_k={r.d_k} < k-2"))
    if singular_positive:
        for r in rows:
            if r.d_k < r.k - 2 and not r.empty:
                violations.append(RuleViolation("R4", r.k, None, "nonempty"))

    image: dict[int, int] = {}
    for r in rows:
        if not r.empty and (r.mu_alt or 0) > 0:
            deg = r.d_k + r.k - 1
            image[deg] = image.get(deg, 0) + r.mu_alt
    mu_I = sum(r.mu_alt or 0 for r in rows if not r.empty) if germ.p == germ.n + 1 else None
    if mm.first_empty_k is None:
        image = mu_I = None

    zero_dim = [(r.k, ce.partition, ce.count)
                for r in rows if not r.empty
                for ce in r.classes
                if ce.status == "mu" and ce.d_sigma == 0 and ce.count is not None]

    verdict = CANDIDATE if not violations else FAILS
    return GrpReport(germ.name, germ.n, germ.p, rows, violations, verdict,
                     image, mu_I, zero_dim)


# -- witness verification ------------------------------------------------------


@dataclass(frozen=True)
class ClassComparison:
    partition: tuple[int, ...]
    d_sigma: int
    complex_ok: bool
    complex_note: str
    real: RealSpace
    chi_complex: int | None
    chi_real: int | None

    @property
    def chi_match(self) -> bool | None:
        if self.chi_real is None or self.chi_complex is None:
            return None
        return self.chi_real == self.chi_complex


@dataclass(frozen=True)
class WitnessRow:
    k: int
    d_k: int
    germ_empty: bool
    classes: tuple[ClassComparison, ...]
    abeta_complex: int | None
    abeta_real: int | None
    parity_ok: bool | None
    orbit_ok: bool | None

    @property
    def abeta_match(self) -> bool | None:
        if self.abeta_real is None or self.abeta_complex is None:
            return None
        return self.abeta_real == self.abeta_complex


@dataclass(frozen=True)
class WitnessReport:
    name: str
    verdict: str  # CONFIRMED | REFUTED | INCONCLUSIVE
    rows: tuple[WitnessRow, ...]
    notes: tuple[str, ...] = ()


def _chi_complex(ce: ClassEntry) -> int:
    if ce.status == "empty" or ce.d_sigma < 0:
        return 0  # the stable space is empty
    return 1 + (-1 if ce.d_sigma % 2 else 1) * ce.mu


BASE_REPORTS = 32  # base analyses kept by witness_check, and as many reports per sign of s


@lru_cache(maxsize=BASE_REPORTS)
def _base_report(germ: GermCorank1, max_k: int | None) -> GrpReport:
    """analyze() of a witness's base germ, shared by every witness of it.

    The report is mutable and never leaves witness_check.  A germ that
    analyze() refuses raises on every call: exceptions are not cached.
    """
    return analyze(germ, max_k=max_k)


@lru_cache(maxsize=BASE_REPORTS)
def _settled(germ: GermCorank1, perturbation: GermCorank1) -> tuple[GermCorank1, bool]:
    """witness_check's preconditions that do not depend on the assignment.

    Returns the perturbation at parameter 0, checked to be the germ, and
    whether every s != 0 both passes the substitution checks and has the
    report of its sign (see `_sign_report`).  That holds for a one-parameter
    perturbation with positive weights (w_s > 0 on s) when some term
    carries a positive power of s and every term has an x-part.  All terms
    of a component have one weighted degree, so two terms with one x-part
    have one power of s: they are the same term.  Substituting s != 0 thus
    merges no terms and leaves every coefficient nonzero.  So the
    perturbation at s has a constant term exactly when some term has no
    x-part, and differs from the one at 0 exactly when some term carries a
    positive power of s, whatever s != 0 is.  witness_check substitutes a
    perturbation that fails either test at its s, where the checks on the
    substituted perturbation refuse it.  Exceptions are not cached.
    """
    params = perturbation.ring.params
    base = perturbation.at_params({q: Fraction(0) for q in params})
    if tuple(base.components) != tuple(g.cast(base.ring) for g in germ.components):
        raise WitnessPreconditionError(
            "perturbation does not reduce to the germ at parameter 0")
    nv = perturbation.ring.nvars
    terms = [e for g in perturbation.components for e in g.terms]
    per_sign = (len(params) == 1 and any(e[nv] for e in terms)
                and all(any(e[:nv]) for e in terms)
                and positive_weights(perturbation) is not None)
    return base, per_sign


@lru_cache(maxsize=BASE_REPORTS)
def _sign_report(germ: GermCorank1, perturbation: GermCorank1, sign: int,
                 max_k: int | None) -> WitnessReport:
    """The witness report of a one-parameter perturbation at s = sign (1 or
    -1), which is its report at every s of that sign when the unfolding has
    positive weights.

    Let positive weights w on the variables and w_s on the parameter make
    every component weighted homogeneous, of degree d_i.  For t > 0,
    g_i(t^w x, t^(w_s) s) = t^(d_i) g_i(x, s), and the divided differences
    and gluing equations of D^k are weighted homogeneous too (each z-copy
    weighs what z weighs).  So with t = |s|^(1/w_s), every generator of
    D^k(f_s)^sigma is t^(d_i) times the matching generator of
    D^k(f_sign)^sigma composed with the diagonal map x -> t^(-w) x.  That
    rescaling is real and positive and keeps every support: with w_s > 0
    no two terms of a component meet when s is substituted (see
    `_settled`).  So it keeps every elimination pivot and every leading
    ideal, and every later presentation is again a positive multiple of a
    rescaled one.  Quadric signatures, the sign of a quadric's level and
    Sturm counts of distinct real roots are invariant under it, so every
    field of the report at s is the one at sign(s).  The name is left
    empty; witness_check names it for each caller with dataclasses.replace,
    which shares every other field: the report is immutable.
    """
    (q,) = perturbation.ring.params
    return _witness_report(perturbation.at_params({q: Fraction(sign)}),
                           _base_report(germ, max_k), max_k, "")


def witness_check(germ: GermCorank1, perturbation: GermCorank1,
                  assignment: dict[str, Fraction], max_k: int | None = None,
                  name: str | None = None) -> WitnessReport:
    """Verify a real perturbation witness against the candidate germ.

    Complex side: the substituted spaces must be smooth (or empty where the
    germ data demands it).  Real side: spaces are classified where decidable
    and compared through chi per class, alternating Betti numbers per k, the
    odd-dimension pattern and the component-count expectation.  A sweep
    that `max_k` stops before the first empty D^k cannot confirm: its
    verdict is at best INCONCLUSIVE, with a note naming the cap.

    What depends only on (germ, perturbation) is settled once and kept in
    a bounded LRU (see `_settled`).  Each call checks, in this order, that
    every parameter and no other is assigned, that the perturbation at s is
    exact, vanishes at the origin and is not the germ, and that the germ is
    a CANDIDATE.  The base germ's analysis is kept in a second bounded LRU
    keyed by (germ, max_k), so a sweep over the parameters of one germ
    analyzes it once; the returned report holds only scalars and tuples
    copied out of it.  A one-parameter perturbation whose unfolding is
    weighted homogeneous with positive weights has one report per sign of
    s (see `_sign_report`): it is computed once, at s = 1 or s = -1, kept in
    a third bounded LRU keyed by (germ, perturbation, sign of s, max_k), and
    a call with a nonzero int or Fraction s gets that report under its own
    name, with no substitution.  Any other request is decided at the given s.
    """
    base, per_sign = _settled(germ, perturbation)
    missing = [q for q in perturbation.ring.params if q not in assignment]
    if missing:
        raise WitnessPreconditionError(f"unassigned parameters: {missing}")
    unknown = sorted(set(assignment) - set(perturbation.ring.params))
    if unknown:
        raise WitnessPreconditionError(f"unknown parameters: {unknown}")
    sign = 0
    if per_sign:
        (s,) = assignment.values()
        if type(s) in (int, Fraction) and s:
            sign = 1 if s > 0 else -1
    if not sign:
        pert = perturbation.at_params(assignment)
        if pert.components == base.components:
            raise WitnessPreconditionError("the assigned perturbation is the germ itself")
    report = _base_report(germ, max_k)
    if report.verdict != CANDIDATE:
        raise WitnessPreconditionError(
            "witness verification requires a CANDIDATE germ; analyze() said "
            + report.verdict)
    name = name or perturbation.name or germ.name
    if sign:
        return replace(_sign_report(germ, perturbation, sign, max_k), name=name)
    return _witness_report(pert, report, max_k, name)


def _witness_report(pert: GermCorank1, report: GrpReport, max_k: int | None,
                    name: str) -> WitnessReport:
    """witness_check's report on the parameter-free perturbation `pert` of a
    germ whose analysis is `report`."""
    rows: list[WitnessRow] = []
    notes: list[str] = []
    for grp_row in report.rows:
        k = grp_row.k
        # one elimination of each space, from its own generators, decides its
        # emptiness, smoothness and real class
        spaces = build_Dk(pert, k)
        if grp_row.empty:
            ok = affine_elimination(next(spaces)[1]) is None
            empty = ClassComparison((1,) * k, grp_row.d_k, ok, "must be empty",
                                    RealSpace(EMPTY), 0, 0 if ok else None)
            rows.append(WitnessRow(k, grp_row.d_k, True, (empty,), 0,
                                   0 if ok else None, None, None))
            continue
        comparisons: list[ClassComparison] = []
        chi_alt_real = Fraction(0)
        real_known = True
        parity_ok: bool | None = True
        orbit_ok: bool | None = None
        for ce, (_, I) in zip(grp_row.classes, spaces, strict=True):
            elim = affine_elimination(I)
            if ce.status == "empty" or ce.d_sigma < 0:
                ok, note = elim is None, "must be empty"
            else:
                ok, note = (elim is None or affine_is_smooth(I, elim)), "must be smooth"
            real = RealSpace(EMPTY) if elim is None else classify_real_space(elim, max(ce.d_sigma, 0))
            chi_c = _chi_complex(ce)
            chi_r = real.chi
            comparisons.append(ClassComparison(ce.partition, ce.d_sigma, ok, note,
                                               real, chi_c, chi_r))
            if chi_r is None:
                real_known = False
            else:
                chi_alt_real += class_size(ce.partition) * (-1 if ce.d_sigma % 2 else 1) * chi_r
            # odd-dimension pattern: singular odd-dimensional spaces must show
            # a single component in the real picture
            if ce.status == "mu" and ce.d_sigma > 0 and ce.d_sigma % 2 and ce.mu >= 1:
                comps = real.components
                if comps is None:
                    parity_ok = None if parity_ok is not False else False
                elif comps != 1:
                    parity_ok = False
            if ce.partition == (1,) * k and grp_row.d_k > 0 and (grp_row.mu_alt or 0) > 0:
                comps = real.components
                orbit_ok = None if comps is None else (comps % 2 == 1)
        abeta_real = None
        if real_known:
            val = chi_alt_real / factorial(k)
            if val.denominator != 1:
                notes.append(f"k={k}: real alternating Euler sum not integral: {val}")
            else:
                abeta_real = int(val)
        rows.append(WitnessRow(k, grp_row.d_k, False, tuple(comparisons),
                               grp_row.mu_alt, abeta_real, parity_ok, orbit_ok))

    verdict = CONFIRMED
    for row in rows:
        for cc in row.classes:
            if not cc.complex_ok:
                verdict = REFUTED
            elif cc.chi_match is False:
                verdict = REFUTED
        if row.abeta_match is False or row.parity_ok is False or row.orbit_ok is False:
            verdict = REFUTED
    capped = not rows[-1].germ_empty
    if capped:
        notes.append(f"max_k={max_k} stops the sweep before the first empty D^k; "
                     "the higher multiple point spaces are unchecked")
    if verdict is CONFIRMED:
        undecided = capped or any(
            cc.chi_match is None for row in rows for cc in row.classes
        ) or any(row.abeta_match is None for row in rows)
        if undecided:
            verdict = INCONCLUSIVE
    return WitnessReport(name, verdict, tuple(rows), tuple(notes))

