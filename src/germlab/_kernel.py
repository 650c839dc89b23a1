"""The reduction kernel (pure Python) that `ideals` calls through.

Hot loops for the basis engines: weak normal form (Mora's algorithm with
ecart control) for local orders, full head-and-tail reduction for global
ones, and the Buchberger/Mora completion loop.  One reduction step, `_step`
(h := c_g*h - c_h*x^a*g, content removed), is the only place two
polynomials are combined: both normal forms and every S-polynomial go
through it.  Polynomials cross this boundary as plain dicts mapping
exponent tuples to nonzero Python ints, defined up to a positive rational
factor -- leading ideals, memberships and colengths are all invariant under
that scaling.  Inputs need not be primitive (`ideals.standard_basis` passes
numerator dicts such as {x: 2, y: 4}): `std_basis(gens, local, trunc=0)`
divides each generator by its content and fixes its sign on entry, and
`normal_form(f, basis, local)` divides f by its content and reduces by the
basis as given, since `_step` removes the content it creates.  Both return
primitive (content 1) dicts.

Inside, a monomial is one Python int (packed exponent vectors: Bachmann and
Schoenemann, Monomial representations for Groebner bases computations,
ISSAC 1998).  With n variables in fields of W bits and S = n*W,

    K(e) = sum_i e_i * (2^(W*i) + s * 2^S),   s = +1 local, -1 global,

so the fields hold e_0 .. e_(n-1) from the lowest bits up and the total
degree sits above them, with the order's sign.  Comparing packed ints
compares (s*deg, e_(n-1), ..., e_0): the lead is `min` in both orders
(negative degrevlex for local ideals, degrevlex for global ones).  A shift
or product is one addition, `K < D << S` says deg < D, the ecart is
(max >> S) - (lead >> S), and a divides b iff ((K_b | G) - K_a) & G == G,
where G holds the top (guard) bit of every field.  The guard test needs
every field below 2^(W-1); a field never exceeds its term's degree, so it
suffices that no degree reaches 2^(W-1).  W is the narrowest of 8, 16, 32,
... bits that holds the input's degrees, or trunc - 1 when the run is
truncated, in which case no field can fill up.  Without truncation a step
makes terms of degree at most deg(lead) + ecart(reducer) (ecart 0 in global
orders); a run in which that bound reaches 2^(W-1) stops and starts again
at twice the width, inside the same call.  One `_Layout` per (nvars, order,
width) is built and kept.  Conversion happens once at each boundary; the
staircase, the highest corner and the pair degrees stay on exponent
tuples, since there are few leads.

The completion loop skips a pair whose leads are coprime (Buchberger's
product criterion) in both orders, and a pair whose lcm another lead divides
once both its pairs with that element are treated (chain criterion).  The
product criterion holds in the local order because negdegrevlex compares
degrees first: the lead of f is the degrevlex lead of its lowest-degree form
in(f).  Coprime leads of f and g are then coprime leads of in(f) and in(g),
which makes in(f), in(g) a regular sequence; so the tangent cone of (f, g) is
(in(f), in(g)), {f, g} is a standard basis of (f, g), also modulo m^D, and
spoly(f, g) has Mora normal form 0 with respect to {f, g}.  A zero normal
form with respect to a subset of the basis satisfies Buchberger's criterion
(Greuel-Pfister, A Singular Introduction to Commutative Algebra, Thm 1.7.3).
The argument needs a degree-compatible local order; the kernel has no other.

Local completions watch the highest corner (Greuel-Pfister, A Singular
Introduction to Commutative Algebra, 1.7; Singular's `noether` bound).
Once every axis carries a pure-power lead, the staircase of the leads found
so far is kept; if its highest degree is `top`, every monomial of degree
top + 1 is a lead, so m^(top+1) lies in I + m^D and, by Nakayama, in I.
Then I + m^D = I + m^(top+2) = I, and the rest of the run works modulo
m^(top+2): tails above it are cut and generators whose lead lies there are
dropped.  The basis may thus be computed modulo a lower power than asked
for; it is still a standard basis of the ideal asked for.
"""

from functools import lru_cache
from heapq import heappop, heappush
from math import gcd
from operator import le, mul
from struct import Struct

BACKEND = "python"

_STRUCT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


class _FieldFull(Exception):
    """A step could carry a degree to a field's guard bit: widen and rerun."""


class _Layout:
    """Packing of exponent tuples for one (nvars, order, width)."""

    __slots__ = ("local", "shift", "cap", "guard", "weights", "_mask", "_nbytes", "_fields",
                 "_width", "_nvars")

    def __init__(self, nvars, local, width):
        S = nvars * width
        self.local = local
        self.shift = S
        self.cap = 1 << (width - 1)  # no degree may reach it
        self.guard = sum(self.cap << (width * i) for i in range(nvars))
        sign = 1 if local else -1
        self.weights = tuple((1 << (width * i)) + (sign << S) for i in range(nvars))
        self._mask = (1 << S) - 1
        self._nbytes = S // 8
        code = _STRUCT_CODES.get(width)
        self._fields = Struct(f"<{nvars}{code}").unpack if code else None
        self._width = width
        self._nvars = nvars

    def pack(self, e):
        return sum(map(mul, e, self.weights))

    def unpack(self, k):
        k &= self._mask
        if self._fields is not None:
            # before Python 3.11 to_bytes has no default length or byte order
            return self._fields(k.to_bytes(self._nbytes, "little"))
        W = self._width
        return tuple(k >> (W * i) & (self.cap * 2 - 1) for i in range(self._nvars))

    def packed(self, terms, trunc=0):
        """Packed copy of an exponent-tuple dict, terms of degree >= trunc cut."""
        w = self.weights
        return {sum(map(mul, e, w)): c for e, c in terms.items() if not trunc or sum(e) < trunc}

    def unpacked(self, terms):
        unpack = self.unpack
        return {unpack(k): c for k, c in terms.items()}


@lru_cache(maxsize=128)
def _layout(nvars, local, width):
    return _Layout(nvars, local, width)


def _widths(polys, trunc=0):
    """Field widths to try: the narrowest the degrees allow, then doubled.

    Modulo m^trunc every degree stays below trunc, so that is all it takes.
    """
    deg = trunc - 1 if trunc else max(sum(e) for g in polys for e in g)
    width = 8
    while deg >= 1 << (width - 1):
        width *= 2
    while True:
        yield width
        width *= 2


def lead_exp(terms, local):
    """Leading exponent: negdegrevlex (local) or degrevlex (global)."""
    e = next(iter(terms))
    return min(terms, key=_layout(len(e), local, next(_widths((terms,)))).pack)


def _divides(a, b):
    return all(map(le, a, b))


def pure_axes(leads):
    """Axes i on which some exponent is a pure power x_i^a, a > 0."""
    return {i for e in leads for i, x in enumerate(e) if x and x == sum(e)}


def staircase(leads, nvars, maxdeg=None):
    """Standard monomials of the monomial ideal the exponents `leads` span.

    Lists every exponent of degree <= maxdeg divisible by no lead, each once.
    With maxdeg None the staircase must be finite (a pure power on every
    axis).  A child m + e_i of a standard m can only be divisible by a lead
    whose i-th entry is m_i + 1, so leads are indexed by axis and value.
    """
    zero = (0,) * nvars
    if zero in leads:
        return []
    by_axis = [{} for _ in range(nvars)]
    for e in leads:
        for i, x in enumerate(e):
            if x:
                by_axis[i].setdefault(x, []).append(e)
    out = [zero]
    stack = [(zero, 0, 0)]  # monomial, first axis it may raise, degree
    while stack:
        m, start, d = stack.pop()
        if d == maxdeg:
            continue
        for i in range(start, nvars):
            x = m[i] + 1
            child = m[:i] + (x,) + m[i + 1:]
            for e in by_axis[i].get(x, ()):
                if _divides(e, child):
                    break
            else:
                out.append(child)
                stack.append((child, i, d + 1))
    return out


# From here on, monomials are packed ints and `top` is a packed truncation
# bound trunc << S (0: none).


def _normalized(terms):
    """Divide by the integer content (the sign is left to `_sign_fix`)."""
    g = 0
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            break
    if g > 1:
        terms = {e: c // g for e, c in terms.items()}
    return terms


def _sign_fix(terms):
    if terms and terms[min(terms)] < 0:
        return {e: -c for e, c in terms.items()}
    return terms


def _truncate(terms, top):
    """Drop terms of total degree >= trunc (work modulo m^trunc)."""
    if not top:
        return terms
    return {e: c for e, c in terms.items() if e < top}


def _step(h, he, g, ge, top=0):
    """h := cg*h - ch*x^(he-ge)*g modulo m^trunc, then content-normalize.

    h must already be reduced modulo m^trunc.
    """
    cg = g[ge]
    ch = h[he]
    shift = he - ge
    out = dict(h) if cg == 1 else {e: c * cg for e, c in h.items()}
    limit = top - shift if top else None
    for e, c in g.items():
        if limit is not None and e >= limit:
            continue
        e += shift
        s = out.get(e, 0) - c * ch
        if s:
            out[e] = s
        else:
            del out[e]
    return _normalized(out)


def _nf_local(h, reducers, S, guard, room, top=0):
    """Mora weak normal form: result lead not divisible by any reducer lead.

    h is primitive and reduced modulo m^trunc.  reducers: [lead, terms,
    ecart, ...] entries; the ecart rule extends a copy.  A step whose degree
    bound reaches `room` raises `_FieldFull`.
    """
    T = list(reducers)
    while h:
        he = min(h)
        hg = he | guard
        best = None
        for r in T:
            if (best is None or r[2] < best[2]) and (hg - r[0]) & guard == guard:
                best = r
        if best is None:
            return _sign_fix(h)
        hd = he >> S
        if hd + best[2] >= room:
            raise _FieldFull
        hec = (max(h) >> S) - hd
        if best[2] > hec:
            T.append((he, h, hec))
        h = _step(h, he, best[1], best[0], top)
    return h


def _nf_global(h, reducers, guard):
    """Full (head and tail) reduction of a primitive h by [lead, terms, ...] reducers.

    Terms are taken largest first; one that no reducer lead divides is
    final.  A step changes only terms below the one it removes, so final
    terms stay final (scaled with the rest) and come out largest first.
    No step raises a degree: a reducer's lead is its highest-degree term.
    """
    final = {}
    while len(final) < len(h):
        he = min(h.keys() - final)
        hg = he | guard
        for r in reducers:
            if (hg - r[0]) & guard == guard:
                h = _step(h, he, r[1], r[0])
                break
        else:
            final[he] = None
    return _sign_fix({e: h[e] for e in final})


def _entry(terms, lay):
    """A [lead, terms, ecart, lead tuple] entry (ecart 0 for global orders)."""
    lead = min(terms)
    S = lay.shift
    return [lead, terms, (max(terms) >> S) - (lead >> S) if lay.local else 0, lay.unpack(lead)]


def normal_form(f, basis, local):
    basis = [g for g in basis if g]
    if not f:
        return {}
    for width in _widths([f, *basis]):
        lay = _layout(len(next(iter(f))), local, width)
        reducers = [_entry(lay.packed(g), lay) for g in basis]
        h = _normalized(lay.packed(f))
        try:
            if local:
                h = _nf_local(h, reducers, lay.shift, lay.guard, lay.cap)
            else:
                h = _nf_global(h, reducers, lay.guard)
        except _FieldFull:
            continue
        return lay.unpacked(h)


class _Corner:
    """Staircase of the leads added so far, kept once every axis has a pure power.

    Only standard monomials of degree <= cap are tracked.  `top` is the
    highest degree among them (None until every axis has a pure power); when
    top < cap, no standard monomial of a higher degree exists.
    """

    def __init__(self, nvars, cap):
        self.nvars = nvars
        self.cap = cap
        self.leads = []
        self.axes = set()
        self.stair = None
        self.top = None

    def add(self, e):
        if self.stair is None:
            self.leads.append(e)
            self.axes |= pure_axes((e,))
            if len(self.axes) == self.nvars:
                self.stair = staircase(self.leads, self.nvars, self.cap)
                self.top = max(map(sum, self.stair))
        elif sum(e) <= self.top:
            self.stair = [m for m in self.stair if not _divides(e, m)]
            self.top = max(map(sum, self.stair))


def _lowered(corner, G, trunc, S):
    """The working truncation once the corner is known: top + 2, never higher.

    When it drops, every entry of G is reduced modulo the new power; an
    entry whose lead lies at or above it empties.
    """
    if corner.top is None or (trunc and corner.top + 2 >= trunc):
        return trunc
    trunc = corner.top + 2
    top = trunc << S
    for t in G:
        if t[1]:
            g = _normalized(_truncate(t[1], top))
            t[1] = g
            t[2] = (max(g) >> S) - (t[0] >> S) if g else 0
    return trunc


def std_basis(gens, local, trunc=0):
    """Standard basis (local: Mora; global: Buchberger), minimalized.

    Returns primitive integer term dicts whose leading exponents generate
    the leading ideal.  Detecting a unit short-circuits to [{0:1}].  With
    trunc = D (local only) everything is computed modulo m^D: the result is
    a standard basis of I + m^D.  Local runs lower the working truncation to
    top + 2 once the highest corner `top` is known (see the module
    docstring), trunc = 0 included; the result then has no term of degree
    top + 2 or more and is a standard basis of I itself.
    """
    if trunc and not local:
        raise ValueError("truncation is a local-ring device")
    gens = [g for g in gens if g]
    if not gens:
        return []
    nvars = len(next(iter(gens[0])))
    for width in _widths(gens, trunc):
        try:
            return _std_basis(gens, trunc, _layout(nvars, local, width))
        except _FieldFull:
            pass


def _by_lead(t):
    return sum(t[3]), t[3]


def _std_basis(gens, trunc, lay):
    """`std_basis` in the packed layout `lay`; raises `_FieldFull` if it is too narrow."""
    local, S, guard = lay.local, lay.shift, lay.guard
    # the degree bound that restarts the run; a truncated run never reaches
    # it, since trunc <= cap (the width is chosen so) keeps each bound < 2 * trunc
    room = 2 * lay.cap if trunc else lay.cap
    G = []  # [lead, terms, ecart, lead tuple]; terms empty once cut away
    for g in gens:
        h = _sign_fix(_normalized(lay.packed(g, trunc)))
        if h:
            G.append(_entry(h, lay))
    if not G:
        return []
    for t in G:
        if t[0] == 0:
            return [{t[3]: 1}]
    G.sort(key=_by_lead)
    corner = None
    if local:
        corner = _Corner(len(G[0][3]), trunc - 2 if trunc else None)
        for t in G:
            corner.add(t[3])
        trunc = _lowered(corner, G, trunc, S)
    pairs = []
    for i in range(len(G)):
        for j in range(i):
            heappush(pairs, (sum(map(max, G[i][3], G[j][3])), j, i))
    treated = set()
    # an s-polynomial of lcm degree >= trunc vanishes modulo m^trunc
    while pairs and not (trunc and pairs[0][0] >= trunc):
        d, i, j = heappop(pairs)
        gi, gj = G[i], G[j]
        # the s-polynomial's terms have degree <= d + ecart
        if d + max(gi[2], gj[2]) >= room:
            raise _FieldFull
        ei, ej = gi[0], gj[0]
        lcm = lay.pack(tuple(map(max, gi[3], gj[3])))
        treated.add((i, j))
        if lcm == ei + ej:
            continue  # product criterion (both orders, see the module docstring)
        lg = lcm | guard
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if (lg - G[k][0]) & guard == guard:
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in treated and b in treated:
                    skip = True
                    break
        if skip:
            continue
        # the s-polynomial is one step: x^(lcm-ei)*gi's lead removed by gj
        top = trunc << S
        si = lcm - ei
        s = _truncate({e + si: c for e, c in gi[1].items()}, top)
        s = _step(s, lcm, gj[1], ej, top)
        if not s:
            continue
        reducers = [t for t in G if t[1]]
        if local:
            h = _nf_local(s, reducers, S, guard, room, top)
        else:
            h = _nf_global(s, reducers, guard)
        if not h:
            continue
        t = _entry(h, lay)
        if t[0] == 0:
            return [{t[3]: 1}]
        he = t[3]
        G.append(t)
        n = len(G) - 1
        for k in range(n):
            heappush(pairs, (sum(map(max, G[k][3], he)), k, n))
        if corner is not None:
            corner.add(he)
            trunc = _lowered(corner, G, trunc, S)
    # minimalize: drop entries whose lead is divisible by another surviving lead
    keep = []
    for idx, (ge, g, _, _) in enumerate(G):
        if not g:
            continue
        gg = ge | guard
        redundant = False
        for jdx, t in enumerate(G):
            if jdx == idx:
                continue
            he = t[0]
            if (gg - he) & guard == guard and (he != ge or jdx < idx):
                redundant = True
                break
        if not redundant:
            keep.append(lay.unpacked(g))
    return keep
