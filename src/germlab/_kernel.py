"""The reduction kernel (pure Python) that `ideals` calls through.

Hot loops for the basis engines: weak normal form (Mora's algorithm with
ecart control) for local orders, full head-and-tail reduction for global
ones, and the Buchberger/Mora completion loop.  One reduction step, `_step`
(h := c_g*h - c_h*x^a*g, content removed), is the only place two
polynomials are combined: both normal forms and every S-polynomial go
through it.  Polynomials cross this boundary as plain dicts mapping
exponent tuples to Python ints, primitive (content 1) and defined up to a
positive rational factor -- leading ideals, memberships and colengths are
all invariant under that scaling.

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

from heapq import heappop, heappush
from math import gcd
from operator import add, le, sub

BACKEND = "python"


def _local_key(e):
    return (sum(e), e[::-1])


def _global_key(e):
    return (-sum(e), e[::-1])


def lead_exp(terms, local):
    """Leading exponent: negdegrevlex (local) or degrevlex (global)."""
    return min(terms, key=_local_key if local else _global_key)


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


def _normalized(terms):
    """Divide by the integer content (the sign is left to `_sign_fix`)."""
    g = 0
    for c in terms.values():
        g = gcd(g, c if c >= 0 else -c)
        if g == 1:
            break
    if g > 1:
        terms = {e: c // g for e, c in terms.items()}
    return terms


def _sign_fix(terms, local):
    if not terms:
        return terms
    if terms[lead_exp(terms, local)] < 0:
        return {e: -c for e, c in terms.items()}
    return terms


def _truncate(terms, trunc):
    """Drop terms of total degree >= trunc (work modulo m^trunc)."""
    if not trunc:
        return terms
    return {e: c for e, c in terms.items() if sum(e) < trunc}


def _step(h, he, g, ge, trunc=0):
    """h := cg*h - ch*x^(he-ge)*g modulo m^trunc, then content-normalize.

    h must already be reduced modulo m^trunc.
    """
    cg = g[ge]
    ch = h[he]
    shift = tuple(map(sub, he, ge))
    out = {e: c * cg for e, c in h.items()}
    limit = trunc - sum(shift) if trunc else None
    for e, c in g.items():
        if limit is not None and sum(e) >= limit:
            continue
        e2 = tuple(map(add, e, shift))
        s = out.get(e2, 0) - c * ch
        if s:
            out[e2] = s
        else:
            out.pop(e2, None)
    return _normalized(out)


def _ecart(terms, lead):
    return max(map(sum, terms)) - sum(lead)


def _nf_local(f, reducers, trunc=0):
    """Mora weak normal form: result lead not divisible by any reducer lead.

    reducers: [lead, terms, ecart] entries; the ecart rule extends a copy.
    """
    T = list(reducers)
    h = _normalized(_truncate(dict(f), trunc))
    while h:
        he = min(h, key=_local_key)
        best = None
        for r in T:
            if (best is None or r[2] < best[2]) and _divides(r[0], he):
                best = r
        if best is None:
            return _sign_fix(h, True)
        hec = _ecart(h, he)
        if best[2] > hec:
            T.append((he, h, hec))
        h = _step(h, he, best[1], best[0], trunc)
    return h


def _nf_global(f, reducers):
    """Full (head and tail) reduction by [lead, terms, ...] reducers.

    Terms are taken largest first; one that no reducer lead divides is
    final.  A step changes only terms below the one it removes, so final
    terms stay final (scaled with the rest) and come out largest first.
    """
    h = _normalized(dict(f))
    final = {}
    while len(final) < len(h):
        he = min(h.keys() - final, key=_global_key)
        for r in reducers:
            if _divides(r[0], he):
                h = _step(h, he, r[1], r[0])
                break
        else:
            final[he] = None
    return _sign_fix({e: h[e] for e in final}, False)


def _entry(terms, local):
    """A [lead, terms, ecart] entry (ecart 0 for global orders)."""
    lead = lead_exp(terms, local)
    return [lead, terms, _ecart(terms, lead) if local else 0]


def normal_form(f, basis, local):
    reducers = [_entry(g, local) for g in basis if g]
    if local:
        return _nf_local(f, reducers)
    return _nf_global(f, reducers)


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


def _lowered(corner, G, trunc):
    """The working truncation once the corner is known: top + 2, never higher.

    When it drops, every entry of G is reduced modulo the new power; an
    entry whose lead lies at or above it empties.
    """
    if corner.top is None or (trunc and corner.top + 2 >= trunc):
        return trunc
    trunc = corner.top + 2
    for t in G:
        if t[1]:
            g = _normalized(_truncate(t[1], trunc))
            t[1] = g
            t[2] = _ecart(g, t[0]) if g else 0
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
    G = []  # [lead, terms, ecart]; terms empty once cut away
    for g in gens:
        if g:
            h = _sign_fix(_normalized(_truncate(dict(g), trunc)), local)
            if h:
                G.append(_entry(h, local))
    if not G:
        return []
    zero = (0,) * len(G[0][0])
    unit = [{zero: 1}]
    for t in G:
        if t[0] == zero:
            return unit
    G.sort(key=lambda t: (sum(t[0]), t[0]))
    corner = None
    if local:
        corner = _Corner(len(zero), trunc - 2 if trunc else None)
        for t in G:
            corner.add(t[0])
        trunc = _lowered(corner, G, trunc)
    pairs = []
    for i in range(len(G)):
        for j in range(i):
            heappush(pairs, (sum(map(max, G[i][0], G[j][0])), j, i))
    treated = set()
    # an s-polynomial of lcm degree >= trunc vanishes modulo m^trunc
    while pairs and not (trunc and pairs[0][0] >= trunc):
        _, i, j = heappop(pairs)
        ei, ej = G[i][0], G[j][0]
        lcm = tuple(map(max, ei, ej))
        treated.add((i, j))
        if not local and lcm == tuple(map(add, ei, ej)):
            continue  # product criterion (global orders)
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if _divides(G[k][0], lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in treated and b in treated:
                    skip = True
                    break
        if skip:
            continue
        # the s-polynomial is one step: x^(lcm-ei)*gi's lead removed by gj
        si = tuple(map(sub, lcm, ei))
        s = _truncate({tuple(map(add, e, si)): c for e, c in G[i][1].items()}, trunc)
        s = _step(s, lcm, G[j][1], ej, trunc)
        if not s:
            continue
        reducers = [t for t in G if t[1]]
        if local:
            h = _nf_local(s, reducers, trunc)
        else:
            h = _nf_global(s, reducers)
        if not h:
            continue
        t = _entry(h, local)
        he = t[0]
        if he == zero:
            return unit
        G.append(t)
        n = len(G) - 1
        for k in range(n):
            heappush(pairs, (sum(map(max, G[k][0], he)), k, n))
        if corner is not None:
            corner.add(he)
            trunc = _lowered(corner, G, trunc)
    # minimalize: drop entries whose lead is divisible by another surviving lead
    keep = []
    for idx, (ge, g, _) in enumerate(G):
        if not g:
            continue
        redundant = False
        for jdx, (he, _, _) in enumerate(G):
            if jdx == idx:
                continue
            if _divides(he, ge) and (he != ge or jdx < idx):
                redundant = True
                break
        if not redundant:
            keep.append(g)
    return keep
