"""Finite simplicial complexes with a permutation-group action.

A `GComplex` is combinatorial: a vertex count, facets, the symmetric rank
k and the images of the adjacent transpositions (1 2), ..., (k-1 k) as
vertex permutations; the sign of an element is its sign in Sigma_k, not the
parity of the vertex permutation (the trivial action of Sigma_2 on a point
has a sign -1 generator acting as the identity permutation).  An optional
commuting cyclic action of prime power order p (at most MAX_P) rides along
for Smith theory.  Nothing reads vertex coordinates, so a JSON vertex list
of them (one exact coordinate list per vertex, all of one length) is
checked and counted, and then dropped.

Actions must be *simplicially good*: a simplex mapped to itself by any group
element is fixed vertex by vertex.  One barycentric subdivision always
repairs a merely simplicial action, because subdivision vertices are
barycenters of simplexes of pairwise distinct dimensions.

A `GComplex` is immutable, so what is derived from it is built once, on
first use, and kept as long as the complex lives: the facet closure and its
per-dimension index, the group table and elements, goodness, the g-fixed
subcomplex, and through `GComplex.derived` what other modules compute from
it (`homology` keeps its elementary divisors and alternating chain complex
there).  Every kept value is immutable; nothing is cached across complexes.

A fixed locus has one construction, `fixed_subcomplex`: the simplexes fixed
vertexwise by a permutation, on the fixed vertices renumbered in order,
with the restricted symmetric action and optionally a residual cyclic one.
For a prime-order action, Floyd's, Smith's and the special-complex checks
all read X^g from the kept `g_fixed_subcomplex()`, so each of its matrices
is eliminated once.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass, fields
from functools import cache, cached_property
from itertools import combinations, permutations
from math import comb, lcm
from types import MappingProxyType
from typing import TypeVar

from .germfile import parse_rational

MAX_K = 7  # k! group elements are enumerated
# The largest prime (power) accepted as a field characteristic or as the order
# p of a cyclic action, 2^31 - 1.  Factoring it by trial division takes
# milliseconds; a larger p from input would take unbounded time.
MAX_P = 2**31 - 1
# The most cells (simplexes of every dimension) a complex may have, as given
# or subdivided.  Homology's dense boundary matrices grow with the square of
# the cell count: 9,365 cells take 2.5 s and 170 MB; 94,585 exhaust 1.5 GB.
MAX_CELLS = 10_000

T = TypeVar("T")


class ActionError(ValueError):
    pass


def check_p(p: int, what: str) -> None:
    """Refuse a prime (power) `p` from input above MAX_P, naming it as `what`."""
    if p > MAX_P:
        raise ActionError(f"{what} {p} is above the supported maximum {MAX_P}")


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(v) = p[q[v]]."""
    return tuple(p[x] for x in q)


def _perm_order(p: tuple[int, ...]) -> int:
    return lcm(*map(len, _cycles(p)))


def _cycles(p: tuple[int, ...]) -> list[set[int]]:
    """The cycles of length at least 2 of a permutation."""
    out = []
    seen = set()
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cycle = set()
        x = start
        while x not in cycle:
            cycle.add(x)
            x = p[x]
        seen |= cycle
        out.append(cycle)
    return out


def perm_sign(p: tuple[int, ...]) -> int:
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return -1 if inv % 2 else 1


@dataclass(frozen=True)
class GComplex:
    n_vertices: int
    facets: tuple[tuple[int, ...], ...]
    k: int = 1
    sigma_gens: tuple[tuple[int, ...], ...] = ()
    g_perm: tuple[int, ...] | None = None
    p: int | None = None

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ActionError(f"vertex count {self.n_vertices} is negative")
        if self.k < 1 or self.k > MAX_K:
            raise ActionError(f"symmetric rank k must be in 1..{MAX_K}")
        if len(self.sigma_gens) != self.k - 1:
            raise ActionError(f"need {self.k - 1} generator images for k={self.k}")
        for g in self.sigma_gens:
            if sorted(g) != list(range(self.n_vertices)):
                raise ActionError("generator is not a vertex permutation")
        if self.g_perm is not None:
            if sorted(self.g_perm) != list(range(self.n_vertices)):
                raise ActionError("g action is not a vertex permutation")
            if self.p is None:
                raise ActionError("g action needs its order p")
            check_p(self.p, "cyclic action order p")
            if not _is_prime_power(self.p) or self.p % _perm_order(self.g_perm):
                raise ActionError("g action order must divide p (a prime power)")
            for s in self.sigma_gens:
                if _compose(s, self.g_perm) != _compose(self.g_perm, s):
                    raise ActionError("g action does not commute with the symmetric action")
        for f in self.facets:
            if not f:
                raise ActionError("a facet is empty: every facet needs a vertex")
            if tuple(sorted(set(f))) != tuple(f):
                raise ActionError(f"facet {f} is not a sorted duplicate-free tuple")
            if any(v < 0 or v >= self.n_vertices for v in f):
                raise ActionError(f"facet {f} out of vertex range")

    # -- derived structure --------------------------------------------------
    # Built on first use and kept for the life of the complex.  The values
    # live in the instance __dict__, outside the dataclass fields, so ==,
    # hash and `replace` ignore them (`replace` and the constructions below
    # return cold complexes), and every one of them is immutable.

    def simplices(self) -> Mapping[int, tuple[tuple[int, ...], ...]]:
        """Closure of the facets, keyed by dimension in increasing order, sorted tuples."""
        return self._simplices

    @cached_property
    def _simplices(self) -> Mapping[int, tuple[tuple[int, ...], ...]]:
        got: set[tuple[int, ...]] = set()
        for f in self.facets:
            for q in range(1, len(f) + 1):
                got.update(combinations(f, q))
        by_dim: dict[int, list[tuple[int, ...]]] = {}
        for s in sorted(got):
            by_dim.setdefault(len(s) - 1, []).append(s)
        return MappingProxyType({q: tuple(by_dim[q]) for q in sorted(by_dim)})

    def simplex_index(self) -> Mapping[int, Mapping[tuple[int, ...], int]]:
        """Position of each simplex in its dimension's `simplices()` list."""
        return self._simplex_index

    @cached_property
    def _simplex_index(self) -> Mapping[int, Mapping[tuple[int, ...], int]]:
        return MappingProxyType({q: MappingProxyType({s: i for i, s in enumerate(lst)})
                                 for q, lst in self._simplices.items()})

    def derived(self, build: Callable[[GComplex], T]) -> T:
        """`build(self)`, computed on the first call with this `build` and kept.

        For structure other modules derive from a complex (`homology` keeps
        its boundary divisors and alternating chain complex here); `build`
        must return an immutable value.
        """
        cache = self._derived
        if build not in cache:
            cache[build] = build(self)
        return cache[build]

    @cached_property
    def _derived(self) -> dict[Callable, object]:
        return {}

    def __getstate__(self) -> dict:
        # pickle and deepcopy carry the fields only; the copy starts cold
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- group table ---------------------------------------------------------

    def group(self) -> Mapping[tuple[int, ...], tuple[tuple[int, ...], int]]:
        """Map abstract sigma (one-line tuple) -> (vertex permutation, sign).

        Built by BFS over the Cayley graph; revisiting an element with a
        different vertex image means the generators are not a representation.
        """
        return self._group

    @cached_property
    def _group(self) -> Mapping[tuple[int, ...], tuple[tuple[int, ...], int]]:
        ident_s = tuple(range(self.k))
        ident_v = tuple(range(self.n_vertices))
        table = {ident_s: (ident_v, 1)}
        frontier = [ident_s]
        while frontier:
            nxt = []
            for s in frontier:
                v, sg = table[s]
                for j, gen in enumerate(self.sigma_gens):
                    s2 = list(s)
                    s2[j], s2[j + 1] = s2[j + 1], s2[j]
                    s2 = tuple(s2)
                    v2 = _compose(v, gen)
                    if s2 in table:
                        if table[s2][0] != v2:
                            raise ActionError("generator images do not define a "
                                              "representation of the symmetric group")
                    else:
                        table[s2] = (v2, -sg)
                        nxt.append(s2)
            frontier = nxt
        return MappingProxyType(table)

    def all_elements(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Every (vertex permutation, sign) of the full group including g powers.

        The g factor carries sign +1: only the symmetric part is signed.  The
        powers of g run up to the order of g, which divides (and may be far
        below) p.
        """
        return self._elements

    @cached_property
    def _elements(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        base = tuple(self.group().values())
        if self.g_perm is None:
            return base
        out = []
        g = tuple(range(self.n_vertices))
        for _ in range(_perm_order(self.g_perm)):
            out.extend((_compose(g, v), sg) for v, sg in base)
            g = _compose(self.g_perm, g)
        return tuple(out)

    # -- actions on simplexes -------------------------------------------------

    def is_simplicial(self) -> bool:
        """Every group element maps simplexes to simplexes.

        Such maps compose, so it is enough that each generator (the
        transposition images and g) maps every facet onto a simplex.
        """
        index = self.simplex_index()
        gens = self.sigma_gens + ((self.g_perm,) if self.g_perm is not None else ())
        return all(tuple(sorted(v[x] for x in f)) in index[len(f) - 1]
                   for v in gens for f in self.facets)

    def is_good(self) -> bool:
        """Invariant simplexes are fixed vertex by vertex."""
        return self._good

    @cached_property
    def _good(self) -> bool:
        # A simplex mapped onto itself with a vertex moved contains that
        # vertex's whole cycle, and a cycle inside a facet is such a face.
        facets = [set(f) for f in self.facets]
        for v in {v for v, _ in self.all_elements()}:
            for cycle in _cycles(v):
                if any(cycle <= f for f in facets):
                    return False
        return True

    # -- constructions ---------------------------------------------------------

    def barycentric_subdivision(self) -> "GComplex":
        simp = self.simplices()
        order: list[tuple[int, ...]] = []
        for q in sorted(simp):
            order.extend(simp[q])
        index = {s: i for i, s in enumerate(order)}
        facets = []
        for f in self.facets:
            for perm in permutations(f):
                chain = []
                for q in range(len(f)):
                    chain.append(index[tuple(sorted(perm[: q + 1]))])
                facets.append(tuple(sorted(chain)))
        facets = tuple(sorted(set(facets)))

        def induce(v):
            return tuple(index[tuple(sorted(v[x] for x in s))] for s in order)

        gens = tuple(induce(v) for v in self.sigma_gens)
        gp = induce(self.g_perm) if self.g_perm is not None else None
        return GComplex(len(order), facets, self.k, gens, gp, self.p)

    def fixed_subcomplex(self, fixing: tuple[int, ...],
                         residual: tuple[int, ...] | None = None) -> "GComplex":
        """Subcomplex of simplexes fixed vertexwise by `fixing`, reindexed.

        The fixed vertices are renumbered 0..m-1 in order, so simplexes keep
        their relative order, and the symmetric generators restrict (they
        commute with `fixing`).  `residual`, when given, is a commuting
        permutation whose restriction becomes the cyclic action of the
        subcomplex (its order is recomputed); otherwise it has none.
        """
        keep = [v for v in range(self.n_vertices) if fixing[v] == v]
        new_of = {v: i for i, v in enumerate(keep)}
        faces = {tuple(new_of[v] for v in f if v in new_of) for f in self.facets}
        facets: list[tuple[int, ...]] = []  # the maximal ones
        for f in sorted(faces - {()}, key=len, reverse=True):
            if not any(set(f) <= set(g) for g in facets):
                facets.append(f)

        def restrict(perm):
            return tuple(new_of[perm[v]] for v in keep)

        gens = tuple(restrict(s) for s in self.sigma_gens)
        g2 = order = None
        if residual is not None and keep:
            g2 = restrict(residual)
            order = _perm_order(g2)
            if order == 1:
                g2 = order = None
        return GComplex(len(keep), tuple(sorted(facets)), self.k, gens, g2, order)

    def g_fixed_subcomplex(self) -> "GComplex":
        """Subcomplex fixed by the cyclic action (all of it when there is
        none), built once per complex."""
        return self._g_fixed

    @cached_property
    def _g_fixed(self) -> "GComplex":
        return self.fixed_subcomplex(self.g_perm or tuple(range(self.n_vertices)))


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    q = smallest_prime_factor(n)
    while n % q == 0:
        n //= q
    return n == 1


def smallest_prime_factor(n: int) -> int:
    q = 2
    while q * q <= n:
        if n % q == 0:
            return q
        q += 1
    return n


@cache
def _interior_cells(d: int) -> int:
    """Cells the barycentric subdivision puts inside one d-simplex."""
    return 1 + sum(comb(d + 1, j + 1) * _interior_cells(j) for j in range(d))


def _check_cells(cells: int, what: str) -> None:
    if cells > MAX_CELLS:
        raise ActionError(f"{what} has {cells} cells, above the supported maximum {MAX_CELLS}")


def validate_or_subdivide(X: GComplex) -> GComplex:
    """X if it is simplicially good, else its barycentric subdivision.

    One subdivision is always good: a simplex of it is a chain of simplexes
    of X of distinct dimensions, so an element that maps it onto itself
    fixes every one of them.  A subdivision with more than MAX_CELLS cells
    is refused before it is built.
    """
    widest = max(map(len, X.facets), default=0)
    if widest >= MAX_CELLS.bit_length():  # the faces of that facet alone pass the cap
        raise ActionError(f"a facet on {widest} vertices has 2^{widest} - 1 faces, "
                          f"above the supported maximum of {MAX_CELLS} cells")
    _check_cells(sum(map(len, X.simplices().values())), "the complex")
    if not X.is_simplicial():
        raise ActionError("action does not map simplexes to simplexes")
    if X.is_good():
        return X
    _check_cells(sum(_interior_cells(q) * len(s) for q, s in X.simplices().items()),
                 "the barycentric subdivision")
    return X.barycentric_subdivision()


# -- JSON interchange ---------------------------------------------------------


def _check_coordinate(x) -> None:
    if isinstance(x, str):
        try:
            parse_rational(x)
        except ValueError:
            raise ActionError(f"coordinate {x!r} is not a rational number") from None
    elif type(x) is not int:  # not a bool either
        raise ActionError(f"coordinates must be exact (int or 'a/b' string), got {x!r}")


def _indices(x, what: str) -> tuple[int, ...]:
    if not isinstance(x, list) or not all(type(v) is int for v in x):
        raise ActionError(f"{what} must be a list of integers, got {x!r}")
    return tuple(x)


def _index_lists(data: dict, key: str) -> list[tuple[int, ...]]:
    if key not in data:
        raise ActionError(f"'{key}' is missing")
    rows = data[key]
    if not isinstance(rows, list):
        raise ActionError(f"'{key}' must be a list, got {rows!r}")
    return [_indices(r, f"each entry of '{key}'") for r in rows]


def from_json_dict(data: dict) -> GComplex:
    if not isinstance(data, dict):
        raise ActionError(f"a complex must be a JSON object, got {type(data).__name__}")
    verts = data.get("vertices")
    if type(verts) is int:  # not a bool
        n = verts
    elif isinstance(verts, list):
        n = len(verts)
        if not all(isinstance(v, list) and len(v) == len(verts[0]) for v in verts):
            raise ActionError("'vertices' must list coordinate lists of one common length")
        for v in verts:
            for x in v:
                _check_coordinate(x)
    else:
        raise ActionError("'vertices' must be a count or a list")
    facets = tuple(tuple(sorted(f)) for f in _index_lists(data, "facets"))
    gens = tuple(_index_lists(data, "sigma_generators"))
    g_perm = _indices(data["g_action"], "'g_action'") if "g_action" in data else None
    p = data.get("p")
    if p is not None and type(p) is not int:
        raise ActionError(f"'p' must be an integer, got {p!r}")
    return GComplex(n, facets, len(gens) + 1, gens, g_perm, p)


def load_json(path: str) -> GComplex:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # undecodable bytes, bad JSON, an int past int()'s digit limit, deep nesting
            raise ActionError(f"{path}: not a JSON file: {exc}") from None
    return from_json_dict(data)
