"""Seeded request streams and their correctness oracles.

A stream is a list of plain-data specs drawn from a seeded RNG (their
digest identifies the stream) together with the germlab inputs built from
them, each with the answer it must produce.  `execute` runs one request
through germlab's public API and returns an observation that the caller
compares with the request's expectation.

Workloads:

- table     analyzer.analyze on distinct catalog germs: 7 of every 10
            requests are simple-family members with drawn indices, 3 are
            nonsimple rows I, III-VIII with parameters drawn under the row's
            guard (see TABLE_BLOCK).  Row II is left out: its invariants are
            recorded only for the shipped sample and one request takes about
            45 s.
- witness   analyzer.witness_check on germs/q2, a1 and p1 with distinct
            nonzero rational s of both signs: the base analysis repeats,
            so the standard-basis memo serves about half of each request.
- homology  validate_or_subdivide, integer and alternating homology, the
            fixed-point formula and, with a cyclic action, Floyd, equivariant
            Smith and the special-complex ranks on seeded block complexes.

Families, rows and complex sizes rotate through seeded permutations rather
than being drawn independently, so every seed sees the same mix and the
figures of different seeds stay comparable.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import combinations, cycle
from math import comb, factorial, gcd
from pathlib import Path

WORKLOADS = ("table", "witness", "homology")

# Requests pre-built per run.  Each list is about twice what a 30 s run
# completes today; a run that exhausts its list stops early.
STREAM_LENGTH = {"table": 400, "witness": 1800, "homology": 600}

# Requests the traced run replays: fixed, so its counts repeat exactly.  The
# peak RSS of an untraced run is read after as many requests, so that it
# does not grow with throughput.
TRACE_LENGTH = {"table": 40, "witness": 150, "homology": 100}

CANDIDATES = {"A1", "P1", "Q2"}

# Simple families: index pools whose single-request cost stays below about
# 300 ms on the pure-Python kernel.
SIMPLE_POOLS = {
    "A": [(k, None) for k in range(1, 101)],
    "D": [(k, None) for k in range(4, 101)],
    "E": [(6, None), (7, None), (8, None)],
    "B": [(k, None) for k in range(2, 17)],
    "C": [(k, None) for k in range(3, 101)],
    "P": [(k, None) for k in range(1, 12) if k % 3],
    "P3": [(k, None) for k in range(2, 5)],
    "Q": [(k, None) for k in range(2, 61)],
    "R": [(k, None) for k in range(3, 10)],
    "S": [(k, j) for j in range(1, 4) for k in range(2, 13)],
}

NONSIMPLE_PARAMS = {"I": "ab", "III": "a", "IV": "a", "V": "a", "VI": "a",
                    "VII": "a", "VIII": "ab"}

# Every block of ten table requests holds six light simple germs (5-20 ms),
# one heavier simple germ (20-300 ms) and three nonsimple rows, where rows I
# and VIII (about 1 s) come half as often as III and IV (about 0.5 s) and
# V-VII (40-110 ms).  The median then falls inside the light germs and the
# 90th percentile inside rows III and IV, not on an edge between two cost
# groups, where a request more or less would move it.  The nonsimple rows,
# most of a run's time, follow one fixed interleaving instead of a seeded
# shuffle, so that where a run's time runs out moves its throughput little.
TABLE_BLOCK = ["light"] * 6 + ["heavy"] + ["nonsimple"] * 3
TABLE_DECKS = {
    "light": ("A", "C", "D", "E"),
    "heavy": ("B", "P", "P3", "Q", "R", "S"),
}
NONSIMPLE_CYCLE = ("I", "V", "III", "VI", "IV", "VII", "VIII", "V", "III", "VI", "IV", "VII")

WITNESS_GERMS = ("q2", "a1", "p1")

# Cells of the complex the pipeline works on (after subdivision).  Cost is
# about cubic in this number; 585 cells take about 20 s.
CELLS_MIN, CELLS_MAX = 10, 130

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Request:
    label: str
    args: tuple
    expected: tuple


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(seed * 16 + WORKLOADS.index(workload))


def _rotation(rng: random.Random, items):
    """Endless sequence of seeded permutations of `items`."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _rationals(rng: random.Random, nums: range, dens: range, exclude=()) -> list:
    """Shuffled distinct nonzero rationals +-a/b, as (num, den) pairs."""
    vals = sorted({(s * a // gcd(a, b), b // gcd(a, b))
                   for a in nums for b in dens for s in (1, -1)} - set(exclude))
    rng.shuffle(vals)
    return vals


# -- table ----------------------------------------------------------------


def _table_stream(seed: int, n: int) -> tuple[list[tuple], list[Request]]:
    from germlab import catalog

    rng = _rng("table", seed)
    pools = {f: rng.sample(v, len(v)) for f, v in SIMPLE_POOLS.items()}
    decks = {kind: _rotation(rng, deck) for kind, deck in TABLE_DECKS.items()}
    decks["nonsimple"] = cycle(NONSIMPLE_CYCLE)
    values = _rationals(rng, range(1, 9), range(1, 5))
    specs: list[tuple] = []
    entries = []
    while len(specs) < n:
        block = list(TABLE_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind != "nonsimple":
                fam = next(decks[kind])
                while not pools[fam]:  # a small family is used up: skip it
                    fam = next(decks[kind])
                k, j = pools[fam].pop()
                specs.append(("simple", fam, k, j))
                entries.append(catalog.simple_entry(fam, k=k, j=j))
                continue
            row = next(decks[kind])
            while True:
                q = tuple((name, rng.choice(values)) for name in NONSIMPLE_PARAMS[row])
                if (row, q) in specs:
                    continue
                try:
                    entry = catalog.nonsimple_entry(row, {k: Fraction(*v) for k, v in q})
                except catalog.CatalogError:  # outside the row's guard: draw again
                    continue
                break
            specs.append((row, q))
            entries.append(entry)
    requests = [Request(e.label, (e.germ,),
                        (e.mu_d2, e.mu_d3, e.mu_I,
                         "CANDIDATE" if e.label in CANDIDATES else "FAILS"))
                for e in entries[:n]]
    return specs[:n], requests


def _table_execute(germ) -> tuple:
    from germlab import analyzer

    rep = analyzer.analyze(germ)
    mu_I = None if rep.mu_I is None else Fraction(rep.mu_I)
    return rep.mu_of(2), rep.mu_of(3), mu_I, rep.verdict


# -- witness ----------------------------------------------------------------


def _witness_specs(seed: int, n: int) -> list[tuple]:
    rng = _rng("witness", seed)
    pools = {g: _rationals(rng, range(1, 100), range(1, 17), exclude={(1, 1)})
             for g in WITNESS_GERMS}
    germs = _rotation(rng, WITNESS_GERMS)
    specs = []
    for _ in range(n):
        g = next(germs)
        specs.append((g,) + pools[g].pop())
    return specs


def _witness_request(spec: tuple, germs: dict) -> Request:
    name, num, den = spec
    base, pert = germs[name]
    s = Fraction(num, den)
    return Request(f"{name} s={s}", (base, pert, s),
                   ("CONFIRMED" if s > 0 else "REFUTED",))


def _load_witness_germs() -> dict:
    from germlab.germfile import load_germ_file

    out = {}
    for name in WITNESS_GERMS:
        gf = load_germ_file(str(ROOT / "germs" / f"{name}.germ"))
        out[name] = (gf.base_germ(), gf.symbolic_germ(perturbed=True))
    return out


def _witness_execute(base, pert, s) -> tuple:
    from germlab import analyzer

    return (analyzer.witness_check(base, pert, {"s": s}).verdict,)


# -- homology ----------------------------------------------------------------
# The block construction of germlab.randoms, restated here rather than
# imported, so that no change to the program can change the benchmark's inputs.


def _block_perm(k: int, m: int, a: int, b: int) -> tuple[int, ...]:
    out = list(range(k * m))
    for v in range(m):
        out[a * m + v], out[b * m + v] = out[b * m + v], out[a * m + v]
    return tuple(out)


def _inner_cycle(k: int, m: int, p: int) -> tuple[int, ...]:
    out = list(range(k * m))
    for b in range(k):
        for v in range(p):
            out[b * m + v] = b * m + (v + 1) % p
    return tuple(out)


@cache
def _shape(k: int, m: int, p: int | None):
    """Generator images and every vertex permutation of the block group."""
    n = k * m
    gens = tuple(_block_perm(k, m, i, i + 1) for i in range(k - 1))
    g_perm = _inner_cycle(k, m, p) if p else None
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens + ((g_perm,) if g_perm else ()):
                w = tuple(g[x] for x in v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return gens, g_perm, sorted(seen - {ident})


def _faces(facets) -> set:
    return {s for f in facets for q in range(1, len(f) + 1) for s in combinations(f, q)}


@cache
def _chains(d: int) -> int:
    """Simplexes of the barycentric subdivision of one d-simplex's interior."""
    return 1 + sum(comb(d + 1, j + 1) * _chains(j) for j in range(d))


def pipeline_cells(faces: set, group) -> int:
    """Cells of validate_or_subdivide's output, computed combinatorially.

    A good complex is returned as it is; otherwise one barycentric
    subdivision makes the block actions good, and the subdivision of a
    d-simplex contributes `_chains(d)` cells.
    """
    good = all(tuple(sorted(v[x] for x in s)) != s or all(v[x] == x for x in s)
               for v in group for s in faces if len(s) > 1)
    if good:
        return len(faces)
    return sum(_chains(len(s) - 1) for s in faces)


def _block_complex(rng: random.Random, k: int, m: int, p: int | None) -> set:
    """Random facets closed up under the block group (not yet reduced to the
    maximal ones, not yet subdivided)."""
    n = k * m
    _, _, group = _shape(k, m, p)
    max_dim = rng.randint(1, 2)
    facets = set()
    for _ in range(rng.randint(2, 4)):
        size = rng.randint(1, max_dim + 1)
        facets.add(tuple(sorted(rng.sample(range(n), min(size, n)))))
    return facets | {tuple(sorted(v[x] for x in f)) for f in facets for v in group}


def _maximal(faces: set) -> tuple[tuple[int, ...], ...]:
    keep: list[set] = []
    for f in sorted(faces, key=len, reverse=True):
        if not any(g.issuperset(f) for g in keep):
            keep.append(set(f))
    return tuple(sorted(tuple(sorted(f)) for f in keep))


SHAPES = [(k, m, p) for k in (2, 3) for m in (2, 3) for p in (None, 2, 3)
          if p is None or p <= m]


def _homology_specs(seed: int, n: int) -> list[tuple]:
    """Complexes whose pipeline sizes rotate through five equal cell bands.

    Cost grows about cubically with cells, so an even spread of sizes keeps
    the mean and the tail of every seed alike; with five bands the median
    and the 90th percentile fall inside a band, not between two.  Each
    drawn complex goes to the band its size falls in, and the j-th complex
    of a band does not depend on n, so a shorter stream is a prefix.
    """
    order_rng, draw_rng = _rng("homology", seed), random.Random(f"homology draws {seed}")
    width = (CELLS_MAX - CELLS_MIN) // 5
    rotation = _rotation(order_rng, range(5))
    order = [next(rotation) for _ in range(n)]
    need = [order.count(b) for b in range(5)]
    found: list[list[tuple]] = [[] for _ in range(5)]
    while any(len(f) < want for f, want in zip(found, need)):
        k, m, p = draw_rng.choice(SHAPES)
        gens, g_perm, group = _shape(k, m, p)
        faces = _faces(_block_complex(draw_rng, k, m, p))
        # the cell count lies between the faces and their subdivision
        if len(faces) > CELLS_MAX or sum(_chains(len(s) - 1) for s in faces) < CELLS_MIN:
            continue
        cells = pipeline_cells(faces, group)
        band = min((cells - CELLS_MIN) // width, 4)
        if CELLS_MIN <= cells <= CELLS_MAX and len(found[band]) < need[band]:
            found[band].append((k * m, _maximal(faces), k, gens, g_perm, p))
    queues = [iter(f) for f in found]
    return [next(queues[band]) for band in order]


def _homology_request(spec: tuple) -> Request:
    from germlab.simplicial import GComplex

    n, facets, k, gens, g_perm, p = spec
    X = GComplex(n, facets, k, gens, g_perm, p)
    # ses_exact is a theorem only for p coprime to k! (the repository's
    # property suite pins a counterexample otherwise)
    ses = True if p is not None and factorial(k) % p else None
    expected = (True, True) + ((True, True, ses) if p is not None else ())
    return Request(f"k={k} n={n} p={p} facets={len(facets)}", (X,), expected)


def _homology_execute(X) -> tuple:
    from germlab import homology, simplicial, smith

    Y = simplicial.validate_or_subdivide(X)
    H = homology.homology(Y, "Z")
    alt = homology.alternating_homology(Y)
    chi_fixed = homology.chi_alt_fixed_point_formula(Y)
    chi_cells = sum((-1) ** q * len(s) for q, s in Y.simplices().items())
    out = (chi_fixed == alt.chi_alt, H.chi() == chi_cells)
    if Y.g_perm is None:
        return out
    floyd, _ = smith.verify_floyd(Y)
    equivariant, _ = smith.verify_equivariant_smith(Y)
    special = smith.smith_special_ranks(Y, 1)
    ses = special.ses_exact if factorial(Y.k) % Y.p else None
    return out + (floyd, equivariant, ses)


# -- public interface -----------------------------------------------------------


def make_stream(workload: str, seed: int, n: int) -> tuple[list[tuple], list[Request]]:
    """The seeded request stream: plain-data specs and the built requests.

    The specs depend on the seed alone; their digest identifies the stream.
    """
    if workload == "table":
        return _table_stream(seed, n)
    if workload == "witness":
        specs = _witness_specs(seed, n)
        germs = _load_witness_germs()
        return specs, [_witness_request(s, germs) for s in specs]
    specs = _homology_specs(seed, n)
    return specs, [_homology_request(s) for s in specs]


def digest(specs: list[tuple]) -> str:
    return hashlib.sha256(repr(specs).encode()).hexdigest()[:16]


def warmup_requests(workload: str) -> list[Request]:
    """Requests run before the clock, left out of the latency figures.

    table: none, every request is a new germ and pays the cold cost a user
    pays.  witness: one s = 1 request per base germ (s = 1 is kept out of
    the stream), so the measured stream finds the three base analyses in the
    memo.  homology: none, nothing is cached between requests.
    """
    if workload != "witness":
        return []
    germs = _load_witness_germs()
    return [_witness_request((g, 1, 1), germs) for g in WITNESS_GERMS]


_EXECUTE = {"table": _table_execute, "witness": _witness_execute,
            "homology": _homology_execute}


def execute(workload: str, req: Request) -> tuple:
    """Run one request; the result must equal `req.expected`."""
    return _EXECUTE[workload](*req.args)
