"""Randomized good complexes for the property suite and the acceptance tests.

Vertices come in k blocks of m; the symmetric group permutes blocks, the
optional cyclic action permutes inner labels the same way in every block
(hence commutes).  Random facets are closed up under the group to make the
action simplicial, then a barycentric subdivision repairs goodness.
"""

from __future__ import annotations

import random

from germlab.simplicial import GComplex, validate_or_subdivide


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


def block_complexes(rng: random.Random, k: int = 2, m: int = 2, n_facets: int = 3,
                    max_dim: int = 2, p: int | None = None) -> tuple[GComplex, GComplex]:
    """Random facets with a block Sigma_k action (and inner Z/p), as drawn
    (the action need not be simplicial) and closed up under the group (the
    action is simplicial, but need not be good)."""
    n = k * m
    gens = tuple(_block_perm(k, m, i, i + 1) for i in range(k - 1))
    g_perm = None
    if p is not None:
        if p > m:
            raise ValueError("inner cycle needs p <= m")
        g_perm = _inner_cycle(k, m, p)
    facets = set()
    for _ in range(n_facets):
        size = rng.randint(1, max_dim + 1)
        f = tuple(sorted(rng.sample(range(n), min(size, n))))
        facets.add(f)
    # close up under the group so the action is simplicial
    drawn = GComplex(n, tuple(sorted(facets)), k, gens, g_perm, p)
    elements = [v for v, _ in drawn.all_elements()]
    closed = set()
    for f in facets:
        for v in elements:
            closed.add(tuple(sorted(v[x] for x in f)))
    # drop non-maximal faces
    keep: list[tuple[int, ...]] = []
    for f in sorted(closed, key=len, reverse=True):
        if not any(set(f) <= set(g) for g in keep):
            keep.append(f)
    return drawn, GComplex(n, tuple(sorted(keep)), k, gens, g_perm, p)


def random_block_complex(rng: random.Random, k: int = 2, m: int = 2,
                         n_facets: int = 3, max_dim: int = 2,
                         p: int | None = None) -> GComplex:
    """A simplicially good complex with a block Sigma_k action (and inner Z/p)."""
    return validate_or_subdivide(block_complexes(rng, k, m, n_facets, max_dim, p)[1])
