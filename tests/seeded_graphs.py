"""Seeded signed digraphs that the numeric spectrum route once got wrong.

Each builder draws from its own random.Random(seed), so a seed names one
graph on every platform.
"""
from __future__ import annotations

import random

from sidigraph import SignedDigraph


def _hamiltonian_with_chords(rng: random.Random, n: int, n_arcs: int) -> set[tuple[int, int]]:
    """A random Hamiltonian cycle on 0..n-1 plus random chords, n_arcs in all."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    while len(arcs) < n_arcs:
        tail, head = rng.randrange(n), rng.randrange(n)
        if tail != head:
            arcs.add((tail, head))
    return arcs


def dense_scc(seed: int, n: int = 40, n_arcs: int = 510) -> SignedDigraph:
    """One strongly connected digraph, about 12.75 arcs per vertex, random signs.

    With the default size its exact characteristic polynomial has
    coefficients of 43 to 49 bits (seeds 0-7).  For some seeds (1, 4, 7, 22
    and 25 of 0-39) the partial sums of the float trace recursion pass 2^53
    on the way, so char_poly refuses them; the others it computes exactly.
    """
    rng = random.Random(seed)
    arcs = sorted(_hamiltonian_with_chords(rng, n, n_arcs))
    return SignedDigraph(n, tuple((t, h, rng.choice((1, -1))) for t, h in arcs))


def chained_blocks(seed: int, n_blocks: int = 3, size: int = 24, per_vertex: int = 4) -> tuple[SignedDigraph, list[list[int]]]:
    """Strongly connected blocks joined by forward arcs, and the blocks' vertices.

    Each block is a random Hamiltonian cycle plus chords up to `per_vertex`
    arcs per vertex; `size` random arcs run from each block to the next, so
    the blocks are exactly the strong components.
    """
    rng = random.Random(seed)
    signed: dict[tuple[int, int], int] = {}
    blocks = []
    for b in range(n_blocks):
        offset = b * size
        blocks.append(list(range(offset, offset + size)))
        for t, h in sorted(_hamiltonian_with_chords(rng, size, size * per_vertex)):
            signed[(offset + t, offset + h)] = rng.choice((1, -1))
        if b + 1 < n_blocks:
            bridges: set[tuple[int, int]] = set()
            while len(bridges) < size:
                bridges.add((offset + rng.randrange(size), offset + size + rng.randrange(size)))
            for t, h in sorted(bridges):
                signed[(t, h)] = rng.choice((1, -1))
    arcs = tuple((t, h, s) for (t, h), s in signed.items())
    return SignedDigraph(n_blocks * size, arcs), blocks
