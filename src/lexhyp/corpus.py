"""Deterministic graph corpora for the verification suite.

The singles are every size in [min_vertices, max_vertices] of seven families,
always all seven and in this order: paths, cycles, stars, complete graphs,
random trees, random connected graphs and catalog members."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .catalog import get_catalog
from .errors import ValidationError
from .graph import Graph, complete_graph, cycle_graph, path_graph, star_graph


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic corpus description: same spec, same corpus."""

    seed: int = 0
    min_vertices: int = 1
    max_vertices: int = 8
    product_cap: int = 24
    pair_count: int = 30


@dataclass(frozen=True)
class Corpus:
    spec: CorpusSpec
    graphs: tuple[Graph, ...]
    pairs: tuple[tuple[Graph, Graph], ...]


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform-attachment tree: vertex v>0 hangs off a uniform earlier vertex."""
    if n == 1:
        return Graph(1, [])
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_connected(n: int, rng: random.Random) -> Graph:
    """Random spanning tree plus a random batch of extra edges."""
    tree = random_tree(n, rng)
    edges = set(tree.edges)
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    rng.shuffle(non_edges)
    extra = rng.randint(0, min(len(non_edges), n))
    return Graph(n, sorted(edges) + sorted(non_edges[:extra]))


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Expand a spec into single graphs and (G1, G2) pairs.

    Even-indexed pairs are constrained to `product_cap` product vertices so
    the hyperbolicity-engine checks always have material to work on.
    """
    lo, hi = spec.min_vertices, spec.max_vertices
    if lo < 1 or hi < lo:
        raise ValidationError(f"infeasible size bounds [{lo}, {hi}]")
    rng = random.Random(spec.seed)
    sizes = range(lo, hi + 1)
    singles = [path_graph(n) for n in sizes]
    singles += [cycle_graph(n) for n in sizes if n >= 3]
    singles += [star_graph(n - 1) for n in sizes if n >= 2]
    singles += [complete_graph(n) for n in sizes]
    singles += [random_tree(n, rng) for n in sizes if n >= 2]
    singles += [random_connected(n, rng) for n in sizes if n >= 2]
    singles += [g for g in get_catalog().members if lo <= g.vertex_count <= hi]

    pairs: list[tuple[Graph, Graph]] = []
    for i in range(spec.pair_count):
        g1 = rng.choice(singles)
        if i % 2 == 0:
            fits = [g for g in singles if g.vertex_count * g1.vertex_count <= spec.product_cap]
            g2 = rng.choice(fits) if fits else rng.choice(singles)
        else:
            g2 = rng.choice(singles)
        pairs.append((g1, g2))
    return Corpus(spec=spec, graphs=tuple(singles), pairs=tuple(pairs))
