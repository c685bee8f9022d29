"""The forbidden family: chord-augmented cycles C6..C9 and membership tests.

A graph belongs to the family when some vertex subset induces a graph
isomorphic to a catalog member.  Members are cycles of length 6 to 9 with a
chord subset drawn from one fixed chord pool per variant; the raw catalog has
4 + 16 + 16 + 16 + 16 = 68 entries, 40 up to isomorphism.

The family is a constant, so the deduplicated catalog is stored as data:
`DEDUP_MEMBERS` lists the (variant tag, chord subset) of each of the 40
members, and `get_catalog` builds those graphs without an isomorphism
search.  That search, 1,299 pairwise isomorphism tests of which 59 reach
an embedding search, would otherwise run at the start of every process
that reads the catalog, as `lexhyp verify` and `classify` do.
`build_catalog(dedup=True)` keeps the search as the reference, and
`test_stored_catalog_matches_the_search` pins the stored list to it member
by member: tags, chords, edges and order.

Deduplication and membership share one search, `_find_induced`: between two
graphs of the same order an induced embedding is an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from .graph import UNREACHABLE, Graph, cycle_graph

# (variant tag, cycle length, chord pool in 1-based cycle naming)
FAMILY_CHORD_POOLS = (
    ("C6_1", 6, ((2, 6), (4, 6))),
    ("C7_1", 7, ((2, 6), (2, 7), (4, 6), (4, 7))),
    ("C8_1", 8, ((2, 6), (2, 8), (4, 6), (4, 8))),
    ("C8_2", 8, ((2, 8), (4, 6), (4, 7), (4, 8))),
    ("C9_1", 9, ((2, 6), (2, 9), (4, 6), (4, 9))),
)

# The deduplicated catalog in `build_catalog(dedup=True)`'s order, the first
# raw chording of each isomorphism class: raw indices 0, 1, 3-6, 9-12, 15,
# 16, 19-22, 25, 27, 28, 31, 32, 35, 39, 42, 44, 46, 47, 49-54, 57-60, 63,
# 64 and 67 of `build_catalog(dedup=False)`.
DEDUP_MEMBERS = (
    ("C6_1", ()),
    ("C6_1", ((2, 6),)),
    ("C6_1", ((2, 6), (4, 6))),
    ("C7_1", ()),
    ("C7_1", ((2, 6),)),
    ("C7_1", ((2, 7),)),
    ("C7_1", ((2, 6), (2, 7))),
    ("C7_1", ((2, 6), (4, 6))),
    ("C7_1", ((2, 6), (4, 7))),
    ("C7_1", ((2, 7), (4, 6))),
    ("C7_1", ((2, 6), (2, 7), (4, 6))),
    ("C7_1", ((2, 6), (2, 7), (4, 7))),
    ("C7_1", ((2, 6), (2, 7), (4, 6), (4, 7))),
    ("C8_1", ()),
    ("C8_1", ((2, 6),)),
    ("C8_1", ((2, 8),)),
    ("C8_1", ((2, 6), (2, 8))),
    ("C8_1", ((2, 6), (4, 8))),
    ("C8_1", ((2, 8), (4, 6))),
    ("C8_1", ((2, 6), (2, 8), (4, 6))),
    ("C8_1", ((2, 6), (2, 8), (4, 8))),
    ("C8_1", ((2, 6), (2, 8), (4, 6), (4, 8))),
    ("C8_2", ((4, 7),)),
    ("C8_2", ((2, 8), (4, 7))),
    ("C8_2", ((4, 6), (4, 7))),
    ("C8_2", ((4, 7), (4, 8))),
    ("C8_2", ((2, 8), (4, 6), (4, 7))),
    ("C8_2", ((2, 8), (4, 7), (4, 8))),
    ("C8_2", ((4, 6), (4, 7), (4, 8))),
    ("C8_2", ((2, 8), (4, 6), (4, 7), (4, 8))),
    ("C9_1", ()),
    ("C9_1", ((2, 6),)),
    ("C9_1", ((2, 9),)),
    ("C9_1", ((2, 6), (2, 9))),
    ("C9_1", ((2, 6), (4, 6))),
    ("C9_1", ((2, 6), (4, 9))),
    ("C9_1", ((2, 9), (4, 6))),
    ("C9_1", ((2, 6), (2, 9), (4, 6))),
    ("C9_1", ((2, 6), (2, 9), (4, 9))),
    ("C9_1", ((2, 6), (2, 9), (4, 6), (4, 9))),
)


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------

def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Isomorphism test: an invariant screen (order, size, degrees), then an
    induced embedding search between the two equal-size graphs."""
    if (g1.vertex_count, g1.m, g1.degree_multiset()) != (g2.vertex_count, g2.m, g2.degree_multiset()):
        return False
    return _find_induced(g1, g2) is not None


# ---------------------------------------------------------------------------
# Catalog construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FCatalog:
    """Chord-augmented cycle family, optionally deduplicated up to isomorphism."""

    members: tuple[Graph, ...]
    family_tags: tuple[str, ...]
    chords: tuple[tuple[tuple[int, int], ...], ...]  # 1-based, per member
    deduplicated: bool

    def __len__(self) -> int:
        return len(self.members)


def _chorded_cycle(n: int, chords) -> Graph:
    edges = list(cycle_graph(n).edges)
    edges += [(a - 1, b - 1) for a, b in chords]
    return Graph(n, edges)


def build_catalog(dedup: bool = True) -> FCatalog:
    """Enumerate every chord subset per variant (the empty subset included);
    with `dedup`, keep the first member of each isomorphism class, tagged by
    the variant that produced it."""
    members, tags, chords = [], [], []
    for tag, n, pool in FAMILY_CHORD_POOLS:
        for r in range(len(pool) + 1):
            for subset in combinations(pool, r):
                members.append(_chorded_cycle(n, subset))
                tags.append(tag)
                chords.append(subset)
    if not dedup:
        return FCatalog(tuple(members), tuple(tags), tuple(chords), False)
    keep: list[int] = []
    for i, g in enumerate(members):
        if not any(is_isomorphic(g, members[r]) for r in keep):
            keep.append(i)
    return FCatalog(
        tuple(members[i] for i in keep),
        tuple(tags[i] for i in keep),
        tuple(chords[i] for i in keep),
        True,
    )


@lru_cache(maxsize=1)
def get_catalog() -> FCatalog:
    """The deduplicated catalog, built once per process from the stored
    `DEDUP_MEMBERS`: the members of `build_catalog(dedup=True)`, with their
    tags, chords and order, but no isomorphism search."""
    length = {tag: n for tag, n, _ in FAMILY_CHORD_POOLS}
    return FCatalog(tuple(_chorded_cycle(length[tag], chords) for tag, chords in DEDUP_MEMBERS),
                    tuple(tag for tag, _ in DEDUP_MEMBERS),
                    tuple(chords for _, chords in DEDUP_MEMBERS), True)


# ---------------------------------------------------------------------------
# Induced-subgraph membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FWitness:
    subset: tuple[int, ...]
    member_index: int
    family_tag: str


class _TargetBits:
    """A target graph's vertex sets as integer bitsets, bit t for vertex t:
    `adj[t]` the neighbors of t, `far[r][t]` for r up to `reach` the
    vertices within r of t but not adjacent to it (and those t cannot
    reach, which no distance bound excludes), and `deg_ge[d]` the vertices
    of degree at least d.  A last row of `far` holds every vertex not
    adjacent to t, for larger distances and UNREACHABLE, so the rows stay
    as many as the patterns need whatever the target's diameter."""

    __slots__ = ("adj", "far", "deg_ge")

    def __init__(self, target: Graph, reach: int):
        dist = target.vertex_distances()
        adj = dist == 1
        apart = ~adj
        self.adj = _bit_rows(adj)
        self.far = [_bit_rows((dist <= r) & apart) for r in range(reach + 1)] + [_bit_rows(apart)]
        degs = adj.sum(axis=1)
        self.deg_ge = _bit_rows(degs >= np.arange(int(degs.max()) + 2)[:, None])

    def within(self, r: int) -> list[int]:
        """`far[r]` for a pattern distance r: past `reach`, and for
        UNREACHABLE, which bounds nothing, every vertex not adjacent."""
        return self.far[-1 if r == UNREACHABLE else min(r, len(self.far) - 1)]

    def degree_at_least(self, d: int) -> int:
        return self.deg_ge[min(d, len(self.deg_ge) - 1)]


def _reach(pattern: Graph) -> int:
    """The largest finite distance between two vertices of `pattern`."""
    return int(pattern.vertex_distances().max())


def _bit_rows(flags: np.ndarray) -> list[int]:
    """The bitset of every row of the bool array `flags` (rows along its
    last axis, in C order): bit t set where entry t holds."""
    packed = np.packbits(flags, axis=-1, bitorder="little")
    width, data = packed.shape[-1], packed.tobytes()
    return [int.from_bytes(data[lo:lo + width], "little") for lo in range(0, len(data), width)]


def _find_induced(pattern: Graph, target: Graph,
                  bits: Optional[_TargetBits] = None) -> Optional[dict]:
    """First induced embedding of `pattern` into `target` under a fixed
    deterministic search order (rarest-candidates-first, ascending images).

    A vertex's candidates are those of high enough degree; placed in order,
    each one keeps the unused candidates that match every placed vertex:
    adjacent exactly where the pattern is, and within the pattern's
    distance, as ambient distances never exceed induced-subgraph ones (a
    pattern pair in two components bounds nothing).  The sets are integer
    bitsets of the target (`_TargetBits`, built here unless `bits` brings
    them), and the images are tried in ascending order.
    """
    np_, nt = pattern.vertex_count, target.vertex_count
    if np_ > nt:
        return None
    if bits is None:
        bits = _TargetBits(target, _reach(pattern))
    pdeg = [pattern.degree(u) for u in range(np_)]
    cands = [bits.degree_at_least(d) for d in pdeg]
    if not all(cands):
        return None
    size = [c.bit_count() for c in cands]
    padj = [set(pattern.neighbors(u)) for u in range(np_)]
    pdist = pattern.vertex_distances().tolist()

    # rarest vertex first, then grow along pattern adjacency
    order = [min(range(np_), key=lambda u: (size[u], u))]
    placed = set(order)
    while len(order) < np_:
        frontier = [u for u in range(np_) if u not in placed and padj[u] & placed]
        pick = min(frontier or [u for u in range(np_) if u not in placed],
                   key=lambda u: (size[u], u))
        order.append(pick)
        placed.add(pick)

    # per search depth, the bitsets that each earlier image leaves free
    masks = [[bits.adj if u2 in padj[u] else bits.within(pdist[u][u2]) for u2 in order[:i]]
             for i, u in enumerate(order)]
    images: list[int] = []

    def extend(i: int, used: int) -> bool:
        if i == np_:
            return True
        free = cands[order[i]] & ~used
        for mask, t2 in zip(masks[i], images):
            free &= mask[t2]
        while free:
            low = free & -free
            images.append(low.bit_length() - 1)
            if extend(i + 1, used | low):
                return True
            images.pop()
            free ^= low
        return False

    return dict(zip(order, images)) if extend(0, 0) else None


def in_family_F(g: Graph) -> tuple[bool, Optional[FWitness]]:
    """Decide family membership; on success report a witness vertex subset
    and the (lowest-index) catalog member it realizes."""
    catalog = get_catalog()
    if g.vertex_count < 6:
        return False, None
    bits = _TargetBits(g, max(_reach(m) for m in catalog.members))
    for idx, member in enumerate(catalog.members):
        mapping = _find_induced(member, g, bits)
        if mapping is not None:
            subset = tuple(sorted(mapping.values()))
            return True, FWitness(subset=subset, member_index=idx,
                                  family_tag=catalog.family_tags[idx])
    return False, None
