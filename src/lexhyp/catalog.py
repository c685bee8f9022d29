"""The forbidden family: chord-augmented cycles C6..C9 and membership tests.

A graph belongs to the family when some vertex subset induces a graph
isomorphic to a catalog member.  Members are cycles of length 6 to 9 with a
chord subset drawn from one fixed chord pool per variant; the raw catalog has
4 + 16 + 16 + 16 + 16 = 68 entries before isomorphism deduplication.

Deduplication and membership share one search, `_find_induced`: between two
graphs of the same order an induced embedding is an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

from .graph import UNREACHABLE, Graph, cycle_graph

# (variant tag, cycle length, chord pool in 1-based cycle naming)
FAMILY_CHORD_POOLS = (
    ("C6_1", 6, ((2, 6), (4, 6))),
    ("C7_1", 7, ((2, 6), (2, 7), (4, 6), (4, 7))),
    ("C8_1", 8, ((2, 6), (2, 8), (4, 6), (4, 8))),
    ("C8_2", 8, ((2, 8), (4, 6), (4, 7), (4, 8))),
    ("C9_1", 9, ((2, 6), (2, 9), (4, 6), (4, 9))),
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
    """The deduplicated catalog, built once per process."""
    return build_catalog(dedup=True)


# ---------------------------------------------------------------------------
# Induced-subgraph membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FWitness:
    subset: tuple[int, ...]
    member_index: int
    family_tag: str


def _find_induced(pattern: Graph, target: Graph) -> Optional[dict]:
    """First induced embedding of `pattern` into `target` under a fixed
    deterministic search order (rarest-candidates-first, ascending images)."""
    np_, nt = pattern.vertex_count, target.vertex_count
    if np_ > nt:
        return None
    tdeg = [target.degree(t) for t in range(nt)]
    padj = [set(pattern.neighbors(u)) for u in range(np_)]
    tadj = [set(target.neighbors(t)) for t in range(nt)]
    pdist = pattern.vertex_distances()
    tdist = target.vertex_distances()
    cands = {u: [t for t in range(nt) if tdeg[t] >= pattern.degree(u)] for u in range(np_)}
    if any(not c for c in cands.values()):
        return None

    # rarest vertex first, then grow along pattern adjacency
    order = [min(range(np_), key=lambda u: (len(cands[u]), u))]
    placed = set(order)
    while len(order) < np_:
        frontier = [u for u in range(np_) if u not in placed and padj[u] & placed]
        pick = min(frontier or [u for u in range(np_) if u not in placed],
                   key=lambda u: (len(cands[u]), u))
        order.append(pick)
        placed.add(pick)

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == np_:
            return True
        u = order[i]
        for t in cands[u]:
            if t in used:
                continue
            ok = True
            for u2, t2 in mapping.items():
                adj_p = u2 in padj[u]
                if adj_p != (t2 in tadj[t]):
                    ok = False
                    break
                # ambient distances never exceed induced-subgraph distances;
                # a pattern pair in two components bounds nothing
                if not adj_p and pdist[u, u2] != UNREACHABLE and tdist[t, t2] > pdist[u, u2]:
                    ok = False
                    break
            if not ok:
                continue
            mapping[u] = t
            used.add(t)
            if extend(i + 1):
                return True
            del mapping[u]
            used.remove(t)
        return False

    return mapping if extend(0) else None


def in_family_F(g: Graph) -> tuple[bool, Optional[FWitness]]:
    """Decide family membership; on success report a witness vertex subset
    and the (lowest-index) catalog member it realizes."""
    catalog = get_catalog()
    if g.vertex_count < 6:
        return False, None
    for idx, member in enumerate(catalog.members):
        mapping = _find_induced(member, g)
        if mapping is not None:
            subset = tuple(sorted(mapping.values()))
            return True, FWitness(subset=subset, member_index=idx,
                                  family_tag=catalog.family_tags[idx])
    return False, None
