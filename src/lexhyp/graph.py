"""Simple connected unit-length graphs: construction, parsing, generators.

A `Graph` is immutable after construction and validated eagerly: no loops, no
duplicate edges, vertices 0..n-1, connected.  The one sanctioned exception is
`induced_subgraph`, which may return a disconnected graph.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import ParseError, ValidationError

UNREACHABLE = -1

_GENERATOR_RE = re.compile(r"^(path|cycle|complete|star):(\d+)$")


def _bfs_apsp(n: int, edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """All-pairs hop counts by breadth-first search (unit edge lengths).

    Returns an int32 matrix with UNREACHABLE for disconnected pairs.
    """
    if n == 1:
        return np.zeros((1, 1), dtype=np.int32)
    rows = [u for u, v in edges] + [v for u, v in edges]
    cols = [v for u, v in edges] + [u for u, v in edges]
    adj = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    dist = shortest_path(adj, method="D", unweighted=True, directed=True)  # adj holds both directions
    out = np.full((n, n), UNREACHABLE, dtype=np.int32)
    finite = np.isfinite(dist)
    out[finite] = dist[finite].astype(np.int32)
    return out


def neighbor_arcs(neighbors: Sequence[Sequence[int]]) -> np.ndarray:
    """(tail, head) rows for both directions of every edge, sorted by head, then tail."""
    deg = [len(ns) for ns in neighbors]
    head = np.repeat(np.arange(len(neighbors)), deg)
    tail = np.fromiter(chain.from_iterable(neighbors), dtype=np.intp, count=head.size)
    return np.stack([tail, head], axis=1)


class Graph:
    """Simple undirected graph with unit-length edges and vertices 0..n-1."""

    __slots__ = ("vertex_count", "edges", "labels", "_edge_keys", "_neighbors", "_dist")

    def __init__(
        self,
        vertex_count: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Sequence[str]] = None,
        _allow_disconnected: bool = False,
    ):
        if not isinstance(vertex_count, int) or vertex_count < 1:
            raise ValidationError(f"vertex_count must be a positive integer, got {vertex_count!r}")
        seen = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValidationError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValidationError(f"edge ({u},{v}) outside vertex range 0..{vertex_count - 1}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValidationError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
        self.vertex_count = vertex_count
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        self._edge_keys = frozenset(seen)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != vertex_count:
                raise ValidationError("labels length must equal vertex_count")
        self.labels = labels
        nbrs = [[] for _ in range(vertex_count)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self._neighbors = tuple(tuple(sorted(a)) for a in nbrs)
        self._dist: Optional[np.ndarray] = None
        if not _allow_disconnected and not self.is_connected():
            raise ValidationError("disconnected graph")

    @property
    def n(self) -> int:
        return self.vertex_count

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._neighbors[v]

    def arcs(self) -> np.ndarray:
        """Both directions of every edge, as `neighbor_arcs` rows."""
        return neighbor_arcs(self._neighbors)

    def degree(self, v: int) -> int:
        return len(self._neighbors[v])

    def degree_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(len(a) for a in self._neighbors))

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_keys

    def is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self._neighbors[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertex_count

    def is_tree(self) -> bool:
        return self.is_connected() and self.m == self.vertex_count - 1

    def is_trivial(self) -> bool:
        return self.vertex_count == 1

    def vertex_distances(self) -> np.ndarray:
        """Hop-count APSP over vertices (cached; UNREACHABLE if disconnected)."""
        if self._dist is None:
            self._dist = _bfs_apsp(self.vertex_count, self.edges)
            self._dist.setflags(write=False)
        return self._dist

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.m})"

    def to_edge_list_text(self) -> str:
        if not self.edges:
            return f"# trivial graph on {self.vertex_count} vertex\n"
        return "\n".join(f"{u} {v}" for u, v in self.edges) + "\n"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def trivial_graph() -> Graph:
    return Graph(1, [])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValidationError(f"path:{n} needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValidationError(f"cycle:{n} needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValidationError(f"complete:{n} needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Star with `leaves` leaves around center 0 (diameter 2 for leaves >= 2)."""
    if leaves < 1:
        raise ValidationError(f"star:{leaves} needs at least one leaf")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def parse_graph(source: str) -> Graph:
    """Parse edge-list text or a generator spec.

    Generator specs: ``path:n``, ``cycle:n`` (n>=3), ``complete:n``,
    ``star:n`` (n leaves), ``trivial``.  Edge-list lines hold two
    whitespace-separated non-negative integers; ``#`` comments and blank
    lines are ignored.
    """
    text = source.strip()
    if text == "trivial":
        return trivial_graph()
    match = _GENERATOR_RE.match(text)
    if match:
        kind, num = match.group(1), int(match.group(2))
        maker = {
            "path": path_graph,
            "cycle": cycle_graph,
            "complete": complete_graph,
            "star": star_graph,
        }[kind]
        return maker(num)
    edges = []
    max_id = -1
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two vertex ids, got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id in {raw!r}")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if max_id < 0:
        raise ParseError("no edges found; use 'trivial' for the one-vertex graph")
    return Graph(max_id + 1, edges)


# ---------------------------------------------------------------------------
# Subgraph operations
# ---------------------------------------------------------------------------

def induced_subgraph(g: Graph, subset: Iterable[int]) -> Graph:
    """Induced subgraph on `subset`, renumbered 0..k-1 in sorted vertex order.

    The result may be disconnected; this is the only constructor exempt from
    the connectivity invariant.
    """
    verts = sorted(set(int(v) for v in subset))
    if not verts:
        raise ValidationError("empty vertex subset")
    for v in verts:
        if not (0 <= v < g.vertex_count):
            raise ValidationError(f"vertex {v} not in graph")
    index = {v: i for i, v in enumerate(verts)}
    members = set(verts)
    edges = [(index[u], index[v]) for u, v in g.edges if u in members and v in members]
    labels = tuple(g.labels[v] for v in verts) if g.labels else None
    return Graph(len(verts), edges, labels=labels, _allow_disconnected=True)


def is_isometric_embedding(h: Graph, g: Graph, mapping: Mapping[int, int] | Sequence[int]) -> bool:
    """True iff `mapping` embeds `h` into `g` preserving all pairwise distances.

    Raises ValidationError if the map is not injective or some edge of `h`
    has no image edge in `g` (then `h` is not even mapped to a subgraph).
    """
    if isinstance(mapping, Mapping):
        img = [mapping[v] for v in range(h.vertex_count)]
    else:
        img = list(mapping)
        if len(img) != h.vertex_count:
            raise ValidationError("mapping must cover every vertex of h")
    if len(set(img)) != len(img):
        raise ValidationError("mapping is not injective")
    for u, v in h.edges:
        if not g.has_edge(img[u], img[v]):
            raise ValidationError(f"edge ({u},{v}) of h has no image edge in g")
    # UNREACHABLE entries of a disconnected h never equal a distance in g
    return np.array_equal(h.vertex_distances(), g.vertex_distances()[np.ix_(img, img)])
