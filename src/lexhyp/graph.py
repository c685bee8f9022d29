"""Simple connected unit-length graphs: construction, parsing, generators.

A `Graph` is immutable after construction and validated eagerly: no loops, no
duplicate edges, unlabeled vertices 0..n-1, connected.  The one exception is
`induced_subgraph`, which may return a disconnected graph.  Validation,
sorting and the neighbor lists are array operations over the whole edge
list; each error names the first offending edge in input order.

Hop counts come from Seidel's all-pairs recursion (R. Seidel, JCSS 1995) in
float64 matrix products: O(n^3 log diameter) time, exact while (n-1)^2 < 2^53.

Automorphisms never come from a search on a product: `product` attaches the
ones its construction gives, and only a graph without them (a factor) is
searched, with a capped backtracking search (`Graph.automorphism_generators`).
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ParseError, ValidationError

UNREACHABLE = -1

_GENERATOR_RE = re.compile(r"^(path|cycle|complete|star):(\d+)$")


def _seidel_apsp(closed: np.ndarray) -> np.ndarray:
    """Hop counts from a closed-neighborhood matrix N (adjacency or identity),
    UNREACHABLE between components.  Level l + 1 joins the pairs within two
    hops in level l until none is added, which leaves complete components:
    the reachability mask.  Back down, with T the next level's distances,
    d(i, j) = 2 T[i, j] - [(T N)[i, j] < T[i, j] |N(j)|], and pairs in
    different components stay 0."""
    levels = [closed]
    while True:
        c = levels[-1].astype(np.float64)
        wider = c @ c > 0
        if np.array_equal(wider, levels[-1]):
            break
        levels.append(wider)
    reach = levels.pop()
    t = reach - np.eye(len(reach))  # 1 inside a component, 0 on the diagonal
    for c in reversed(levels):
        t = 2 * t - (t @ c.astype(np.float64) < t * c.sum(axis=0))
    out = t.astype(np.int32)
    out[~reach] = UNREACHABLE
    return out


def _reject_first_bad_edge(ends: np.ndarray, n: int) -> None:
    """Raise ValidationError for the first edge, in input order, that is a
    loop, leaves the vertex range 0..n-1 or repeats an earlier edge."""
    u, v = ends.T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    loop = u == v
    outside = (lo < 0) | (hi >= n)
    key = np.where(loop | outside, -1 - np.arange(u.size), lo * n + hi)  # bad ends: unique keys
    _, first = np.unique(key, return_index=True)
    repeat = np.ones(u.size, dtype=bool)
    repeat[first] = False
    i = int((loop | outside | repeat).argmax())
    if loop[i]:
        raise ValidationError(f"loop at vertex {int(u[i])}")
    if outside[i]:
        raise ValidationError(f"edge ({int(u[i])},{int(v[i])}) outside vertex range 0..{n - 1}")
    raise ValidationError(f"duplicate edge ({int(lo[i])},{int(hi[i])})")


class Graph:
    """Simple undirected graph with unit-length edges and vertices 0..n-1.

    `edges` are sorted (u, v) pairs with u < v.  A graph built by `product`
    also carries `_automorphisms`, a read-only array of vertex permutations,
    one per row, that the construction guarantees.  Only `product` sets it,
    as a function that builds the array the first time
    `automorphism_generators` is called, so products that are never swept
    pay nothing for it.  The engine lifts and checks each row before use
    (`j_automorphisms`), and `__eq__` and `__hash__` ignore it.  Every
    other graph carries None.
    """

    __slots__ = ("vertex_count", "edges", "_edge_keys", "_neighbors", "_dist",
                 "_automorphisms", "_aut_search", "_blocks")

    def __init__(
        self,
        vertex_count: int,
        edges: Iterable[tuple[int, int]],
        _allow_disconnected: bool = False,
    ):
        if not isinstance(vertex_count, int) or vertex_count < 1:
            raise ValidationError(f"vertex_count must be a positive integer, got {vertex_count!r}")
        n = vertex_count
        ends = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        if ends.size == 0:
            ends = ends.reshape(0, 2)
        if ends.shape[1:] != (2,):
            raise ValidationError("edges must be (u, v) vertex pairs")
        pairs = np.sort(ends, axis=1)
        keys = pairs * n + pairs[:, ::-1]  # lo * n + hi and hi * n + lo
        lo, hi = pairs[keys[:, 0].argsort(kind="stable")].T  # edges in sorted order
        lo_list, hi_list = lo.tolist(), hi.tolist()
        self.edges: tuple[tuple[int, int], ...] = tuple(zip(lo_list, hi_list))
        self._edge_keys = frozenset(self.edges)
        if lo_list and (min(lo_list) < 0 or max(hi_list) >= n or np.count_nonzero(lo == hi)
                        or len(self._edge_keys) < len(self.edges)):  # a range, loop or repeat
            _reject_first_bad_edge(ends, n)
        self.vertex_count = n
        arcs = np.sort(keys, axis=None)  # head * n + tail: `arcs()` order
        tail = (arcs % n).tolist()
        stop = arcs.searchsorted(np.arange(n, n * n + 1, n)).tolist()
        self._neighbors = tuple(tuple(tail[a:b]) for a, b in zip([0] + stop, stop))
        self._dist: Optional[np.ndarray] = None
        self._automorphisms: Optional[np.ndarray] = None
        self._aut_search: Optional[np.ndarray] = None
        self._blocks: Optional[tuple[tuple[int, ...], ...]] = None
        if not _allow_disconnected and not self.is_connected():
            raise ValidationError("disconnected graph")

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._neighbors[v]

    def arcs(self) -> np.ndarray:
        """(tail, head) rows for both directions of every edge, sorted by head, then tail."""
        head = np.repeat(np.arange(self.vertex_count), [len(ns) for ns in self._neighbors])
        tail = np.fromiter(chain.from_iterable(self._neighbors), dtype=np.intp, count=head.size)
        return np.stack([tail, head], axis=1)

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
        """Hop-count APSP over vertices (cached; UNREACHABLE if disconnected)
        by Seidel's recursion (`_seidel_apsp`): per level two n x n float64
        products, whose entries are integers <= (n - 1)^2 and so exact below
        2^53, and one boolean n x n matrix; O(n^3 log diameter) time."""
        if self._dist is None:
            closed = np.eye(self.vertex_count, dtype=bool)
            closed[tuple(self.arcs().T)] = True
            self._dist = _seidel_apsp(closed)
            self._dist.setflags(write=False)
        return self._dist

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The biconnected blocks, each a sorted vertex tuple, in sorted order
        (cached): the maximal subgraphs without a cut vertex of their own, a
        bridge's two ends included.  An isolated vertex is in none.

        Found by Hopcroft and Tarjan's lowpoint DFS, run with an explicit
        stack so that no path's depth meets the recursion limit: when the
        DFS leaves a child u of p with low(u) >= disc(p), p and the vertices
        from u up on the vertex stack form one block.
        """
        if self._blocks is None:
            n, nbrs = self.vertex_count, self._neighbors
            disc, low = [-1] * n, [0] * n
            found, clock = [], 0
            for root in range(n):
                if disc[root] >= 0:
                    continue
                disc[root] = low[root] = clock
                clock += 1
                stack = [root]  # vertices in DFS order whose block is still open
                todo = [(root, -1, iter(nbrs[root]))]  # (vertex, parent, untried neighbors)
                while todo:
                    u, parent, rest = todo[-1]
                    for w in rest:
                        if disc[w] < 0:
                            disc[w] = low[w] = clock
                            clock += 1
                            stack.append(w)
                            todo.append((w, u, iter(nbrs[w])))
                            break
                        if w != parent:  # a back edge: a simple graph has one edge to the parent
                            low[u] = min(low[u], disc[w])
                    else:
                        todo.pop()
                        if parent >= 0:
                            low[parent] = min(low[parent], low[u])
                            if low[u] >= disc[parent]:  # parent cuts off u's subtree: a block
                                block = [parent]
                                while block[-1] != u:
                                    block.append(stack.pop())
                                found.append(tuple(sorted(block)))
            self._blocks = tuple(sorted(found))
        return self._blocks

    def automorphism_generators(self) -> np.ndarray:
        """Automorphisms generating Aut(G) or a subgroup of it, one vertex
        permutation per row (read-only int32).

        A product carries the generators of its construction; any other
        graph gets twin transpositions plus a strong generating set from a
        capped search over its distance rows (`_search_automorphisms`),
        cached like `vertex_distances`.  A search stopped by the cap leaves
        a subgroup: its orbits are finer, and every row is still an
        automorphism.
        """
        if callable(self._automorphisms):  # a product's, deferred until asked for
            self._automorphisms = self._automorphisms()
        if self._automorphisms is not None:
            return self._automorphisms
        if self._aut_search is None:
            self._aut_search = _search_automorphisms(self.vertex_distances())
            self._aut_search.setflags(write=False)
        return self._aut_search

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


AUT_SEARCH_NODES = 20_000  # backtracking steps per graph before the search stops


def _search_automorphisms(d: np.ndarray) -> np.ndarray:
    """Generators of the automorphism group of the graph with hop matrix d.

    An automorphism is a permutation preserving d, since the edges are the
    pairs at distance 1.  Twins (equal open or closed neighborhoods) are
    swapped by transpositions, so complete and complete bipartite graphs
    need no search.  The search uses the swaps of consecutive members of a
    twin class, which fix every smaller vertex; the ones returned swap the
    class's first member with each other one, which keeps the min-label
    propagation of `DeltaEngine.roots` to few rounds.  The rest is a strong
    generating set along the stabilizer chain G_0 >= G_1 >= ..., G_i fixing
    0 .. i-1: from i = n-1 down, for each j outside the orbit of i under
    the generators so far that fix 0 .. i-1, one automorphism of G_i with
    i -> j is searched for (`_extend_to_automorphism`).  A failed j rules
    out its whole orbit.  After AUT_SEARCH_NODES backtracking steps the
    search stops and keeps what it found.
    """
    n = d.shape[0]
    ident = np.arange(n)
    gens, at = [], [[] for _ in range(n)]  # at[i]: the twin swaps fixing 0 .. i-1 but not i
    swaps = []
    adj = d == 1
    for nbhd in (adj, adj | np.eye(n, dtype=bool)):
        for members in _equal_rows(nbhd):
            for a, b in zip(members, members[1:]):
                at[a].append(_swap(n, a, b))
            swaps += [_swap(n, members[0], b) for b in members[1:]]
    cls = np.zeros(n, dtype=np.intp)  # an invariant: the sorted distance row
    for c, members in enumerate(_equal_rows(np.sort(d, axis=1))):
        cls[members] = c
    root = list(range(n))  # union-find over vertices: the orbits of the generators so far

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    def join(perm: np.ndarray) -> None:  # merge the orbits that perm links
        for x, y in zip(*(np.flatnonzero(perm != ident), perm[perm != ident])):
            root[find(int(x))] = find(int(y))

    budget = [AUT_SEARCH_NODES]
    for i in range(n - 1, -1, -1):
        if budget[0] <= 0:
            break
        for perm in at[i]:
            join(perm)
        same = (cls == cls[i]) & (d[:, :i] == d[i, :i]).all(axis=1)
        failed: list[int] = []
        for j in np.flatnonzero(same[i + 1:]) + i + 1:
            orbit = find(int(j))
            if orbit == find(i) or any(find(x) == orbit for x in failed):
                continue
            perm = _extend_to_automorphism(d, cls, i, int(j), budget)
            if perm is not None:
                gens.append(perm)
                join(perm)
            elif budget[0] > 0:  # ruled out, not cut off
                failed.append(int(j))
    return np.array(swaps + gens, dtype=np.int32).reshape(-1, n)


def _swap(n: int, a: int, b: int) -> np.ndarray:
    """The transposition of vertices a and b."""
    perm = np.arange(n)
    perm[[a, b]] = b, a
    return perm


def _equal_rows(rows: np.ndarray) -> list[list[int]]:
    """The row indices of a C-contiguous array, grouped by equal rows."""
    groups: dict[bytes, list[int]] = {}
    for r, row in enumerate(map(bytes, rows)):
        groups.setdefault(row, []).append(r)
    return list(groups.values())


def _extend_to_automorphism(d: np.ndarray, cls: np.ndarray, i: int, j: int,
                            budget: list) -> Optional[np.ndarray]:
    """A permutation preserving d that fixes 0 .. i-1 and maps i to j, found
    by backtracking over the images of i+1, i+2, ... in turn; None if there
    is none or `budget[0]` runs out (each step spends one)."""
    n = d.shape[0]
    img = np.arange(n)
    img[i] = j
    used = np.zeros(n, dtype=bool)
    used[:i] = used[j] = True
    todo: list[list[int]] = []  # untried images of each vertex i+1 .. k
    k = i + 1
    while k > i:
        if k == n:
            return img
        if len(todo) < k - i:  # first visit: images agreeing with every distance so far
            fits = ~used & (cls == cls[k]) & (d[:, img[:k]] == d[k, :k]).all(axis=1)
            todo.append(np.flatnonzero(fits)[::-1].tolist())
        else:
            used[img[k]] = False
        if not todo[-1] or budget[0] <= 0:
            todo.pop()
            k -= 1
            continue
        budget[0] -= 1
        img[k] = todo[-1].pop()
        used[img[k]] = True
        k += 1
    return None


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
    return Graph(len(verts), edges, _allow_disconnected=True)


def is_isometric_embedding(h: Graph, g: Graph, mapping: Sequence[int]) -> bool:
    """True iff `mapping` (the image of each vertex of `h`, in order) embeds
    `h` into `g` preserving all pairwise distances.

    Raises ValidationError if the map is not injective or some edge of `h`
    has no image edge in `g` (then `h` is not even mapped to a subgraph).
    """
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
