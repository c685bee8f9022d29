"""Lexicographic products and their metric structure.

In G1 o G2, two vertices are adjacent when their first coordinates are
adjacent, or the first coordinates agree and the second coordinates are
adjacent.  Distances collapse to a closed form: first-factor distance when
the copies differ, min(2, second-factor distance) inside one copy.
"""

import numpy as np

from lexhyp import (CARTESIAN, STRONG, complete_graph, cycle_graph, delta_exact,
                    is_isometric_embedding, lex_distance, lex_distance_matrix, path_graph,
                    product, project)

# Small products collapse to familiar graphs.
print("P2 o P2 =", product(path_graph(2), path_graph(2)).graph, "(that is K4)")
print("K2 o K3 =", product(complete_graph(2), complete_graph(3)).graph, "(that is K6)")

# The product is not commutative.
a = product(path_graph(3), path_graph(4)).graph
b = product(path_graph(4), path_graph(3)).graph
print("\nP3 o P4 degrees:", a.degree_multiset())
print("P4 o P3 degrees:", b.degree_multiset())

# Closed-form distances, no search on the product needed.
g1, g2 = path_graph(3), path_graph(4)
print("\nd((u0,w0),(u0,w3)) =", lex_distance(g1, g2, (0, 0), (0, 3)), "(capped at 2 inside a copy)")
print("d((u0,w0),(u2,w3)) =", lex_distance(g1, g2, (0, 0), (2, 3)), "(first-factor distance)")

# The suite re-verifies this formula against the all-pairs search
# (`Graph.vertex_distances`) on every corpus pair; here is the comparison
# spelled out for one product.  `lex_distance_matrix` is the closed form at
# every pair of product ids u*n2 + v at once.
p = product(g1, g2)
agree = np.array_equal(lex_distance_matrix(g1, g2), p.graph.vertex_distances())
print("closed form == all-pairs search:", agree)

# Cartesian and strong products of the same factors sit inside the
# lexicographic product.
cart = set(product(g1, g2, CARTESIAN).graph.edges)
strong = set(product(g1, g2, STRONG).graph.edges)
lex = set(p.graph.edges)
print("\nE(cartesian) <= E(strong) <= E(lex):", cart <= strong <= lex,
      f"({len(cart)} <= {len(strong)} <= {len(lex)} edges)")

# Each copy G1 o {w} embeds isometrically, which is why delta(G1) can never
# exceed delta(G1 o G2).
w = 1
emb = [p.vertex_id(u, w) for u in range(g1.vertex_count)]
print("copy at w=1 is isometric:", is_isometric_embedding(g1, p.graph, emb))
print("projection of (2, 3):", project(p, p.vertex_id(2, 3)))

# Sandwich in action: delta(G1) <= delta(G1 o G2) <= delta(G1) + 3/2.
big = product(cycle_graph(5), path_graph(2)).graph
print("\ndelta(C5) =", delta_exact(cycle_graph(5)).value,
      " delta(C5 o P2) =", delta_exact(big).value, " (lower bound attained)")
