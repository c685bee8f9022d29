"""Exact Gromov hyperbolicity of finite connected graphs and their
lexicographic products: constants with witnesses, closed-form product
distances, the forbidden-family classifier for tree products, and a
verification suite for every computable claim."""

from .catalog import FCatalog, FWitness, build_catalog, get_catalog, in_family_F, is_isomorphic
from .corpus import Corpus, CorpusSpec, generate_corpus, random_connected, random_tree
from .delta import (DeltaConfig, DeltaEngine, DeltaResult, DeltaStats, GeodesicTriangle,
                    delta_bigon_lower_bound, delta_exact, has_tight_short_triangle, thinness)
from .errors import GeodesicCapError, LexhypError, ParseError, SizeCapError, ValidationError
from .geodesics import enumerate_geodesics
from .graph import (Graph, complete_graph, cycle_graph, induced_subgraph,
                    is_isometric_embedding, parse_graph, path_graph, star_graph, trivial_graph)
from .products import (CARTESIAN, LEXICOGRAPHIC, STRONG, ProductGraph, lex_distance,
                       lex_distance_matrix, product, project)
from .qdist import QDist
from .subdivision import SubdividedGraph, all_pairs_distances, diam_g, diam_v, subdivide
from .suite import CHECKS, SuiteReport, run_suite
from .treeformula import BoundReport, TreeLexCase, bound_check, tree_lex_delta

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "CARTESIAN", "CHECKS", "Corpus", "CorpusSpec", "DeltaConfig",
    "DeltaEngine", "DeltaResult", "DeltaStats", "FCatalog", "FWitness", "GeodesicCapError",
    "GeodesicTriangle", "Graph", "LEXICOGRAPHIC", "LexhypError",
    "ParseError", "ProductGraph", "QDist", "STRONG", "SizeCapError", "SubdividedGraph",
    "SuiteReport", "TreeLexCase", "ValidationError", "all_pairs_distances",
    "bound_check", "build_catalog", "complete_graph", "cycle_graph",
    "delta_bigon_lower_bound", "delta_exact", "diam_g", "diam_v", "enumerate_geodesics",
    "generate_corpus", "get_catalog", "has_tight_short_triangle", "in_family_F",
    "induced_subgraph", "is_isometric_embedding", "is_isomorphic", "lex_distance",
    "lex_distance_matrix", "parse_graph", "path_graph", "product", "project",
    "random_connected", "random_tree", "run_suite", "star_graph", "subdivide", "thinness",
    "tree_lex_delta", "trivial_graph",
]
