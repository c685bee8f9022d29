"""Running the verification suite.

Every computable claim the library rests on is a registered check: closed
forms against the all-pairs search, table values against the exact engine,
bounds on every random pair, grid-refinement stability, and so on.  Checks
never abort the run; failures come back as replayable report entries.
"""

from lexhyp import CHECKS, CorpusSpec, generate_corpus, run_suite

print("registered checks:")
for cid in sorted(CHECKS):
    print("  ", cid)

# A deterministic corpus: same spec, same graphs, same pairs.
spec = CorpusSpec(seed=7, max_vertices=7, pair_count=12)
corpus = generate_corpus(spec)
print(f"\ncorpus: {len(corpus.graphs)} graphs, {len(corpus.pairs)} pairs, "
      f"product cap {spec.product_cap}")

report = run_suite(corpus)
print("\ncheck results:")
for cid, result in sorted(report.results.items()):
    print(f"  {result.status.upper():4} {cid:28} instances={result.instances:5d} "
          f"({result.millis} ms)")
print("\nall pass:", report.all_pass)

# The same run is available from the command line:
#   lexhyp verify --seed 7 --pairs 12 --max-vertices 7 --json
