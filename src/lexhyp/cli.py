"""Command-line front end with stable text/JSON output.

Graph specs accept the generator DSL (``path:n``, ``cycle:n``, ``complete:n``,
``star:n``, ``trivial``), ``@file`` references to edge lists, and product
composition ``lex(a,b)`` / ``cart(a,b)`` / ``strong(a,b)``, nested freely.
`delta` runs `DeltaEngine.delta`, with `cycle_only=False` for `--no-cycle-only`.

Exit codes: 0 success, 1 validation, parse or `--out` write error, 2 size or
geodesic cap exceeded, 3 verification suite failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from contextlib import contextmanager, nullcontext
from itertools import accumulate
from pathlib import Path

from .catalog import build_catalog, get_catalog, in_family_F
from .corpus import CorpusSpec, generate_corpus
from .delta import DeltaConfig, DeltaEngine
from .errors import GeodesicCapError, LexhypError, ParseError, SizeCapError
from .graph import Graph, parse_graph
from .products import CARTESIAN, LEXICOGRAPHIC, STRONG, lex_distance, product
from .suite import CHECKS, run_suite
from .treeformula import tree_lex_delta

_PRODUCT_HEADS = {"lex": LEXICOGRAPHIC, "cart": CARTESIAN, "strong": STRONG}


def parse_gspec(spec: str) -> Graph:
    """Resolve a graph spec string: DSL, @file, or product composition."""
    spec = spec.strip()
    for head, kind in _PRODUCT_HEADS.items():
        body = spec[len(head):].lstrip()  # whitespace may separate the head from "("
        if spec.startswith(head) and body.startswith("("):
            left, right = _product_operands(spec, body)
            return product(parse_gspec(left), parse_gspec(right), kind).graph
    if spec.startswith("@"):
        try:  # undecodable bytes are replaced, so the parser rejects their line
            text = Path(spec[1:]).read_text(encoding="utf-8", errors="replace")
        except OSError as exc:  # missing, a directory, no permission, ...
            raise ParseError(f"cannot read {spec[1:]!r}: {exc.strerror or exc}") from None
        return parse_graph(text)
    return parse_graph(spec)


def _product_operands(spec: str, body: str) -> tuple[str, str]:
    """A and B of a product spec's `body` ``(A,B)``, split at the first comma
    outside nested parentheses whose left side is not an ``@file`` naming a
    missing path, so a file name may hold commas in either operand; the
    first such comma if none qualifies.  Unbalanced parentheses, text after
    the closing one and an empty operand raise ParseError naming `spec`."""
    depth = list(accumulate((ch == "(") - (ch == ")") for ch in body))
    commas = [i for i, ch in enumerate(body) if ch == "," and depth[i] == 1]
    if depth[-1] == 0 and min(depth[:-1]) > 0 and commas:
        cut = next((i for i in commas if not _missing_file(body[1:i])), commas[0])
        left, right = body[1:cut], body[cut + 1:-1]
        if left.strip() and right.strip():
            return left, right
    raise ParseError(f"malformed product spec {spec!r}")


def _missing_file(spec: str) -> bool:
    spec = spec.strip()
    return spec.startswith("@") and not Path(spec[1:]).exists()


def _parse_vertex_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected 'u,v', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"non-integer coordinate in {text!r}") from None


@contextmanager
def _progress_on_stderr():
    """Route the "lexhyp" logger's DEBUG lines to stderr while the block
    runs, each stamped ``[seconds s]`` with the time since it was entered.
    `logging` is imported here only, so the other commands do not load it
    (see `delta._debug_logger`)."""
    import logging

    start = time.time()

    def stamp(record) -> bool:
        record.elapsed = record.created - start
        return True

    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("[%(elapsed)8.3f s] %(message)s"))
    handler.addFilter(stamp)
    log = logging.getLogger("lexhyp")
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        yield
    finally:
        log.setLevel(level)
        log.removeHandler(handler)


def _cmd_delta(args) -> int:
    with _progress_on_stderr() if args.stats else nullcontext():
        g = parse_gspec(args.gspec)
        cfg = DeltaConfig(geodesic_cap=args.cap, grid_factor=args.grid)
        res = DeltaEngine(g, cfg).delta(cycle_only=not args.no_cycle_only)
    if args.json:
        print(json.dumps(res.to_json_dict(), sort_keys=True))
    else:
        print(res.value)
    if args.stats:  # stderr only, after the progress lines: stdout stays byte-identical
        for f in dataclasses.fields(res.stats):
            print(f"{f.name}: {getattr(res.stats, f.name)}", file=sys.stderr)
    return 0


def _cmd_dist(args) -> int:
    g1 = parse_gspec(args.gspec1)
    g2 = parse_gspec(args.gspec2)
    a = _parse_vertex_pair(args.a)
    b = _parse_vertex_pair(args.b)
    print(lex_distance(g1, g2, a, b))
    return 0


def _cmd_product(args) -> int:
    p = product(parse_gspec(args.gspec1), parse_gspec(args.gspec2),
                _PRODUCT_HEADS[args.kind])
    text = p.graph.to_edge_list_text()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_classify(args) -> int:
    g = parse_gspec(args.gspec)
    member, witness = in_family_F(g)
    if args.json:
        payload = {"in_family": member}
        if witness:
            payload["witness"] = {"subset": list(witness.subset),
                                  "member_index": witness.member_index,
                                  "family": witness.family_tag}
        print(json.dumps(payload, sort_keys=True))
    elif member:
        subset = ",".join(str(v) for v in witness.subset)
        print(f"in F (member {witness.member_index}, family {witness.family_tag}, "
              f"witness {{{subset}}})")
    else:
        print("not in F")
    return 0


def _cmd_tree_delta(args) -> int:
    g1 = parse_gspec(args.treespec)
    g2 = parse_gspec(args.gspec)
    case = tree_lex_delta(g1, g2)
    if args.json:
        print(json.dumps({"value": str(case.value), "quarters": case.value.quarters,
                          "case": case.case_id, "inputs": case.inputs_summary},
                         sort_keys=True, default=str))
    else:
        print(f"{case.value} (case: {case.description})")
    return 0


def _cmd_catalog(args) -> int:
    cat = get_catalog() if args.dedup else build_catalog(dedup=False)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    index = []
    for i, g in enumerate(cat.members):
        fname = f"member_{i:03d}.edges"
        (outdir / fname).write_text(g.to_edge_list_text(), encoding="utf-8")
        index.append({
            "id": i,
            "family": cat.family_tags[i],
            "vertex_count": g.vertex_count,
            "chords": [[f"v{a}", f"v{b}"] for a, b in cat.chords[i]],
            "file": fname,
        })
    (outdir / "index.json").write_text(
        json.dumps({"deduplicated": cat.deduplicated, "members": index},
                   indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {len(cat)} members to {outdir}")
    return 0


def _cmd_verify(args) -> int:
    spec = CorpusSpec(seed=args.seed, pair_count=args.pairs,
                      min_vertices=args.min_vertices, max_vertices=args.max_vertices,
                      product_cap=args.product_cap)
    checks = args.checks.split(",") if args.checks else None
    report = run_suite(generate_corpus(spec), checks)
    if args.json:
        print(report.to_json())
    else:
        for cid, r in sorted(report.results.items()):
            print(f"{r.status.upper():4}  {cid:28} instances={r.instances} "
                  f"failures={len(r.failures)} ({r.millis} ms)")
    return 0 if report.all_pass else 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lexhyp",
                                 description="Exact graph hyperbolicity and lexicographic products")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("delta", help="exact hyperbolicity constant")
    d.add_argument("gspec")
    d.add_argument("--json", action="store_true")
    d.add_argument("--grid", type=int, choices=(4, 8), default=DeltaConfig.grid_factor)
    d.add_argument("--cap", type=int, default=DeltaConfig.geodesic_cap)
    d.add_argument("--no-cycle-only", action="store_true")
    d.add_argument("--stats", action="store_true",
                   help="print the engine's counters and timings to stderr")
    d.set_defaults(fn=_cmd_delta)

    di = sub.add_parser("dist", help="closed-form lexicographic distance")
    di.add_argument("gspec1")
    di.add_argument("gspec2")
    di.add_argument("a", help="u,v")
    di.add_argument("b", help="u',v'")
    di.set_defaults(fn=_cmd_dist)

    pr = sub.add_parser("product", help="write a product edge list")
    pr.add_argument("kind", choices=("lex", "cart", "strong"))
    pr.add_argument("gspec1")
    pr.add_argument("gspec2")
    pr.add_argument("--out")
    pr.set_defaults(fn=_cmd_product)

    cl = sub.add_parser("classify", help="forbidden-family membership")
    cl.add_argument("gspec")
    cl.add_argument("--json", action="store_true")
    cl.set_defaults(fn=_cmd_classify)

    td = sub.add_parser("tree-delta", help="closed form for tree o graph")
    td.add_argument("treespec")
    td.add_argument("gspec")
    td.add_argument("--json", action="store_true")
    td.set_defaults(fn=_cmd_tree_delta)

    ca = sub.add_parser("catalog", help="export the forbidden-family catalog")
    ca.add_argument("--dedup", action="store_true")
    ca.add_argument("--out", required=True)
    ca.set_defaults(fn=_cmd_catalog)

    ve = sub.add_parser("verify", help="run the verification suite")
    ve.add_argument("--seed", type=int, default=CorpusSpec.seed)
    ve.add_argument("--pairs", type=int, default=CorpusSpec.pair_count)
    ve.add_argument("--min-vertices", type=int, default=CorpusSpec.min_vertices)
    ve.add_argument("--max-vertices", type=int, default=CorpusSpec.max_vertices)
    ve.add_argument("--product-cap", type=int, default=CorpusSpec.product_cap)
    ve.add_argument("--checks", help="comma-separated check ids "
                                     f"(available: {','.join(sorted(CHECKS))})")
    ve.add_argument("--json", action="store_true")
    ve.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; 2 is reserved for cap errors here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except LexhypError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (SizeCapError, GeodesicCapError)) else 1
    except OSError as exc:  # an --out path that cannot be written; @file reads raise ParseError
        print(f"error: cannot write {exc.filename!r}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
