"""Command-line interface: subcommands, output stability, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lexhyp import cycle_graph, path_graph, product
from lexhyp.cli import main, parse_gspec
from test_delta import NON_CYCLE_WITNESS_EDGES, PINNED_CYCLE_WITNESS, PINNED_FREE_WITNESS

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_delta_fraction_output(capsys):
    code, out, _ = run_cli(capsys, "delta", "cycle:5")
    assert code == 0
    assert out == "5/4\n"


def test_delta_stats_on_stderr(capsys):
    _, plain, _ = run_cli(capsys, "delta", "cycle:5", "--json")
    code, out, err = run_cli(capsys, "delta", "cycle:5", "--json", "--stats")
    assert code == 0 and out == plain
    lines = dict(line.split(": ") for line in err.splitlines())
    assert set(lines) == {"triples_examined", "geodesics_enumerated", "wall_time_s", "tables_built",
                          "table_bytes", "table_s", "sides_visited", "mask_s", "sides_exact",
                          "orbit_s", "masks_recomputed", "apsp_s", "hops_s", "chains_s",
                          "value_s", "witness_s"}
    assert int(lines["triples_examined"]) == json.loads(out)["stats"]["triples_examined"]
    # the phase times are parts of the engine's wall time
    phases = [float(lines[k]) for k in ("apsp_s", "hops_s", "chains_s", "value_s", "witness_s")]
    assert all(t > 0 for t in phases) and sum(phases) <= float(lines["wall_time_s"])


def test_delta_json(capsys):
    code, out, _ = run_cli(capsys, "delta", "cycle:4", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["value"] == "1"
    assert blob["quarters"] == 4


def test_delta_grid8(capsys):
    code, out, _ = run_cli(capsys, "delta", "cycle:5", "--grid", "8")
    assert code == 0
    assert out == "5/4\n"


def test_delta_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "delta", "cycle:6", "--json")
    _, out2, _ = run_cli(capsys, "delta", "cycle:6", "--json")
    assert out1 == out2


# `delta --json` output pinned across versions: value, witness and counters.
PINNED_DELTA_JSON = {
    "lex(path:4,cycle:6)": (
        '{"grid_factor": 4, "quarters": 6, '
        '"stats": {"geodesics_enumerated": 73, "triples_examined": 16633}, "value": "3/2", '
        '"witness": {"corners": [0, 1, 18], "is_cycle": true, "sides": ['
        '[0, 24, 25, 26, 1], '
        '[1, 51, 52, 53, 6, 156, 157, 158, 12, 282, 283, 284, 18], '
        '[18, 305, 304, 303, 13, 182, 181, 180, 7, 35, 34, 33, 0]], '
        '"witness_point": 157, "witness_side": 1}}'),
    "lex(cycle:10,path:3)": (
        '{"grid_factor": 4, "quarters": 10, '
        '"stats": {"geodesics_enumerated": 325, "triples_examined": 10861}, "value": "5/2", '
        '"witness": {"corners": [0, 1, 15], "is_cycle": true, "sides": ['
        '[0, 30, 31, 32, 1], '
        '[1, 54, 55, 56, 3, 93, 94, 95, 6, 126, 127, 128, 9, 159, 160, 161, 12, 192, 193, 194, 15], '
        '[15, 225, 226, 227, 18, 258, 259, 260, 21, 291, 292, 293, 24, 324, 325, 326, 27, 44, 43, 42, 0]], '
        '"witness_point": 127, "witness_side": 1}}'),
}


@pytest.mark.parametrize("spec", sorted(PINNED_DELTA_JSON))
def test_delta_json_pinned(capsys, spec):
    code, out, _ = run_cli(capsys, "delta", spec, "--json")
    assert code == 0
    assert out == PINNED_DELTA_JSON[spec] + "\n"


def test_delta_of_composed_product(capsys):
    code, out, _ = run_cli(capsys, "delta", "lex(path:4,path:2)")
    assert code == 0
    assert out == "3/2\n"


@pytest.mark.parametrize("spec", ["lex(path:2,cycle:3", "lex(path:2,cycle:3))",
                                  "lex(,path:2)", "lex(path:2)"])
def test_malformed_product_spec(capsys, spec):
    code, out, err = run_cli(capsys, "delta", spec)
    assert code == 1 and out == ""
    assert err == f"error: malformed product spec {spec!r}\n"


def test_product_specs_parse_nested():
    p23 = product(path_graph(2), cycle_graph(3)).graph
    assert parse_gspec("lex(path:2,cycle:3)") == p23
    assert parse_gspec("lex (path:2,cycle:3)") == p23
    assert parse_gspec("lex(lex(path:2,path:2),cycle:3)") == \
        product(product(path_graph(2), path_graph(2)).graph, cycle_graph(3)).graph


def test_delta_no_cycle_only_json_pinned(tmp_path, capsys):
    f = tmp_path / "non_cycle.edges"
    f.write_text("".join(f"{u} {v}\n" for u, v in NON_CYCLE_WITNESS_EDGES))
    code, out, _ = run_cli(capsys, "delta", f"@{f}", "--json", "--no-cycle-only")
    assert code == 0 and out == json.dumps(PINNED_FREE_WITNESS, sort_keys=True) + "\n"
    code, out, _ = run_cli(capsys, "delta", f"@{f}", "--json")
    assert code == 0 and out == json.dumps(PINNED_CYCLE_WITNESS, sort_keys=True) + "\n"


def test_dist_command(capsys):
    code, out, _ = run_cli(capsys, "dist", "path:3", "path:4", "0,0", "0,3")
    assert code == 0
    assert out == "2\n"
    code, out, _ = run_cli(capsys, "dist", "path:3", "path:4", "0,0", "2,3")
    assert out == "2\n"


def test_dist_trivial_factor_rejected(capsys):
    code, _, err = run_cli(capsys, "dist", "trivial", "path:4", "0,0", "0,3")
    assert code == 1
    assert "error" in err


def test_product_to_stdout_and_file(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "product", "lex", "path:2", "path:2")
    assert code == 0
    assert len(out.strip().splitlines()) == 6  # K4

    target = tmp_path / "k4.edges"
    code, _, _ = run_cli(capsys, "product", "lex", "path:2", "path:2", "--out", str(target))
    assert code == 0
    assert target.read_text().strip().splitlines() == out.strip().splitlines()


def test_gspec_file_reference(tmp_path, capsys):
    f = tmp_path / "c5.edges"
    f.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    code, out, _ = run_cli(capsys, "delta", f"@{f}")
    assert code == 0
    assert out == "5/4\n"


def test_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "cycle:5")
    assert code == 0
    assert out == "not in F\n"
    code, out, _ = run_cli(capsys, "classify", "cycle:6")
    assert code == 0
    assert out.startswith("in F (member 0")


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "cycle:6", "--json")
    blob = json.loads(out)
    assert blob["in_family"] is True
    assert blob["witness"]["subset"] == [0, 1, 2, 3, 4, 5]


def test_tree_delta(capsys):
    code, out, _ = run_cli(capsys, "tree-delta", "path:4", "path:2")
    assert code == 0
    assert out == "3/2 (case: diam G1 >= 3)\n"


def test_tree_delta_rejects_non_tree(capsys):
    code, _, err = run_cli(capsys, "tree-delta", "cycle:4", "path:2")
    assert code == 1
    assert "tree" in err


def test_catalog_export(tmp_path, capsys):
    outdir = tmp_path / "cat"
    code, out, _ = run_cli(capsys, "catalog", "--dedup", "--out", str(outdir))
    assert code == 0
    index = json.loads((outdir / "index.json").read_text())
    assert index["deduplicated"] is True
    assert len(index["members"]) == 40
    first = index["members"][0]
    assert set(first) == {"id", "family", "vertex_count", "chords", "file"}
    assert (outdir / first["file"]).exists()
    # member files parse back as graphs
    from lexhyp import parse_graph
    g = parse_graph((outdir / first["file"]).read_text())
    assert g.vertex_count == first["vertex_count"]


def test_catalog_export_raw(tmp_path, capsys):
    outdir = tmp_path / "raw"
    code, _, _ = run_cli(capsys, "catalog", "--out", str(outdir))
    assert code == 0
    index = json.loads((outdir / "index.json").read_text())
    assert len(index["members"]) == 68


def test_gspec_file_with_comma_in_either_operand(tmp_path, capsys):
    f = tmp_path / "a,b.edges"
    f.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    assert parse_gspec(f"lex(@{f},path:2)") == parse_gspec("lex(cycle:5,path:2)")
    assert parse_gspec(f"lex(path:2,@{f})") == parse_gspec("lex(path:2,cycle:5)")
    missing = tmp_path / "missing"  # no comma qualifies: split at the first
    code, _, err = run_cli(capsys, "delta", f"lex(@{missing},x.edges,path:2)")
    assert code == 1 and err.startswith(f"error: cannot read {str(missing)!r}")


def test_unreadable_gspec_file(tmp_path, capsys):
    for path in (tmp_path / "missing.txt", tmp_path):
        code, out, err = run_cli(capsys, "delta", f"@{path}")
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read") and str(path) in err
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"0 1\n\xff\xfe\n")  # not UTF-8: rejected by the parser
    code, _, err = run_cli(capsys, "delta", f"@{binary}")
    assert code == 1 and err.startswith("error: line 2:")


def test_unwritable_out_path(tmp_path, capsys):
    # a missing directory, and a file where a directory should be: an error
    # line and exit 1, not a traceback
    missing = tmp_path / "missing" / "k4.edges"
    code, out, err = run_cli(capsys, "product", "lex", "path:2", "path:2", "--out", str(missing))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write") and str(missing) in err
    afile = tmp_path / "afile"
    afile.write_text("")
    code, out, err = run_cli(capsys, "catalog", "--out", str(afile / "sub"))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write") and str(afile) in err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "delta", "cycle:2")
    assert code == 1
    code, _, err = run_cli(capsys, "delta", "0 1 2")
    assert code == 1
    code, _, err = run_cli(capsys, "delta", "cycle:5", "--parallel")
    assert code == 1


def _run_python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def _run_module(*argv):
    return _run_python("-m", "lexhyp", *argv)


def test_import_loads_no_scipy():
    # numpy is the package's one runtime dependency
    proc = _run_python("-c", "import sys, lexhyp; "
                             "print([m for m in sys.modules if m.startswith('scipy')])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_python_m_lexhyp_matches_main(capsys):
    proc = _run_module("delta", "cycle:5", "--json")
    _, out, _ = run_cli(capsys, "delta", "cycle:5", "--json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out
    assert _run_module("delta", "cycle:2").returncode == 1


def test_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "delta", "cycle:6", "--cap", "1")
    assert code == 2
    assert err.endswith("(delta = 3/2; no witness within the cap)\n")


def test_grid_cap_exit_code(capsys):
    # cycle:1025 subdivides into 1025 + 3 * 1025 = 4100 S_4 points, above the
    # 4096-point grid cap: exit 2 before any APSP
    code, out, err = run_cli(capsys, "delta", "cycle:1025")
    assert code == 2 and out == ""
    assert err.startswith("error: S_4 grid needs 4100 vertices")


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "3", "--pairs", "4",
                           "--max-vertices", "5",
                           "--checks", "cycle_delta_n_4,tree_delta_zero,dist_formula")
    assert code == 0
    assert "PASS" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "3", "--pairs", "4",
                           "--max-vertices", "5", "--checks", "cycle_delta_n_4", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["cycle_delta_n_4"]["status"] == "pass"
