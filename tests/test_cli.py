"""Command-line behavior: report shapes, exit codes, determinism."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from garland.cli import build_parser, main
from garland.complexes import MAX_LINK_VERTICES
from garland.decomposition import MAX_FAMILY_N
from garland.subspaces import MAX_SIMPLEX_VERTICES

from conftest import fixture_path


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_analyze_coxeter_basic(capsys):
    doc = run_json(capsys, ["analyze-coxeter", "--input", fixture_path("a2.json")])
    assert doc["tool"] == "garland"
    assert doc["subcommand"] == "analyze-coxeter"
    assert len(doc["input_digest"]) == 64
    result = doc["result"]
    assert result["rank"] == 2
    assert result["classification"] == "spherical"
    assert result["smallest_eigenvalue"] == pytest.approx(0.5)
    assert result["cosine_matrix"][0][1] == pytest.approx(-0.5)
    assert doc["warnings"] == []


def test_analyze_coxeter_interprets_null_as_infinite(capsys):
    doc = run_json(capsys, ["analyze-coxeter", "--input", fixture_path("infinite_dihedral.json")])
    result = doc["result"]
    assert result["m"][0][1] is None
    assert result["classification"] == "affine"
    assert result["smallest_eigenvalue"] == pytest.approx(0.0)


def test_analyze_coxeter_with_thickness_and_search(capsys):
    doc = run_json(
        capsys,
        [
            "analyze-coxeter",
            "--input", fixture_path("hyperbolic_rank4.json"),
            "--thickness", "4",
            "--min-thickness",
        ],
    )
    result = doc["result"]
    assert result["min_thickness_q"] == 4
    vanishing = result["vanishing"]
    assert vanishing["criterion_met"] is True
    assert vanishing["q"] == 4
    assert doc["options"]["thickness"] == 4
    assert doc["options"]["min-thickness"] is True


def test_analyze_coxeter_inapplicable_exits_2(capsys):
    code = main([
        "analyze-coxeter",
        "--input", fixture_path("infinite_dihedral.json"),
        "--thickness", "2",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "criterion inapplicable" in captured.err


def test_analyze_complex_report(capsys):
    doc = run_json(capsys, ["analyze-complex", "--input", fixture_path("octahedron.json")])
    result = doc["result"]
    assert result["n"] == 2
    assert result["vertex_count"] == 6
    assert result["facet_count"] == 8
    assert result["thickness"] == 2
    assert result["validation"]["b2_links_gallery_connected"] is True
    assert result["definiteness"]["kind"] == "positive_definite"
    pairs = {tuple(entry["types"]) for entry in result["per_pair"]}
    assert pairs == {(0, 1), (0, 2), (1, 2)}


def test_analyze_complex_degenerate_warning(capsys):
    doc = run_json(capsys, ["analyze-complex", "--input", fixture_path("heawood.json")])
    assert any("1-dimensional" in w for w in doc["warnings"])
    lam = -doc["result"]["cosine_matrix"][0][1]
    assert lam == pytest.approx(math.sqrt(2.0) / 3.0)


def test_analyze_complex_invalid_exits_1(capsys):
    code = main(["analyze-complex", "--input", fixture_path("bowtie.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert "gallery" in captured.err


def test_decompose_full_report(capsys):
    doc = run_json(capsys, ["decompose", "--input", fixture_path("pd_family.json")])
    result = doc["result"]
    assert result["ambient_dim"] == 12
    assert result["all_hold"] is True
    assert len(result["lattice"]) == 8
    assert len(result["checks"]) == 8
    assert result["definiteness"]["kind"] == "positive_definite"
    assert doc["warnings"] == []


def test_decompose_single_tau(capsys):
    doc = run_json(
        capsys,
        ["decompose", "--input", fixture_path("pd_family.json"), "--tau", "0,2"],
    )
    checks = doc["result"]["checks"]
    assert len(checks) == 1
    assert checks[0]["tau"] == [0, 2]
    assert checks[0]["holds"] is True
    assert doc["options"]["tau"] == "0,2"


def test_decompose_degenerate_family_warns_but_reports(capsys):
    doc = run_json(capsys, ["decompose", "--input", fixture_path("three_lines_plane.json")])
    assert any("not positive definite" in w for w in doc["warnings"])
    assert doc["result"]["all_hold"] is False


def test_decompose_bad_tau_exits_1(capsys):
    code = main(["decompose", "--input", fixture_path("pd_family.json"), "--tau", "0,x"])
    captured = capsys.readouterr()
    assert code == 1
    assert "tau" in captured.err


def test_spherical_simplex_with_reference(capsys):
    doc = run_json(
        capsys, ["spherical-simplex", "--input", fixture_path("equilateral_triple.json")]
    )
    result = doc["result"]
    assert result["vertex_count"] == 3
    assert result["face_cosine_matrix"][0][1] == pytest.approx(-1.0 / 3.0)
    assert result["reference_comparison"]["agrees_within_1e_9"] is True
    assert result["definiteness"]["kind"] == "positive_definite"


def test_spherical_simplex_orthonormal(capsys):
    doc = run_json(
        capsys, ["spherical-simplex", "--input", fixture_path("orthonormal_triple.json")]
    )
    assert doc["result"]["smallest_eigenvalue"] == pytest.approx(1.0)


def test_missing_file_exits_1(capsys):
    code = main(["analyze-coxeter", "--input", "/nonexistent/nowhere.json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "cannot read" in captured.err


def test_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["analyze-coxeter", "--input", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "line 1" in captured.err


def test_usage_error_exits_1(capsys):
    assert main(["analyze-coxeter"]) == 1  # missing --input
    assert main(["no-such-command", "--input", "x"]) == 1
    assert main(["analyze-coxeter", "--input", "x", "--bogus"]) == 1
    capsys.readouterr()


def test_seed_recorded(capsys):
    # --seed is gone: no report records a seed, and passing one is a usage error.
    doc = run_json(capsys, ["analyze-coxeter", "--input", fixture_path("a2.json")])
    assert "seed" not in doc["options"]
    assert main(["analyze-coxeter", "--input", fixture_path("a2.json"), "--seed", "5"]) == 1
    capsys.readouterr()


def test_text_format(capsys):
    code = main(["analyze-coxeter", "--input", fixture_path("a2.json"), "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "classification: spherical" in out


def subprocess_stdout(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "garland", *argv],
        capture_output=True,
        check=False,
    )
    return proc.returncode, proc.stdout


def test_repeated_runs_are_byte_identical():
    argv = [
        "analyze-coxeter",
        "--input", fixture_path("hyperbolic_rank4.json"),
        "--thickness", "4",
        "--min-thickness",
    ]
    code1, out1 = subprocess_stdout(argv)
    code2, out2 = subprocess_stdout(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith(b"\n")


def test_subprocess_exit_codes():
    assert subprocess_stdout(["analyze-complex", "--input", fixture_path("bowtie.json")])[0] == 1
    assert subprocess_stdout(
        ["analyze-coxeter", "--input", fixture_path("infinite_dihedral.json"), "--thickness", "2"]
    )[0] == 2
    assert subprocess_stdout(
        ["decompose", "--input", fixture_path("doubled_plane.json")]
    )[0] == 0


def test_shared_parser_leaks_no_state(capsys):
    assert build_parser() is build_parser()
    a3 = ["analyze-coxeter", "--input", fixture_path("a3.json")]
    run_json(capsys, [*a3, "--thickness", "4", "--min-thickness"])
    assert main(["analyze-coxeter"]) == 1
    assert capsys.readouterr().err.startswith("usage: garland analyze-coxeter")
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(a3) == 0
    out = capsys.readouterr().out
    assert out.encode() == subprocess_stdout(a3)[1]
    options = json.loads(out)["options"]
    assert options["thickness"] is None
    assert options["min-thickness"] is False


COMPLEX_OK = '"vertices": [{"id": 0, "type": 0}, {"id": 1, "type": 1}], "facets": [[0, 1]]'


def cycle_document(length: int, apexes: int = 0) -> str:
    """An even cycle, joined with `apexes` points of a third type when there
    are any, so that the link of each point is the cycle."""
    vertices = [{"id": i, "type": i % 2} for i in range(length)]
    vertices += [{"id": length + a, "type": 2} for a in range(apexes)]
    edges = [[i, (i + 1) % length] for i in range(length)]
    facets = [e + [length + a] for e in edges for a in range(apexes)] if apexes else edges
    return json.dumps({"vertices": vertices, "facets": facets})


MALFORMED = {
    "complex-id-string": (
        "analyze-complex", '{"vertices": [{"id": "x", "type": 0}], "facets": [[0]]}',
        "vertices[0].id",
    ),
    "complex-id-float": (
        "analyze-complex",
        '{"vertices": [{"id": 0.5, "type": 0}, {"id": 1, "type": 1}], "facets": [[0, 1]]}',
        "vertices[0].id",
    ),
    "complex-type-null": (
        "analyze-complex", '{"vertices": [{"id": 0, "type": null}], "facets": [[0]]}',
        "vertices[0].type",
    ),
    "complex-facet-entry-string": (
        "analyze-complex", '{"vertices": [{"id": 0, "type": 0}], "facets": [["a"]]}',
        "facets[0][0]",
    ),
    "complex-facet-not-list": (
        "analyze-complex", '{"vertices": [{"id": 0, "type": 0}], "facets": [5]}', "facets[0]",
    ),
    "complex-facet-repeats-a-vertex": (
        "analyze-complex",
        '{"n": 1, "vertices": [{"id": 0, "type": 0}, {"id": 1, "type": 1}, {"id": 2, "type": 0},'
        ' {"id": 3, "type": 1}], "facets": [[0, 0, 1], [0, 3], [2, 1], [2, 3]]}',
        "facets[0] repeats vertex id 0",
    ),
    "complex-n-string": ("analyze-complex", '{"n": "x", ' + COMPLEX_OK + "}", "n must be"),
    "complex-single-edge-links": (
        "analyze-complex",
        '{"vertices": [{"id": 0, "type": 0}, {"id": 1, "type": 1}, {"id": 2, "type": 2}],'
        ' "facets": [[0, 1, 2]]}',
        "pair {0,1}: walk eigenvalue -1 is negative",
    ),
    "complex-over-the-link-size-limit": (
        "analyze-complex", cycle_document(MAX_LINK_VERTICES + 2),
        f"the complex itself has {MAX_LINK_VERTICES + 2} vertices; "
        f"the walk pass takes at most {MAX_LINK_VERTICES}",
    ),
    "complex-link-over-the-size-limit": (
        "analyze-complex", cycle_document(MAX_LINK_VERTICES + 2, apexes=1),
        f"link of [{MAX_LINK_VERTICES + 2}] has {MAX_LINK_VERTICES + 2} vertices",
    ),
    "simplex-vertex-norm-overflow": (
        "spherical-simplex", '{"vertices": [[1e308, 0.0], [0.0, 1.0]]}', "unit vectors",
    ),
    "simplex-over-the-size-limit": (
        "spherical-simplex",
        json.dumps({"vertices": [
            [float(i == j) for j in range(MAX_SIMPLEX_VERTICES + 1)]
            for i in range(MAX_SIMPLEX_VERTICES + 1)
        ]}),
        f"more than {MAX_SIMPLEX_VERTICES} vertices is not supported, "
        f"got {MAX_SIMPLEX_VERTICES + 1}",
    ),
    "simplex-reference-string": (
        "spherical-simplex",
        '{"vertices": [[1.0, 0.0], [0.0, 1.0]], "reference_matrix": [[1.0, "x"], [0.0, 1.0]]}',
        "reference_matrix[0][1]",
    ),
    "coxeter-order-string": (
        "analyze-coxeter", '{"rank": 2, "m": [[1, "3"], ["3", 1]]}',
        "m[0][1] must be an integer or null, got '3'",
    ),
    "coxeter-order-overflow": (
        "analyze-coxeter", '{"rank": 2, "m": [[1, 1e400], [1e400, 1]]}',
        "m[0][1] must be an integer or null",
    ),
    "coxeter-order-integer-overflow": (
        "analyze-coxeter", '{"rank": 2, "m": [[1, 1%s], [1%s, 1]]}' % ("0" * 400, "0" * 400),
        "m[0][1] is beyond the float range",
    ),
    "json-integer-past-the-digit-limit": (
        "analyze-coxeter", '{"rank": 2, "m": [[1, %s], [3, 1]]}' % ("9" * 5000), "digits",
    ),
    "json-nested-too-deeply": (
        "analyze-coxeter", "[" * 100000 + "]" * 100000, "nested too deeply",
    ),
    "coxeter-rank-string": (
        "analyze-coxeter", '{"rank": "2", "m": [[1, 3], [3, 1]]}',
        "rank must be an integer, got '2'",
    ),
    "coxeter-rank-float": (
        "analyze-coxeter", '{"rank": 2.7, "m": [[1, 3], [3, 1]]}',
        "rank must be an integer, got 2.7",
    ),
    "coxeter-rank-bool": (
        "analyze-coxeter", '{"rank": true, "m": [[1]]}', "rank must be an integer, got True",
    ),
    "family-ambient-dim-float": (
        "decompose", '{"ambient_dim": 2.5, "subspaces": [[[1, 0]], [[0, 1]]]}',
        "ambient_dim must be an integer, got 2.5",
    ),
    "family-ambient-dim-zero": (
        "decompose", '{"ambient_dim": 0, "subspaces": [[[]], [[]]]}',
        "ambient_dim must be at least 1, got 0",
    ),
    "family-ambient-dim-over-the-limit": (
        "decompose", '{"ambient_dim": 1025, "subspaces": [[], []]}',
        "ambient_dim must be at most 1024, got 1025",
    ),
    "family-vector-entry-string": (
        "decompose", '{"ambient_dim": 2, "subspaces": [[["1", "0"]], [[0, 1]]]}',
        "subspaces[0][0][0] must be a finite number, got '1'",
    ),
    "family-vector-entry-bool": (
        "decompose", '{"ambient_dim": 2, "subspaces": [[[1, 0]], [[0, true]]]}',
        "subspaces[1][0][1] must be a finite number, got True",
    ),
    "family-vector-empty": (
        "decompose", '{"ambient_dim": 2, "subspaces": [[[]], [[0, 1]]]}',
        "subspaces[0][0] has 0 entries, expected 2",
    ),
    "family-vector-norm-overflow": (
        "decompose", '{"ambient_dim": 2, "subspaces": [[[1e308, 1e308]], [[0, 1]]]}',
        "subspaces[0]: the norm of vector 0 overflows",
    ),
    "family-over-the-size-limit": (
        "decompose",
        json.dumps({"ambient_dim": 1, "subspaces": [[[1.0]]] * (MAX_FAMILY_N + 2)}),
        f"n > {MAX_FAMILY_N} are not supported, got n = {MAX_FAMILY_N + 1}",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy overflow warnings reach stderr
def test_malformed_input_exits_1(case, tmp_path, capsys):
    subcommand, text, field = MALFORMED[case]
    path = tmp_path / "doc.json"
    path.write_text(text)
    code = main([subcommand, "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("garland: error: ")
    assert field in captured.err
    assert "Traceback" not in captured.err


FINITE_TOL = "--tol must be a finite number"
# (option arguments, subcommand, fixture, text the error must contain)
BAD_OPTIONS = {
    "tol-nan": (["--tol", "nan"], "decompose", "pd_family.json", FINITE_TOL),
    "tol-inf": (["--tol", "inf"], "decompose", "pd_family.json", FINITE_TOL),
    "tol-minus-inf": (["--tol=-inf"], "decompose", "pd_family.json", FINITE_TOL),
    "thickness-beyond-float": (
        ["--thickness", "1" + "0" * 400], "analyze-coxeter", "a3.json",
        "q is beyond the float range",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_OPTIONS))
def test_out_of_range_option_exits_1(case, capsys):
    options, subcommand, fixture, message = BAD_OPTIONS[case]
    code = main([subcommand, "--input", fixture_path(fixture), *options])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("garland: error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_undecodable_input_exits_1(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe{")
    code = main(["analyze-coxeter", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"garland: error: {path}: ")
    assert "Traceback" not in captured.err
