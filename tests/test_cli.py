"""Command-line behavior: report shapes, exit codes, determinism."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import garland as g
from garland.cli import build_parser, main
from garland.complexes import MAX_LINK_VERTICES, MAX_TYPES
from garland.coxeter import build_coxeter_complex
from garland.decomposition import MAX_FAMILY_N
from garland.linalg import sym_eigs
from garland.reporting import to_jsonable
from garland.subspaces import MAX_AMBIENT_DIM, MAX_SIMPLEX_VERTICES

from conftest import COXETER_FIXTURES, dynkin, fixture_path, load_fixture


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
    # the constructor's checks, first bad facet first
    "complex-undeclared-vertex": (
        "analyze-complex",
        '{"vertices": [{"id": 0, "type": 0}, {"id": 1, "type": 1}, {"id": 2, "type": 0}],'
        ' "facets": [[0, 1], [1, 7], [2, 1], [2, 1]]}',
        "facet [1, 7] uses undeclared vertices [7]",
    ),
    "complex-duplicate-facet": (
        "analyze-complex",
        '{"vertices": [{"id": 0, "type": 0}, {"id": 1, "type": 1}, {"id": 2, "type": 0}],'
        ' "facets": [[0, 1], [2, 1], [1, 0], [2, 7]]}',
        "duplicate facet [0, 1]",
    ),
    "complex-two-vertices-of-one-type": (
        "analyze-complex",
        '{"vertices": [{"id": 0, "type": 0}, {"id": 1, "type": 1}, {"id": 2, "type": 0}],'
        ' "facets": [[0, 1], [0, 2], [0, 1]]}',
        "facet [0, 2] must have exactly one vertex of each type [0, 1], got types [0, 0]",
    ),
    "complex-facet-short-of-a-type": (
        "analyze-complex",
        '{"vertices": [{"id": 0, "type": 0}, {"id": 1, "type": 1}, {"id": 2, "type": 0}],'
        ' "facets": [[0, 1], [2], [9]]}',
        "facet [2] must have exactly one vertex of each type [0, 1], got types [0]",
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
    # refused before B2, whose work grows as 2^types
    "complex-over-the-type-limit": (
        "analyze-complex",
        json.dumps({
            "vertices": [{"id": i, "type": i} for i in range(MAX_TYPES + 1)],
            "facets": [list(range(MAX_TYPES + 1))],
        }),
        f"a complex of more than {MAX_TYPES} types is not supported, got {MAX_TYPES + 1}",
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
    "simplex-over-the-ambient-limit": (
        "spherical-simplex",
        json.dumps({"vertices": [
            [float(i == j) for j in range(MAX_AMBIENT_DIM + 1)] for i in range(2)
        ]}),
        f"ambient dimension must be at most {MAX_AMBIENT_DIM}, got {MAX_AMBIENT_DIM + 1}",
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


# systems the Coxeter fixtures lack: rank 1, three reducible systems whose
# components take their labels apart (rank 1 and 2 by their orders, H3 from
# its own block), and a reducible one that the criterion accepts
COXETER_SYSTEMS = {
    "A1": dynkin(1, ()),
    "B2xI2(7)xA1": dynkin(5, ((0, 1, 4), (2, 3, 7))),
    "H3xG2": dynkin(5, ((0, 1, 5), (1, 2, 3), (3, 4, 6))),
    "affine_A1+A1": dynkin(3, ((0, 1, math.inf),)),
    "A3xA1": dynkin(4, ((0, 1, 3), (1, 2, 3))),
}
COXETER_OPTIONS = (
    (), ("--thickness", "2"), ("--thickness", "4"), ("--min-thickness",),
    ("--thickness", "2", "--min-thickness"), ("--thickness", "4", "--min-thickness"),
)


def coxeter_inputs(directory):
    """(name, path, CoxeterMatrix) of every Coxeter input, the systems
    written out to `directory` as documents."""
    inputs = [
        (name, fixture_path(f"{name}.json"), g.load_coxeter_matrix(load_fixture(f"{name}.json")))
        for name in COXETER_FIXTURES
    ]
    for name, cox in COXETER_SYSTEMS.items():
        path = directory / f"{name}.json"
        m = [[None if x == math.inf else x for x in row] for row in cox.m]
        path.write_text(json.dumps({"rank": cox.rank, "m": m}))
        inputs.append((name, str(path), cox))
    return inputs


def library_report(cox, options):
    """(exit code, result, warnings, stderr) of analyze-coxeter from separate
    library calls, each building its own cosine matrix."""
    eigenvalues = sym_eigs(g.coxeter_cosine(cox).matrix)
    result = {
        "rank": cox.rank,
        "m": cox.m,
        "cosine_matrix": g.coxeter_cosine(cox).matrix,
        "eigenvalues": eigenvalues,
        "smallest_eigenvalue": eigenvalues[0],
        "classification": g.classify_coxeter(cox),
    }
    warnings = []
    if "--min-thickness" in options:
        result["min_thickness_q"] = g.min_thickness(g.coxeter_cosine(cox).min_eigenvalue())
    if "--thickness" in options:
        q = int(options[options.index("--thickness") + 1])
        try:
            report = g.vanishing_report(cox, q)
        except g.CriterionInapplicableError as exc:
            return 2, None, None, f"garland: criterion inapplicable: {exc}\n"
        result["vanishing"] = report
        if report.borderline:
            warnings.append("criterion comparison is within 1e-12 of the threshold")
    return 0, to_jsonable(result), warnings, ""


def test_analyze_coxeter_equals_the_separate_library_calls(tmp_path, capsys):
    # == on floats parsed from the report: every bit must match
    for name, path, cox in coxeter_inputs(tmp_path):
        for options in COXETER_OPTIONS:
            code = main(["analyze-coxeter", "--input", path, *options])
            captured = capsys.readouterr()
            want_code, result, warnings, err = library_report(cox, options)
            assert (code, captured.err) == (want_code, err), (name, options)
            if code == 0:
                doc = json.loads(captured.out)
                assert doc["result"] == result, (name, options)
                assert doc["warnings"] == warnings, (name, options)


class SolveCounter:
    """Counts `numpy.linalg` eigensolves and `coxeter_cosine` calls."""

    def __init__(self, monkeypatch):
        self.solves = self.cosines = 0
        for fname in ("eigvalsh", "eigh"):
            solve = self._counted(getattr(np.linalg, fname), "solves")
            monkeypatch.setattr(np.linalg, fname, solve)
        original = g.coxeter.coxeter_cosine
        counted = self._counted(original, "cosines")
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("garland"):
                if getattr(module, "coxeter_cosine", None) is original:
                    monkeypatch.setattr(module, "coxeter_cosine", counted)

    def _counted(self, fn, counter):
        def wrapper(*args, **kwargs):
            setattr(self, counter, getattr(self, counter) + 1)
            return fn(*args, **kwargs)
        return wrapper

    def run(self, argv):
        self.solves = self.cosines = 0
        code = main(argv)
        return code, self.cosines, self.solves


def test_each_report_matrix_is_built_and_solved_once(tmp_path, capsys, monkeypatch):
    inputs = coxeter_inputs(tmp_path)
    chambers = build_coxeter_complex(dynkin(4, ((0, 1, 3), (1, 2, 3), (1, 3, 3)))).complex
    d4 = tmp_path / "d4_chambers.json"
    d4.write_text(json.dumps({
        "vertices": [{"id": v, "type": t} for v, t in chambers.vertex_types.items()],
        "facets": [sorted(f) for f in chambers.facets],
    }))
    counter = SolveCounter(monkeypatch)
    # a connected system builds C once and solves it once, refused or not;
    # a reducible one solves each block of rank >= 3 once per label, and
    # `vanishing_report` labels it again when the criterion applies (A3xA1;
    # Feit-Higman refuses H3xG2 first)
    blocks = {"H3xG2": 1, "A3xA1": 1}
    for name, path, _ in inputs:
        for options in COXETER_OPTIONS:
            labels = 2 if name == "A3xA1" and "--thickness" in options else 1
            _, cosines, solves = counter.run(["analyze-coxeter", "--input", path, *options])
            assert (cosines, solves) == (1, 1 + labels * blocks.get(name, 0)), (name, options)
    # the walk spectra (one stack per link size), then the report matrix;
    # subspace angles are singular values, not eigensolves
    totals = {
        ("analyze-complex", fixture_path("octahedron.json")): 2,
        ("analyze-complex", str(d4)): 3,
        ("decompose", fixture_path("pd_family.json")): 1,
        ("spherical-simplex", fixture_path("equilateral_triple.json")): 1,
    }
    for (sub, path), want in totals.items():
        code, _, solves = counter.run([sub, "--input", path])
        assert (code, solves) == (0, want), (sub, path)
