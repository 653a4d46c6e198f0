"""The committed report corpus: the exit code, stdout and stderr of every op
in OPS, one JSON file per op in this directory.

    PYTHONPATH=src python tests/golden/regenerate.py          # rewrite the corpus
    PYTHONPATH=src python tests/golden/regenerate.py --check  # compare, exit 1 on a move

Each op runs `garland.cli.main` in process.  The fixture documents are those
of tests/fixtures; the chamber complexes of H3, A4 and D4 are built with
`build_coxeter_complex` at run time, so the enumeration's numbering reaches
the corpus through their `input_digest` and facets.  The input path is
normalised to `fixtures/<name>.json` or `generated/<name>_chambers.json`.

A JSON report is stored as its tree and text output as its lines.  Ints,
strings, bools, nulls and key order compare exactly; a float compares
within FLOAT_TOL * max(1, |a|, |b|), and so does every number in a line of
text output.  `--check` prints one line per moved field, as
`op: path: committed -> new`, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from garland import cli
from garland.coxeter import CoxeterMatrix, build_coxeter_complex

GOLDEN = Path(__file__).resolve().parent
FIXTURES = GOLDEN.parent / "fixtures"
FLOAT_TOL = 1e-12

COXETER_DOCS = (
    "a2", "a3", "affine_a2", "affine_a3", "affine_c2", "affine_g2",
    "b2", "b3", "g2", "h3", "hyperbolic_rank4", "infinite_dihedral",
)
# Dynkin diagrams (rank, edges (i, j, m_ij)) whose chamber complexes are
# analysed as generated documents
GENERATED = {
    "H3": (3, ((0, 1, 5), (1, 2, 3))),
    "A4": (4, ((0, 1, 3), (1, 2, 3), (2, 3, 3))),
    "D4": (4, ((0, 1, 3), (1, 2, 3), (1, 3, 3))),
}

# (subcommand, document, extra arguments)
OPS = (
    *(("analyze-coxeter", doc, ()) for doc in COXETER_DOCS),
    *(("analyze-coxeter", doc, ("--thickness", "4")) for doc in COXETER_DOCS),
    *(
        ("analyze-coxeter", doc, ("--min-thickness",))
        for doc in ("a3", "affine_a2", "affine_c2", "affine_g2", "hyperbolic_rank4")
    ),
    ("analyze-coxeter", "a3", ("--thickness", "2")),
    ("analyze-coxeter", "a3", ("--thickness", "3")),
    ("analyze-coxeter", "a3", ("--thickness", "8")),
    ("analyze-coxeter", "affine_a3", ("--thickness", "2")),
    ("analyze-coxeter", "affine_a3", ("--thickness", "5", "--min-thickness")),
    ("analyze-coxeter", "b3", ("--thickness", "3")),
    ("analyze-coxeter", "a3", ("--thickness", "4", "--format", "text")),
    ("analyze-coxeter", "affine_c2", ("--min-thickness", "--format", "text")),
    ("analyze-complex", "bowtie", ()),
    ("analyze-complex", "pinched_octahedron", ()),
    ("analyze-complex", "octahedron", ()),
    ("analyze-complex", "heawood", ()),
    ("analyze-complex", "sigma_a3", ()),
    ("analyze-complex", "octahedron", ("--format", "text")),
    *(("analyze-complex", name, ()) for name in GENERATED),
    ("decompose", "pd_family", ()),
    ("decompose", "pd_family", ("--tau", "0,2")),
    ("decompose", "pd_family", ("--format", "text")),
    ("decompose", "three_lines_plane", ()),
    ("decompose", "doubled_plane", ()),
    ("decompose", "line_in_plane", ()),
    ("spherical-simplex", "equilateral_triple", ()),
    ("spherical-simplex", "orthonormal_triple", ()),
    ("spherical-simplex", "orthonormal_triple", ("--format", "text")),
)


def label(op) -> str:
    sub, doc, extra = op
    return " ".join((sub, doc, *extra))


def path_of(op) -> Path:
    return GOLDEN / (re.sub(r"[^a-z0-9]+", "-", label(op).lower()).strip("-") + ".json")


def coxeter_matrix(rank, edges) -> CoxeterMatrix:
    m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for i, j, mij in edges:
        m[i][j] = m[j][i] = mij
    return CoxeterMatrix(rank=rank, m=tuple(map(tuple, m)))


def write_inputs(directory: Path) -> dict[str, tuple[Path, str]]:
    """Every document an op reads, as (path, normalised path) by name; the
    chamber complexes are written into `directory`."""
    inputs = {p.stem: (p, f"fixtures/{p.name}") for p in FIXTURES.glob("*.json")}
    for name, (rank, edges) in GENERATED.items():
        x = build_coxeter_complex(coxeter_matrix(rank, edges)).complex
        doc = {
            "n": x.n,
            "vertices": [{"id": v, "type": t} for v, t in sorted(x.vertex_types.items())],
            "facets": [sorted(f) for f in x.facets],
        }
        path = directory / f"{name.lower()}_chambers.json"
        path.write_text(json.dumps(doc))
        inputs[name] = (path, f"generated/{path.name}")
    return inputs


def run(op, inputs) -> dict:
    """The op's record: its exit code, stdout (a tree when it is a JSON
    report, else its lines) and the lines of stderr."""
    sub, doc, extra = op
    path, shown = inputs[doc]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([sub, "--input", str(path), *extra])
    stdout, stderr = (s.getvalue().replace(str(path), shown) for s in (out, err))
    as_json = code == 0 and "text" not in extra
    return {
        "op": label(op),
        "exit_code": code,
        "stdout": json.loads(stdout) if as_json else stdout.splitlines(),
        "stderr": stderr.splitlines(),
    }


def close(a, b) -> bool:
    return a == b or abs(a - b) <= FLOAT_TOL * max(1.0, abs(a), abs(b))


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def same_line(a: str, b: str) -> bool:
    """Equal text, except that numbers with a point or an exponent compare
    within the float tolerance."""
    pieces_a, pieces_b = NUMBER.split(a), NUMBER.split(b)
    if len(pieces_a) != len(pieces_b):
        return False
    for k, (x, y) in enumerate(zip(pieces_a, pieces_b)):
        if k % 2 == 0 or not re.search(r"[.eE]", x + y):
            if x != y:
                return False
        elif not close(float(x), float(y)):
            return False
    return True


def moved(committed, new, path: str = "", lines: bool = False):
    """Yield (path, committed, new) for every field that moved."""
    if isinstance(committed, dict) and isinstance(new, dict):
        if list(committed) != list(new):
            yield f"{path} keys", list(committed), list(new)
        for key in (key for key in committed if key in new):
            yield from moved(committed[key], new[key], f"{path}.{key}", lines)
    elif isinstance(committed, list) and isinstance(new, list):
        if len(committed) != len(new):
            yield f"{path} length", len(committed), len(new)
        for k, (a, b) in enumerate(zip(committed, new)):
            yield from moved(a, b, f"{path}[{k}]", lines)
    elif _number(committed) and _number(new) and (
        isinstance(committed, float) or isinstance(new, float)
    ):
        if not close(committed, new):
            yield path, committed, new
    elif lines and isinstance(committed, str) and isinstance(new, str):
        if not same_line(committed, new):
            yield path, committed, new
    elif type(committed) is not type(new) or committed != new:
        yield path, committed, new


def moved_fields(committed: dict, new: dict):
    """Yield (path, committed, new) between two records of one op."""
    for field in ("exit_code", "stdout", "stderr"):
        text = field == "stderr" or (field == "stdout" and isinstance(new[field], list))
        yield from moved(committed[field], new[field], field, lines=text)


def load(op) -> dict:
    return json.loads(path_of(op).read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed corpus instead of rewriting it")
    args = parser.parse_args(argv)
    stale = sorted(set(GOLDEN.glob("*.json")) - {path_of(op) for op in OPS})
    failures = 0
    with tempfile.TemporaryDirectory() as directory:
        inputs = write_inputs(Path(directory))
        for op in OPS:
            record = run(op, inputs)
            if not args.check:
                path_of(op).write_text(json.dumps(record, indent=1) + "\n")
                continue
            if not path_of(op).exists():
                print(f"{label(op)}: no committed file {path_of(op).name}")
                failures += 1
                continue
            for field, a, b in moved_fields(load(op), record):
                print(f"{label(op)}: {field}: {json.dumps(a)} -> {json.dumps(b)}")
                failures += 1
    for path in stale:
        if args.check:
            print(f"{path.name}: committed file of no op")
            failures += 1
        else:
            path.unlink()
    if args.check:
        print(f"{len(OPS)} ops, {failures} moved field(s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
