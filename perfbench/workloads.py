"""The benchmark's four closed-loop workloads.

A workload turns the seed into one pass of inputs, runs one op per input
through garland's public functions, and checks every output with an oracle
from oracles.py.  Ops reach the library through module attributes
(`gcox.enumerate_group`, never a local alias), so the span tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from garland import cli as gcli
from garland import coxeter as gcox
from garland import decomposition as gdec
from garland import linalg as glin
from garland import subspaces as gsub

import oracles

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Dynkin diagrams as (rank, edges (i, j, m_ij)) with closed-form group orders
# (Humphreys, Reflection Groups and Coxeter Groups, section 2.11).
COXETER_TYPES = {
    "A3": (3, ((0, 1, 3), (1, 2, 3)), 24),
    "B3": (3, ((0, 1, 4), (1, 2, 3)), 48),
    "H3": (3, ((0, 1, 5), (1, 2, 3)), 120),
    "A4": (4, ((0, 1, 3), (1, 2, 3), (2, 3, 3)), 120),
    "D4": (4, ((0, 1, 3), (1, 2, 3), (1, 3, 3)), 192),
    "B4": (4, ((0, 1, 4), (1, 2, 3), (2, 3, 3)), 384),
    "F4": (4, ((0, 1, 3), (1, 2, 4), (2, 3, 3)), 1152),
    "H4": (4, ((0, 1, 5), (1, 2, 3), (2, 3, 3)), 14400),
    "A5": (5, ((0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3)), 720),
    "D5": (5, ((0, 1, 3), (1, 2, 3), (2, 3, 3), (2, 4, 3)), 1920),
    "B5": (5, ((0, 1, 4), (1, 2, 3), (2, 3, 3), (3, 4, 3)), 3840),
    "D6": (6, ((0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (3, 5, 3)), 23040),
    "E6": (6, ((0, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (1, 3, 3)), 51840),
}

# Above H4's true order, so the enumeration's dedup defect shows as a wrong
# order (15042) rather than as a refusal.
GROUP_CAP = 60_000

# Shapes (ambient_dim, n, member dims) whose random draws are often positive
# definite; the same shapes the unit tests draw from.
PD_SHAPES = (
    (12, 3, (1, 1, 1, 1)),
    (12, 2, (2, 2, 1)),
    (11, 3, (2, 1, 1, 1)),
    (12, 2, (2, 1, 1)),
    (10, 3, (1, 1, 1, 1)),
    (12, 1, (4, 4)),
    (10, 2, (2, 2, 2)),
    (12, 2, (3, 2, 1)),
)
PD_MARGIN = 1e-3


@dataclass(frozen=True)
class Item:
    """One input of a pass: what the op gets and what the oracle expects."""

    label: str
    payload: object
    expect: object


def coxeter_matrix(name: str) -> gcox.CoxeterMatrix:
    rank, edges, _ = COXETER_TYPES[name]
    m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for i, j, order in edges:
        m[i][j] = m[j][i] = order
    return gcox.CoxeterMatrix(rank=rank, m=tuple(map(tuple, m)))


def _coxeter_items(names, seed: int) -> list[Item]:
    items = [Item(name, coxeter_matrix(name), COXETER_TYPES[name][2]) for name in names]
    random.Random(seed).shuffle(items)
    return items


class CoxeterComplex:
    """The paper's complex-side cross-check on the chamber complexes of seven
    spherical types; its work is in `complexes` and `linalg`."""

    name = "coxeter-complex"
    nominal_pass_s = 3.6
    warmup_label = "A3"

    def items(self, seed: int, workdir: Path) -> list[Item]:
        return _coxeter_items(("A3", "B3", "H3", "A4", "D4", "B4", "F4"), seed)

    def run(self, item: Item):
        return gcox.coxeter_complex_cosine_check(item.payload)

    def check(self, item: Item, out) -> str | None:
        return oracles.check_cosine_agreement(out, item.payload.m, item.expect)


class GroupEnum:
    """Finite Coxeter group enumeration up to E6: all of its work is in
    `coxeter`, it sets the memory peak, and it runs no eigensolve and no link,
    so `linalg` and `complexes` changes should leave it unchanged.

    H4 is a known defect, not part of the timed mix: enumeration rounds matrix
    entries to a 1e-9 grid and returns 15042 elements instead of 14400.  It is
    enumerated and checked once per run after the timed passes, and reported
    apart, so that the defect shows on every run without making the timed ops
    fail.
    """

    name = "group-enum"
    nominal_pass_s = 1.8
    warmup_label = "A5"

    def items(self, seed: int, workdir: Path) -> list[Item]:
        return _coxeter_items(("A5", "D5", "B5", "D6", "E6"), seed)

    def known_defect_items(self) -> list[Item]:
        return _coxeter_items(("H4",), 0)

    def run(self, item: Item):
        return gcox.enumerate_group(item.payload, cap=GROUP_CAP)

    def check(self, item: Item, out) -> str | None:
        return oracles.check_order(out.order, item.expect) or oracles.check_involutions(
            out.adjacency
        )


def _frame(rng: np.random.Generator, ambient: int, dim: int) -> np.ndarray:
    """Orthonormal basis of a Gaussian random dim-subspace of R^ambient."""
    q, r = np.linalg.qr(rng.standard_normal((ambient, dim)))
    if np.min(np.abs(np.diag(r))) < 1e-6:
        raise ValueError("degenerate Gaussian frame")
    return q


def _pair_cosines(bases) -> np.ndarray:
    """Cosine matrix of subspaces in general position with trivial pairwise
    intersections: off-diagonal -sigma_max of the cross-Gram."""
    k = len(bases)
    c = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            c[i, j] = c[j, i] = -np.linalg.svd(bases[i].T @ bases[j], compute_uv=False)[0]
    return c


def _generic_dims(ambient: int, dims) -> dict[int, int]:
    """dim H_tau for subspaces in general position."""
    full = (1 << len(dims)) - 1
    out = {}
    for mask in range(full + 1):
        if mask == full:
            out[mask] = ambient
        else:
            codim = sum(ambient - k for i, k in enumerate(dims) if not mask >> i & 1)
            out[mask] = max(0, ambient - codim)
    return out


def _family_item(label: str, ambient: int, bases, holds_at_full: bool) -> Item:
    dims = [b.shape[1] for b in bases]
    family = gsub.SubspaceFamily(ambient, tuple(gsub.Subspace(ambient, b) for b in bases))
    full = (1 << len(dims)) - 1
    holds = {mask: mask != full or holds_at_full for mask in range(full + 1)}
    return Item(label, family, (_generic_dims(ambient, dims), holds))


class Lattice:
    """The decomposition-verifier path on seeded families; all of its work is
    in `decomposition`, `subspaces` and `linalg`, none in `coxeter` or
    `complexes`."""

    name = "lattice"
    nominal_pass_s = 2.75
    warmup_label = "pd-12-3-1.1.1.1"

    def items(self, seed: int, workdir: Path) -> list[Item]:
        items = []
        for n in (4, 5):
            # n+1 hyperplanes of R^(n+1): dim H_tau = |tau| and every mask holds
            rng = np.random.default_rng([seed, 1, n])
            bases = [_frame(rng, n + 1, n) for _ in range(n + 1)]
            items.append(_family_item(f"hyperplanes-n{n}", n + 1, bases, True))
        for idx, (ambient, n, dims) in enumerate(PD_SHAPES):
            for attempt in range(1000):
                rng = np.random.default_rng([seed, 2, idx, attempt])
                bases = [_frame(rng, ambient, k) for k in dims]
                if np.linalg.eigvalsh(_pair_cosines(bases))[0] >= PD_MARGIN:
                    break
            else:
                raise ValueError(f"no positive-definite draw for shape {idx}")
            label = f"pd-{ambient}-{n}-" + ".".join(map(str, dims))
            items.append(_family_item(label, ambient, bases, True))
        for n in (7, 8, 9):
            # n+1 lines or planes of R^(n+1): the lines span R^(n+1) as a
            # direct sum, the planes overfill it, so only their full mask fails
            for kind, dim in (("lines", 1), ("planes", 2)):
                rng = np.random.default_rng([seed, 3, n, dim])
                bases = [_frame(rng, n + 1, dim) for _ in range(n + 1)]
                items.append(_family_item(f"{kind}-n{n}", n + 1, bases, dim == 1))
        random.Random(seed).shuffle(items)
        return items

    def run(self, item: Item):
        family = item.payload
        lattice = gdec.build_lattice(family)
        reports = [gdec.verify_decomposition(lattice, mask) for mask in range(1 << (family.n + 1))]
        cosine = gsub.cosine_matrix_of_family(family)
        return lattice, reports, cosine, glin.classify_definiteness(cosine.matrix)

    def check(self, item: Item, out) -> str | None:
        lattice, reports, cosine, definiteness = out
        expected_dims, expected_holds = item.expect
        dims = {mask: sub.dim for mask, sub in lattice.h_lower.items()}
        holds = {mask: report.holds for mask, report in enumerate(reports)}
        return (
            oracles.check_lattice(dims, holds, expected_dims, expected_holds)
            or oracles.check_definiteness(cosine.matrix, definiteness.kind)
            or oracles.check_min_eig(cosine.matrix, cosine.min_eigenvalue())
        )


COXETER_DOCS = (
    "a2", "a3", "affine_a2", "affine_a3", "affine_c2", "affine_g2",
    "b2", "b3", "g2", "h3", "hyperbolic_rank4", "infinite_dihedral",
)
# Building dimension 1 (rank 2), an excluded gonality (m = 5) or an infinite
# order: the criterion cannot apply, exit 2.
INAPPLICABLE = {"a2", "b2", "g2", "h3", "infinite_dihedral"}
GENERATED = ("H3", "A4", "D4")

# (subcommand, document, extra arguments, expected exit code)
CLI_OPS = (
    *(("analyze-coxeter", doc, (), 0) for doc in COXETER_DOCS),
    *(
        ("analyze-coxeter", doc, ("--thickness", "4"), 2 if doc in INAPPLICABLE else 0)
        for doc in COXETER_DOCS
    ),
    *(
        ("analyze-coxeter", doc, ("--min-thickness",), 0)
        for doc in ("a3", "affine_a2", "affine_c2", "affine_g2", "hyperbolic_rank4")
    ),
    ("analyze-coxeter", "a3", ("--thickness", "2"), 0),
    ("analyze-coxeter", "a3", ("--thickness", "3"), 0),
    ("analyze-coxeter", "a3", ("--thickness", "8"), 0),
    ("analyze-coxeter", "affine_a3", ("--thickness", "2"), 0),
    ("analyze-coxeter", "affine_a3", ("--thickness", "5", "--min-thickness"), 0),
    ("analyze-coxeter", "b3", ("--thickness", "3"), 0),
    ("analyze-coxeter", "a3", ("--thickness", "4", "--format", "text"), 0),
    ("analyze-coxeter", "affine_c2", ("--min-thickness", "--format", "text"), 0),
    ("analyze-complex", "bowtie", (), 1),
    ("analyze-complex", "pinched_octahedron", (), 1),
    ("analyze-complex", "octahedron", (), 0),
    ("analyze-complex", "heawood", (), 0),
    ("analyze-complex", "sigma_a3", (), 0),
    ("analyze-complex", "octahedron", ("--format", "text"), 0),
    *(("analyze-complex", name, (), 0) for name in GENERATED),
    ("decompose", "pd_family", (), 0),
    ("decompose", "pd_family", ("--tau", "0,2"), 0),
    ("decompose", "pd_family", ("--format", "text"), 0),
    ("decompose", "three_lines_plane", (), 0),
    ("decompose", "doubled_plane", (), 0),
    ("decompose", "line_in_plane", (), 0),
    ("spherical-simplex", "equilateral_triple", (), 0),
    ("spherical-simplex", "orthonormal_triple", (), 0),
    ("spherical-simplex", "orthonormal_triple", ("--format", "text"), 0),
)


def chamber_complex_doc(cox: gcox.CoxeterMatrix) -> dict:
    """analyze-complex document of a finite Coxeter system's chamber complex."""
    x = gcox.build_coxeter_complex(cox).complex
    return {
        "n": x.n,
        "vertices": [{"id": v, "type": t} for v, t in sorted(x.vertex_types.items())],
        "facets": [sorted(f) for f in x.facets],
    }


class Cli:
    """The user's entry point: in-process `garland.cli.main` over every
    fixture document and the four subcommands, error exits included.  It is
    the only workload that runs `cli`, `reporting` and `criterion`."""

    name = "cli"
    nominal_pass_s = 0.8
    warmup_label = "analyze-coxeter a2"

    def __init__(self):
        self.digests: dict[str, str] = {}

    def items(self, seed: int, workdir: Path) -> list[Item]:
        paths = {p.stem: p for p in FIXTURES.glob("*.json")}
        for name in GENERATED:
            path = workdir / f"{name.lower()}_chambers.json"
            path.write_text(json.dumps(chamber_complex_doc(coxeter_matrix(name))))
            paths[name] = path
        items = []
        for sub, doc, extra, code in CLI_OPS:
            argv = [sub, "--input", os.path.relpath(paths[doc]), *extra]
            items.append(Item(" ".join((sub, doc, *extra)), argv, code))
        random.Random(seed).shuffle(items)
        return items

    def run(self, item: Item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gcli.main(item.payload)
        return code, out.getvalue(), err.getvalue()

    def check(self, item: Item, out) -> str | None:
        code, stdout, stderr = out
        wrong = oracles.check_exit(code, item.expect, stdout, stderr)
        if wrong:
            return wrong
        reference = self.digests.setdefault(item.label, oracles.stdout_digest(stdout))
        wrong = oracles.check_digest(stdout, reference)
        if wrong or code != 0 or "--format" in item.payload:
            return wrong
        result = json.loads(stdout)["result"]
        matrix = result.get("cosine_matrix", result.get("face_cosine_matrix"))
        if "definiteness" in result:
            wrong = oracles.check_definiteness(matrix, result["definiteness"]["kind"])
        return wrong or oracles.check_min_eig(matrix, result["smallest_eigenvalue"])


WORKLOADS = {w.name: w for w in (CoxeterComplex, GroupEnum, Lattice, Cli)}
