"""Independent correctness checks for the benchmark's ops.

Each check returns None when the output is right and a one-line reason when it
is not.  The checks use closed forms, LAPACK through numpy, or the structure of
the generated inputs, never the library's own answer to the same question.
"""

from __future__ import annotations

import hashlib

import numpy as np

EIG_TOL = 1e-9


def check_order(order: int, expected: int) -> str | None:
    """The enumerated group has its closed-form order."""
    if order != expected:
        return f"group order {order}, closed form {expected}"
    return None


def check_involutions(adjacency) -> str | None:
    """Every generator moves every element and is undone by a second step."""
    table = np.asarray(adjacency, dtype=np.int64)
    here = np.arange(table.shape[0])
    for s in range(table.shape[1]):
        step = table[:, s]
        if np.any(step < 0) or np.any(step == here) or np.any(step[step] != here):
            return f"generator {s} adjacency is not a fixed-point-free involution"
    return None


def check_min_eig(matrix, reported: float) -> str | None:
    """A reported smallest eigenvalue agrees with LAPACK's within 1e-9."""
    reference = float(np.linalg.eigvalsh(np.asarray(matrix, dtype=float))[0])
    if not abs(reported - reference) <= EIG_TOL:
        return f"smallest eigenvalue {reported!r}, eigvalsh {reference!r}"
    return None


def check_definiteness(matrix, kind: str, margin: float = 1e-6) -> str | None:
    """The sign class agrees with eigvalsh wherever the spectrum is clear of 0."""
    smallest = float(np.linalg.eigvalsh(np.asarray(matrix, dtype=float))[0])
    if smallest > margin and kind != "positive_definite":
        return f"classified {kind}, smallest eigenvalue {smallest:.3g} > 0"
    if smallest < -margin and kind != "indefinite":
        return f"classified {kind}, smallest eigenvalue {smallest:.3g} < 0"
    return None


def check_cosine_agreement(report, m, order: int) -> str | None:
    """The complex-side cosine matrix of a spherical Coxeter system.

    It must equal the direct one, every rank-2 link must be a 2m-cycle, and
    there must be |W| / 2m links of each cotype, one per coset of W_ij.
    """
    if not report.max_deviation <= EIG_TOL:
        return f"complex and direct cosine matrices differ by {report.max_deviation:.3g}"
    for (i, j), link in sorted(report.link_checks.items()):
        if not link.ok or link.expected_length != 2 * m[i][j]:
            return f"links of cotype pair ({i},{j}) are not {2 * m[i][j]}-cycles"
        if len(link.observed_lengths) != order // (2 * m[i][j]):
            return (
                f"{len(link.observed_lengths)} links of cotype pair ({i},{j}), "
                f"expected {order // (2 * m[i][j])}"
            )
    if report.complex_report.definiteness.kind != "positive_definite":
        return f"spherical complex classified {report.complex_report.definiteness.kind}"
    for cosine in (report.cosine_matrix, report.complex_report.matrix):
        wrong = check_min_eig(cosine.matrix, cosine.min_eigenvalue())
        if wrong:
            return wrong
    return None


def check_lattice(dims, holds, expected_dims, expected_holds) -> str | None:
    """dim H_tau and the verifier's verdict agree with the generic-position values."""
    for mask, want in expected_dims.items():
        if dims.get(mask) != want:
            return f"dim H_tau at mask {mask} is {dims.get(mask)}, generic value {want}"
    for mask, want in expected_holds.items():
        if holds.get(mask) != want:
            return f"decomposition at mask {mask} holds={holds.get(mask)}, expected {want}"
    return None


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_exit(code: int, expected: int, stdout: str, stderr: str) -> str | None:
    """Exit code as documented; errors go to stderr and leave stdout empty."""
    if code != expected:
        return f"exit code {code}, expected {expected}"
    if code != 0 and (stdout or not stderr):
        return f"exit {code} must print only to stderr"
    return None


def check_digest(stdout: str, reference: str) -> str | None:
    """The same op prints the same bytes on every pass."""
    digest = stdout_digest(stdout)
    if digest != reference:
        return f"stdout sha256 {digest[:12]} differs from the first pass's {reference[:12]}"
    return None
