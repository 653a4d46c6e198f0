"""Shared helpers: fixture loading, seeded family generators, JSON fuzz
strategies, and a terminal summary that prints one PASS/FAIL line per
acceptance criterion."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import garland as g
from garland.decomposition import random_family

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def load_fixture(name: str):
    with open(FIXTURES / name) as fh:
        return json.load(fh)


# shapes with a usable acceptance rate under the positive-definite filter
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


def pd_families(count: int, seed0: int = 0):
    """Seeded families rejection-filtered to a positive-definite cosine matrix."""
    out = []
    seed = seed0
    shape = 0
    while len(out) < count:
        ambient, n, dims = PD_SHAPES[shape % len(PD_SHAPES)]
        shape += 1
        fam = random_family(seed, ambient, n, dims)
        seed += 1
        cm = g.cosine_matrix_of_family(fam)
        if g.classify_definiteness(cm.matrix).is_positive_definite:
            out.append((fam, cm))
    return out


def intersecting_family(seed: int, ambient_dim: int, n: int, extra_dims) -> g.SubspaceFamily:
    """Family where V_i and V_n share the designed core line c_i for i < n.

    V_n is the span of all n core vectors; member i is c_i plus extra_dims[i]
    random directions, so every intersection with V_n is at least a line.
    """
    rng = np.random.default_rng([seed, 77])
    cores = rng.standard_normal((n, ambient_dim))
    members = []
    for i in range(n):
        rows = [cores[i]]
        if extra_dims[i]:
            rows.extend(rng.standard_normal((extra_dims[i], ambient_dim)))
        members.append(g.Subspace.from_spanning(ambient_dim, np.vstack(rows)))
    members.append(g.Subspace.from_spanning(ambient_dim, cores))
    return g.SubspaceFamily(ambient_dim, tuple(members))


# JSON-shaped values for loader fuzzing; the integers past the float range
# probe every place a loader hands a JSON integer on as a float
json_scalars = st.one_of(
    st.integers(-2, 3),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(),
    st.text(max_size=2),
    st.none(),
    st.booleans(),
)
json_values = st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6)


_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance_outcomes[name] = report.outcome
    elif report.outcome != "passed" and name not in _acceptance_outcomes:
        _acceptance_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[name]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")
