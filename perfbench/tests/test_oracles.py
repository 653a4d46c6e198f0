"""Each oracle accepts the library's real output and rejects a planted wrong one."""

from __future__ import annotations

import dataclasses

import numpy as np

import oracles
import workloads
from garland import coxeter as gcox
from garland.subspaces import Subspace


def item(workload, label, tmp_path):
    return next(i for i in workload.items(0, tmp_path) if i.label == label)


def test_order_oracle_rejects_the_h4_dedup_count():
    h4 = workloads.COXETER_TYPES["H4"][2]
    assert h4 == 14400
    assert oracles.check_order(14400, h4) is None
    assert "15042" in oracles.check_order(15042, h4)


def test_involution_oracle_rejects_broken_generators():
    table = [list(row) for row in gcox.enumerate_group(workloads.coxeter_matrix("A3")).adjacency]
    assert oracles.check_involutions(table) is None
    fixed = [row[:] for row in table]
    fixed[0][1] = 0
    assert oracles.check_involutions(fixed) is not None
    swapped = [row[:] for row in table]
    a, b = swapped[0][1], swapped[3][1]
    swapped[0][1], swapped[3][1] = b, a
    assert oracles.check_involutions(swapped) is not None


def test_group_enum_oracle_checks_order_and_adjacency(tmp_path):
    wl = workloads.GroupEnum()
    a5 = item(wl, "A5", tmp_path)
    out = wl.run(a5)
    assert wl.check(a5, out) is None
    wrong = dataclasses.replace(out, elements=out.elements[:-1])
    assert "closed form 720" in wl.check(a5, wrong)


def test_min_eig_oracle_rejects_an_eigenvalue_off_by_1e_6():
    c = np.array([[1.0, -0.5], [-0.5, 1.0]])
    assert oracles.check_min_eig(c, 0.5) is None
    assert oracles.check_min_eig(c, 0.5 + 1e-6) is not None


def test_definiteness_oracle_rejects_a_wrong_class():
    pd = np.array([[1.0, -0.5], [-0.5, 1.0]])
    assert oracles.check_definiteness(pd, "positive_definite") is None
    assert oracles.check_definiteness(pd, "indefinite") is not None
    assert oracles.check_definiteness(-pd, "positive_definite") is not None


def test_cosine_agreement_oracle_rejects_a_deviation(tmp_path):
    wl = workloads.CoxeterComplex()
    a3 = item(wl, "A3", tmp_path)
    out = wl.run(a3)
    assert wl.check(a3, out) is None
    assert wl.check(a3, dataclasses.replace(out, max_deviation=1e-6)) is not None
    short = dict(out.link_checks)
    pair, link = next(iter(short.items()))
    short[pair] = dataclasses.replace(link, observed_lengths=link.observed_lengths[1:])
    assert "expected" in wl.check(a3, dataclasses.replace(out, link_checks=short))


def test_lattice_oracle_rejects_a_wrong_dimension_and_verdict(tmp_path):
    wl = workloads.Lattice()
    pd = item(wl, "pd-12-3-1.1.1.1", tmp_path)
    lattice, reports, cosine, definiteness = wl.run(pd)
    assert wl.check(pd, (lattice, reports, cosine, definiteness)) is None
    flipped = list(reports)
    flipped[3] = dataclasses.replace(flipped[3], holds=False)
    assert "mask 3" in wl.check(pd, (lattice, flipped, cosine, definiteness))
    lattice.h_lower[0] = Subspace.full(lattice.family.ambient_dim)
    assert "dim H_tau at mask 0" in wl.check(pd, (lattice, reports, cosine, definiteness))


def test_lattice_generic_dims_are_tau_sized_for_hyperplanes(tmp_path):
    hyperplanes = item(workloads.Lattice(), "hyperplanes-n4", tmp_path)
    dims, holds = hyperplanes.expect
    assert all(dims[mask] == mask.bit_count() for mask in dims)
    assert all(holds.values())


def test_cli_oracle_rejects_one_changed_byte(tmp_path):
    cli = workloads.Cli()
    op = item(cli, "analyze-coxeter a3 --thickness 4", tmp_path)
    code, stdout, stderr = cli.run(op)
    assert cli.check(op, (code, stdout, stderr)) is None  # sets the reference
    assert cli.check(op, (code, stdout, stderr)) is None
    changed = stdout[:100] + chr(ord(stdout[100]) ^ 1) + stdout[101:]
    assert "sha256" in cli.check(op, (code, changed, stderr))


def test_cli_oracle_rejects_a_wrong_exit_code(tmp_path):
    cli = workloads.Cli()
    op = item(cli, "analyze-complex bowtie", tmp_path)
    code, stdout, stderr = cli.run(op)
    assert code == 1
    assert cli.check(op, (code, stdout, stderr)) is None
    assert "exit code 0" in cli.check(op, (0, stdout, stderr))


def test_cli_oracle_rejects_a_wrong_smallest_eigenvalue(tmp_path):
    cli = workloads.Cli()
    op = item(cli, "spherical-simplex equilateral_triple", tmp_path)
    code, stdout, stderr = cli.run(op)
    planted = stdout.replace('"smallest_eigenvalue": 0.', '"smallest_eigenvalue": 1.', 1)
    assert planted != stdout
    assert "smallest eigenvalue" in cli.check(op, (code, planted, stderr))


def test_group_enum_checks_h4_apart_from_the_timed_mix(tmp_path):
    wl = workloads.GroupEnum()
    assert sorted(i.label for i in wl.items(0, tmp_path)) == ["A5", "B5", "D5", "D6", "E6"]
    (h4,) = wl.known_defect_items()
    assert h4.label == "H4" and h4.expect == 14400 < workloads.GROUP_CAP
