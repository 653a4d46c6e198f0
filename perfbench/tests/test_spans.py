"""The tracer sees every binding, counts what the README's layer predictions
name, and leaves the library exactly as it found it."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import garland  # noqa: F401  (loads every garland module)
import spans
import worker
import workloads
from garland import linalg, reporting, subspaces

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def bindings() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "garland" or name.startswith("garland.")
        for attr, value in vars(module).items()
    }


def traced_mix(name: str, labels, tmp_path) -> dict:
    wl = workloads.WORKLOADS[name]()
    items = [i for i in wl.items(0, tmp_path) if i.label in labels]
    assert len(items) == len(labels)
    with spans.Tracer() as tracer:
        records = worker.run_passes(wl, items, 1, tracer)
    assert [failure for *_, failure in records] == [None] * len(items)
    return {k: value for k, (value, unit) in tracer.layer_metrics(1.0).items()}


def test_group_enum_runs_no_eigensolve_and_no_link(tmp_path):
    m = traced_mix("group-enum", {"A5", "D5"}, tmp_path)
    assert m["linalg.sym_eigs.calls"] == 0
    assert m["complexes.link_of.calls"] == 0
    assert m["coxeter.enumerate_group.elements"] == 720 + 1920
    assert m["coxeter.enumerate_group.self_s"] > 0


def test_lattice_runs_eigensolves(tmp_path):
    m = traced_mix("lattice", {"pd-12-3-1.1.1.1"}, tmp_path)
    assert m["linalg.sym_eigs.calls"] > 0
    assert m["decomposition.masks"] == 16
    assert m["decomposition.verify_decomposition.calls"] == 16
    assert m["decomposition.holds_ratio"] == 1.0
    assert m["subspaces.intersect.per_mask"] > 0
    assert m["complexes.link_of.calls"] == 0


def test_cli_counts_reports_and_inputs(tmp_path):
    ops = {"analyze-coxeter a3 --thickness 4", "analyze-complex octahedron"}
    m = traced_mix("cli", ops, tmp_path)
    assert m["criterion.vanishing_report.calls"] == 1
    assert m["complexes.link_of.calls"] > 0
    assert m["complexes.link_of.repeat_ratio"] > 1  # validation and cosine both take links
    assert m["reporting.bytes_out"] > 0
    assert m["cli.input_bytes"] > 0


def test_every_per_layer_metric_is_reported(tmp_path):
    m = traced_mix("group-enum", {"A5"}, tmp_path)
    assert list(m) == [entry["name"] for entry in BENCHMARK["per_layer"]]
    units = {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}
    assert units == dict(spans.PER_LAYER)


def test_every_binding_is_wrapped_and_restored():
    before = bindings()
    with spans.Tracer():
        assert subspaces.sym_eigs is not before[("garland.linalg", "sym_eigs")]
        assert subspaces.sym_eigs is linalg.sym_eigs
        assert garland.sym_eigs is linalg.sym_eigs
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_bindings_are_restored_when_the_run_raises():
    before = bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("op failed")
    after = bindings()
    assert all(after[key] is before[key] for key in before)


def test_recursive_functions_get_one_span_per_outermost_call():
    with spans.Tracer() as tracer:
        tracer.recording = True
        reporting.render_json({"a": [1, {"b": [2, 3]}], "c": {"d": None}})
        reporting.to_jsonable({"a": (1, 2), "b": {"c": [3]}})
    calls, self_s = tracer.totals()
    assert calls["reporting.render_json"] == 1
    assert calls["reporting.to_jsonable"] == 1


def test_self_time_excludes_child_spans():
    with spans.Tracer() as tracer:
        tracer.recording = True
        u = subspaces.Subspace.full(3)
        subspaces.angle_cos(u, subspaces.Subspace.zero(3))
        subspaces.cosine_matrix_of_family(subspaces.SubspaceFamily(3, (u, u)))
    names = tracer.names
    parents = {names[fid] for fid, _, _, parent in tracer.spans if parent < 0}
    assert parents == {"subspaces.angle_cos", "subspaces.cosine_matrix_of_family"}
    calls, self_s = tracer.totals()
    total = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert sum(self_s.values()) == pytest.approx(total)
