"""Span tracer that times garland's layers from outside the package.

`Tracer.install` replaces each traced public function at every garland module
that binds it: `from .linalg import sym_eigs` gives `subspaces`, `complexes`,
`criterion`, `decomposition` and `cli` bindings of their own, so patching only
`garland.linalg` would miss most calls.  `Tracer.restore` puts every original
binding back.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Functions wrapped per module.  Besides the ones with per-layer metrics, the
# library entry points the workloads and the CLI call are wrapped too, so
# their time is not counted as self time of whatever called them.
TRACED = {
    "linalg": ("sym_eigs", "orthonormalize", "classify_definiteness"),
    "subspaces": (
        "intersect", "angle_cos", "residual_complement",
        "cosine_matrix_of_family", "spherical_face_family",
    ),
    "decomposition": ("build_lattice", "h_tau", "verify_decomposition", "load_family"),
    "coxeter": (
        "enumerate_group", "build_coxeter_complex", "coxeter_complex_cosine_check",
        "coxeter_cosine", "classify_coxeter", "load_coxeter_matrix",
    ),
    "complexes": (
        "link_of", "validate_complex", "gallery_connected", "random_walk_second_eig",
        "graph_diameter", "thickness", "load_complex", "cosine_matrix_of_complex",
    ),
    "criterion": ("vanishing_report", "min_thickness"),
    "reporting": ("to_jsonable", "render_json", "render_text"),
    "cli": ("main",),
}

# (name, unit) of every per-layer metric, in report order.  A name ending in
# .calls or .self_s counts the spans of the traced function it names.
PER_LAYER = (
    ("linalg.sym_eigs.calls", "count"),
    ("linalg.sym_eigs.self_s", "s"),
    ("linalg.sym_eigs.dim_mean", "rows"),
    ("linalg.orthonormalize.calls", "count"),
    ("linalg.orthonormalize.self_s", "s"),
    ("subspaces.intersect.calls", "count"),
    ("subspaces.intersect.self_s", "s"),
    ("subspaces.intersect.per_mask", "calls/mask"),
    ("subspaces.angle_cos.self_s", "s"),
    ("subspaces.residual_complement.self_s", "s"),
    ("decomposition.build_lattice.self_s", "s"),
    ("decomposition.h_tau.self_s", "s"),
    ("decomposition.masks", "count"),
    ("decomposition.verify_decomposition.calls", "count"),
    ("decomposition.verify_decomposition.self_s", "s"),
    ("decomposition.holds_ratio", "1"),
    ("coxeter.enumerate_group.self_s", "s"),
    ("coxeter.enumerate_group.elements", "count"),
    ("coxeter.elements_per_s", "1/s"),
    ("coxeter.build_coxeter_complex.self_s", "s"),
    ("coxeter.coxeter_complex_cosine_check.self_s", "s"),
    ("complexes.link_of.calls", "count"),
    ("complexes.link_of.self_s", "s"),
    ("complexes.link_of.repeat_ratio", "1"),
    ("complexes.validate_complex.self_s", "s"),
    ("complexes.gallery_connected.calls", "count"),
    ("complexes.random_walk_second_eig.calls", "count"),
    ("complexes.random_walk_second_eig.self_s", "s"),
    ("complexes.graph_diameter.self_s", "s"),
    ("complexes.thickness.self_s", "s"),
    ("complexes.load_complex.self_s", "s"),
    ("complexes.cosine_matrix_of_complex.self_s", "s"),
    ("criterion.vanishing_report.calls", "count"),
    ("criterion.vanishing_report.self_s", "s"),
    ("criterion.min_thickness.self_s", "s"),
    ("reporting.to_jsonable.self_s", "s"),
    ("reporting.render_json.self_s", "s"),
    ("reporting.render_text.self_s", "s"),
    ("reporting.bytes_out", "B"),
    ("cli.main.self_s", "s"),
    ("cli.input_bytes", "B"),
    ("trace.overhead_ratio", "1"),
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _input_size(argv) -> int:
    argv = list(argv)
    if "--input" in argv[:-1]:
        path = argv[argv.index("--input") + 1]
        if os.path.isfile(path):
            return os.path.getsize(path)
    return 0


class Tracer:
    """Records one span per outermost call of each traced function while
    `recording` is set; each span is [function id, start, end, parent index]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.recording = False
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._open: set[int] = set()
        self._links: dict[int, object] = {}
        self._link_keys: set = set()
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        originals = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"garland.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    originals[id(fn)] = (fn, f"{layer}.{name}")
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "garland" and not modname.startswith("garland."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is None or hit[0] is not value:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(*hit)
                setattr(module, attr, wrappers[id(value)])
                self._patched.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a recursive call stays inside its outermost span
            if not self.recording or fid in self._open:
                return fn(*args, **kwargs)
            span = [fid, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._open.add(fid)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
                self._open.discard(fid)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    # Counters taken from the arguments and results of traced calls.

    def _count_linalg_sym_eigs(self, args, kwargs, result) -> None:
        self.counters["sym_eigs.dims"] += len(_arg(args, kwargs, 0, "matrix"))

    def _count_decomposition_build_lattice(self, args, kwargs, result) -> None:
        self.counters["masks"] += len(result.h_lower)

    def _count_decomposition_verify_decomposition(self, args, kwargs, result) -> None:
        self.counters["holds"] += bool(result.holds)

    def _count_coxeter_enumerate_group(self, args, kwargs, result) -> None:
        self.counters["elements"] += result.order

    def _count_complexes_link_of(self, args, kwargs, result) -> None:
        x = _arg(args, kwargs, 0, "x")
        self._links[id(x)] = x  # keeps ids unique while the keys are held
        self._link_keys.add((id(x), frozenset(_arg(args, kwargs, 1, "sigma"))))

    def _count_render(self, args, kwargs, result) -> None:
        self.counters["bytes_out"] += len(result.encode())

    _count_reporting_render_json = _count_reporting_render_text = _count_render

    def _count_cli_main(self, args, kwargs, result) -> None:
        self.counters["input_bytes"] += _input_size(_arg(args, kwargs, 0, "argv"))

    def totals(self) -> tuple[Counter, defaultdict]:
        """Calls and self time (span time minus child span time) per function."""
        child = [0.0] * len(self.spans)
        for fid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for idx, (fid, start, end, _) in enumerate(self.spans):
            calls[self.names[fid]] += 1
            self_s[self.names[fid]] += end - start - child[idx]
        return calls, self_s

    def layer_metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit), 0 where a layer did not run."""
        calls, self_s = self.totals()
        c = self.counters

        def ratio(a, b):
            return a / b if b else 0.0

        derived = {
            "linalg.sym_eigs.dim_mean": ratio(c["sym_eigs.dims"], calls["linalg.sym_eigs"]),
            "subspaces.intersect.per_mask": ratio(calls["subspaces.intersect"], c["masks"]),
            "decomposition.masks": c["masks"],
            "decomposition.holds_ratio": ratio(
                c["holds"], calls["decomposition.verify_decomposition"]
            ),
            "coxeter.enumerate_group.elements": c["elements"],
            "coxeter.elements_per_s": ratio(c["elements"], self_s["coxeter.enumerate_group"]),
            "complexes.link_of.repeat_ratio": ratio(
                calls["complexes.link_of"], len(self._link_keys)
            ),
            "reporting.bytes_out": c["bytes_out"],
            "cli.input_bytes": c["input_bytes"],
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name.endswith(".calls"):
                value = calls[name.removesuffix(".calls")]
            elif name.endswith(".self_s"):
                value = self_s[name.removesuffix(".self_s")]
            else:
                value = derived[name]
            out[name] = (value, unit)
        return out

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}
