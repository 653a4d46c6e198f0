"""One workload in one fresh single-threaded interpreter.

Started by run.py, never imported by it.  Sets up (imports garland from the
checkout's src/, generates the inputs from the seed, runs one warm-up op),
then runs a fixed number of passes over the inputs in a closed loop: one
caller, each op waits for the previous one.  Oracle checks between ops and a
garbage collection before each pass are outside the timed spans.  A workload's
known-defect inputs are run and checked once at the end, outside the mix.
Prints one JSON line.

    python3 perfbench/worker.py --workload lattice --seed 1 --seconds 20 --mode measure
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import garland  # noqa: E402  (after the path insert)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_passes(workload, items, passes: int, tracer=None):
    """Closed loop over `passes` passes; returns (pass, label, seconds, failure)
    per op.

    An op that raises, or whose output its oracle rejects, is a failure; the
    loop goes on either way.
    """
    records = []
    for pass_no in range(passes):
        gc.collect()
        for item in items:
            if tracer is not None:
                tracer.recording = True
            start = perf_counter()
            try:
                out = workload.run(item)
            except Exception as exc:  # a failed op is counted, not fatal
                out, failure = None, f"raised {type(exc).__name__}: {exc}"
            else:
                failure = None
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.recording = False
            if failure is None:
                try:
                    failure = workload.check(item, out)
                except Exception as exc:  # an output the oracle cannot read is wrong
                    failure = f"oracle raised {type(exc).__name__}: {exc}"
            records.append((pass_no, item.label, elapsed, failure))
            del out
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--spans-out", default=None, help="where trace mode writes its spans")
    args = parser.parse_args()
    if not Path(garland.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"garland imported from {garland.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as workdir:
        items = workload.items(args.seed, Path(workdir))
        warmup = next(item for item in items if item.label == workload.warmup_label)
        run_passes(workload, [warmup], 1)
        ready = perf_counter()
        if args.mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0
        # the op count is fixed by --seconds and the workload's pass time at
        # the commit that defined the benchmark, so that every commit runs the
        # same ops and the percentiles are taken at the same rank
        passes = max(1, round(args.seconds / workload.nominal_pass_s))
        if args.mode == "measure":
            records = run_passes(workload, items, passes)
            result = {"ready": ready, "records": records}
        else:
            passes = max(1, passes // 2)
            plain = run_passes(workload, items, passes)
            with spans.Tracer() as tracer:
                traced = run_passes(workload, items, passes, tracer)
            overhead = sum(r[2] for r in plain) / sum(r[2] for r in traced)
            layers = tracer.layer_metrics(overhead)
            result = {"records": traced, "layers": layers}
            if args.spans_out:
                Path(args.spans_out).write_text(json.dumps(tracer.dump()))
    # known defects are checked once, after the timed passes and outside any
    # span, and reported apart from the timed ops
    probes = getattr(workload, "known_defect_items", list)()
    result["known_defects"] = [
        (label, failure) for _, label, _, failure in run_passes(workload, probes, 1)
    ]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["passes"] = passes
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


def environment() -> dict:
    import numpy

    try:
        import numba  # noqa: F401
    except ImportError:
        numba_importable = False
    else:
        numba_importable = True
    return {"numpy": numpy.__version__, "numba_importable": numba_importable}


if __name__ == "__main__":
    raise SystemExit(main())
