"""Run one garland benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; garland is imported
from the checkout's src/.  With --trace 0 the run reports the end-to-end
metrics: it starts eight fresh interpreters that only set up, then one that
sets up and measures, and reports the median set-up time of the nine.  With
--trace 1 one interpreter times a few passes untraced and then the same passes
with every layer wrapped, and reports the per-layer metrics.  Every run writes
perfbench/out/<workload>-seed<seed>-trace<0|1>.json with an environment block;
a traced run also writes its spans next to it.  The last line of stdout is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_RUNS = 8
DEADLINE_S = 170
BLAS_THREADS = "1"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail_percentile(latencies) -> tuple[int, float]:
    """Highest whole percentile with at least 10 ops beyond it, nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    p = 100 * (n - 10) // n
    return p, ordered[math.ceil(p * n / 100) - 1]


def end_to_end(result: dict, setup_samples) -> tuple[dict, int]:
    """The end-to-end metrics of one measured run, and the tail percentile used.

    Throughput and median latency are medians over passes, so that a few
    seconds of interference from outside slow one pass, not the run.
    """
    records = result["records"]
    passes: dict[int, list[float]] = {}
    for pass_no, _, seconds, _ in records:
        passes.setdefault(pass_no, []).append(seconds)
    failed = sum(1 for *_, failure in records if failure)
    p, tail = tail_percentile([seconds for _, _, seconds, _ in records])
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (statistics.median(len(t) / sum(t) for t in passes.values()), "ops/s"),
        "op_p50_ms": (statistics.median(statistics.median(t) for t in passes.values()) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_ratio": ((len(records) - failed) / len(records), "1"),
    }
    return metrics, p


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = perf_counter() + DEADLINE_S
        self.env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS

    def worker(self, mode: str, *extra: str) -> dict:
        """Start one worker interpreter, wait for it, return its JSON line.

        `setup_s` is added for workers that report when they became ready:
        both clocks are the system-wide monotonic clock.
        """
        a = self.args
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
            "--seed", str(a.seed), "--seconds", str(a.seconds), "--mode", mode, *extra,
        ]
        start = perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - start),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker did not finish within {DEADLINE_S} s") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(
                f"{mode} worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if "ready" in result:
            result["setup_s"] = result["ready"] - start
        return result


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "garland" / "__init__.py").is_file():
        print(f"no garland sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(args)
    try:
        if args.trace:
            spans_path = stem.with_suffix(".spans.json")
            result = runner.worker("trace", "--spans-out", str(spans_path))
            metrics, extra = result["layers"], {"spans_file": spans_path.name}
        else:
            setups = [runner.worker("setup")["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
            result = runner.worker("measure")
            setups.append(result["setup_s"])
            metrics, p = end_to_end(result, setups)
            extra = {"op_tail_percentile": p, "setup_samples_s": setups}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    records = result["records"]
    failures = Counter((label, failure) for _, label, _, failure in records if failure)
    by_label: dict[str, list[float]] = {}
    for _, label, seconds, _ in records:
        by_label.setdefault(label, []).append(seconds)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            **result["environment"],
            "blas_thread_cap": int(BLAS_THREADS),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "git_commit": git_commit(),
            "seed": args.seed,
        },
        "passes": result["passes"],
        "ops": len(records),
        "failed": sum(failures.values()),
        "failures": [
            {"input": label, "reason": reason, "count": count}
            for (label, reason), count in sorted(failures.items())
        ],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "median_ms_per_input": {
            label: statistics.median(times) * 1e3 for label, times in sorted(by_label.items())
        },
        "known_defects": [
            {"input": label, "reason": failure} for label, failure in result["known_defects"]
        ],
        **extra,
    }
    results_path = stem.with_suffix(".json")
    results_path.write_text(json.dumps(report, indent=1) + "\n")

    print(
        f"{args.workload}: seed {args.seed}, {result['passes']} passes, "
        f"{len(records)} ops, {report['failed']} failed -> {results_path.relative_to(ROOT)}"
    )
    for item in report["failures"]:
        print(f"  failed {item['count']}x {item['input']}: {item['reason']}")
    for item in report["known_defects"]:
        if item["reason"]:
            print(f"  known defect, outside the timed mix: {item['input']}: {item['reason']}")
        else:
            print(f"  {item['input']} passes its oracle now: its defect is fixed, time it in the mix")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{extra['op_tail_percentile']} of {len(records)} ops)"
        elif name == "setup_s":
            note = f"  (median of {len(extra['setup_samples_s'])} fresh interpreters)"
        print(f"  {name:46s} {value:>14.6g} {unit}{note}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": len(records),
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
