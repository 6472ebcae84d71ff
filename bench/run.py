"""fuzzyqm benchmark: one client drives the public API in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1] [--runs K] [--save FILE]

With ``--workload`` one workload runs in this process: an untimed warm-up
operation, then operations back to back for ``--seconds`` of wall time, each
output checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps the program's layers and reports
the per-layer metrics instead.  Without ``--workload`` every workload runs,
each in its own process, ``--runs`` times with consecutive seeds, and a table
of every metric with its unit is printed (``--save`` also writes it as JSON).

numpy's BLAS keeps its default thread count; the environment line records it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the benchmark leaves nothing behind in the checkout

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
WORKLOADS = ("deuteron-chain", "operator-checks", "oscillator-spectra")
DEFAULT_SECONDS = 30  # run_seconds in BENCHMARK.json
# Set-up is repeated in fresh processes until there are this many samples or
# they add up to the budget, which bounds the time a run spends on set-up.
SETUP_SAMPLES, SETUP_BUDGET_S = 3, 8.0
CHILD_TIMEOUT_S = 170


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 5 - len(self.problems))])


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return failed / attempted


def timed_ops(op, seconds: float, wall=time.perf_counter, cpu=time.process_time) -> list[tuple[float, float]]:
    """Closed loop: run ``op`` back to back within ``seconds`` of wall time, at least once.

    A further operation starts only if one more of median length still fits
    in the window, so a run never measures much longer than ``seconds``
    unless a single operation does.  Returns one (wall seconds, process CPU
    seconds) pair per operation.
    """
    samples: list[tuple[float, float]] = []
    start = wall()
    while not samples or wall() - start + statistics.median(w for w, _ in samples) <= seconds:
        w0, c0 = wall(), cpu()
        op()
        samples.append((wall() - w0, cpu() - c0))
    return samples


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_op(workload) -> list[str]:
    """One operation; an exception from the program is a failed operation, not a crash."""
    try:
        return workload.run()
    except Exception as exc:  # noqa: BLE001 - every program error counts against failed_frac
        return [f"{type(exc).__name__}: {exc}"]


def blas_info() -> tuple[str, int | None]:
    """numpy's BLAS library and its current thread count (None when it cannot be asked)."""
    import ctypes
    import glob

    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError):
        name = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, None


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from .git directly; None outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int | None) -> dict[str, object]:
    import numpy as np

    blas, threads = blas_info()
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _load(name: str, seed: int, tmp: Path):
    """Import the program and build the workload; the caller's set-up clock is already running."""
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS as classes

    return classes[name](seed, tmp)


def _setup_probe(name: str, seed: int, tmp: Path) -> dict[str, object]:
    t0 = time.perf_counter()
    workload = _load(name, seed, tmp)
    problems = run_op(workload)
    return {"setup_s": time.perf_counter() - t0, "problems": problems}


def _probe_in_child(name: str, seed: int) -> dict[str, object]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(
        cmd,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _measure(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> tuple[Tally, dict, list[str]]:
    """Run one workload; returns the tally, {metric: (value, unit)} and information lines."""
    tally = Tally()
    t0 = time.perf_counter()
    workload = _load(name, seed, tmp)
    tally.record(run_op(workload))  # warm-up: fills caches and pays first-call costs
    setup = [time.perf_counter() - t0]

    def op():
        tally.record(run_op(workload))

    if trace:
        from tracing import PER_LAYER, Tracer, layer_metrics

        # untraced and traced operations alternate, so both sides see the same machine
        untraced, traced, per_op = [], [], []

        def pair():
            untraced.append(timed_ops(op, 0)[0][0])
            with Tracer() as tracer:
                traced.append(timed_ops(op, 0)[0][0])
            per_op.append(layer_metrics(tracer.spans, {**tracer.counts, **workload.layer_counts}))

        timed_ops(pair, seconds)
        values = {m: statistics.median(v[m] for v in per_op) for m, _ in PER_LAYER}
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics = {m: (values[m], unit) for m, unit in PER_LAYER}
        info = [f"traced {len(traced)} operations, alternating with {len(untraced)} untraced ones"]
    else:
        samples = timed_ops(op, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup) < SETUP_SAMPLES and sum(setup) < SETUP_BUDGET_S:
            probe = _probe_in_child(name, seed)
            setup.append(probe["setup_s"])
            tally.record(probe["problems"])
        metrics = {
            "op_s": (statistics.median(w for w, _ in samples), "s"),
            "cpu_s": (statistics.median(c for _, c in samples), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        info = [f"op_s and cpu_s: median of {len(samples)} operations; setup_s: median of {len(setup)} set-ups"]
    info.extend(line for line in [getattr(workload, "info", "")] if line)
    return tally, metrics, info


def _result_line(tally: Tally, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
        }
    )


def _with_tmp(fn):
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        return fn(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def run_workload(args) -> int:
    if args.setup_probe:
        print(json.dumps(_with_tmp(lambda tmp: _setup_probe(args.workload, args.seed, tmp))))
        return 0
    tally, metrics, info = _with_tmp(lambda tmp: _measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp))
    print("environment: " + json.dumps(environment(args.seed)))
    print(f"workload: {args.workload}")
    for line in info:
        print(f"info: {line}")
    for problem in tally.problems:
        print(f"failure: {problem}")
    for m, (v, unit) in metrics.items():
        print(f"{m}: {v:.6g} {unit}")
    print(f"failed_frac: {failed_frac(tally.failed, tally.attempted):.6g} ({tally.failed} of {tally.attempted} operations)")
    print(_result_line(tally, metrics))
    return 0


def _child_result(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    """Every workload in its own process, ``--runs`` seeds each; prints medians and quartiles."""
    first_seed = 0 if args.seed is None else args.seed
    summary: dict[str, object] = {}
    for workload in WORKLOADS:
        results = [_child_result(workload, first_seed + i, args.seconds, args.trace) for i in range(args.runs)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        metrics = {}
        for m, entry in results[0]["metrics"].items():
            values = [r["metrics"][m]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            metrics[m] = {"unit": entry["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
            print(f"{workload:<20} {m:<52} {med:>14.6g} {entry['unit']:<6} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.2%}")
        print(f"{workload:<20} {'failed_frac':<52} {failed_frac(failed, attempted):>14.6g} ({failed} of {attempted})")
        summary[workload] = {"attempted": attempted, "failed": failed, "metrics": metrics}
        sys.stdout.flush()
    doc = {
        "environment": environment(first_seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": args.runs,
        "seeds": [first_seed, first_seed + args.runs - 1],
        "workloads": summary,
    }
    if args.save:
        Path(args.save).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    correct = all(s["failed"] == 0 for s in summary.values())
    print(json.dumps({"correct": correct, "workloads": list(summary)}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all, each in its own process)")
    ap.add_argument("--seed", type=int, help="input seed (default 0)")
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS, help="wall seconds of timed operations")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    ap.add_argument("--runs", type=int, default=1, help="without --workload: runs per workload, consecutive seeds")
    ap.add_argument("--save", help="without --workload: write the summary JSON here")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "fuzzyqm" / "__init__.py").is_file():
        print(f"bench: no fuzzyqm sources under {SRC}", file=sys.stderr)
        return 2
    if args.runs < 1 or args.seconds < 0:
        ap.error("--runs must be at least 1 and --seconds nonnegative")
    if args.workload is None:
        return run_all(args)
    if args.seed is None:
        args.seed = 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
