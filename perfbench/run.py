#!/usr/bin/env python3
"""gonb benchmark: runs one workload through ``gonb.cli.main`` in-process,
checks every output, and prints the metrics named in BENCHMARK.json.

    python3 perfbench/run.py --workload orth-square --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check        # corrupted references must fail
    python3 perfbench/run.py --record-reference  # rewrite perfbench/reference.json

The program is imported from ``src/`` of the checkout this file sits in, so a
run needs no install. Closed loop, one process, one client: the workload's
CLI steps run back to back until ``--seconds`` have passed (at least once).
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced iterations alternate and it carries the
per-layer metrics. The line before it is a JSON report with quartiles,
sample counts, failed checks and run metadata.
"""

import os

# BLAS threads stay at 1 unless set: the work is single-threaded Python, and a
# second BLAS thread only adds run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GONB_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3

sys.path.insert(0, str(SRC))
try:
    import gonb  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import gonb from {SRC}: {exc}")
if Path(gonb.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: gonb was imported from {gonb.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gonb.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Checks  # noqa: E402

# a fresh interpreter imports the CLI and loads the workload's inputs
SETUP_CODE = """
import sys
from gonb import cli, io
for loader, path in zip(sys.argv[1::2], sys.argv[2::2]):
    getattr(io, loader)(path)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds(wl, book: Checks) -> list[float]:
    argv = [sys.executable, "-c", SETUP_CODE]
    for loader, path in wl.loads():
        argv += [loader, str(path)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        times.append(perf_counter() - t0)
        book.add("set-up exits 0", proc.returncode == 0, proc.stderr[-500:])
    return times


def run_steps(wl, book: Checks, cli_main):
    """Run the workload's CLI steps once; their wall time, or None on failure."""
    wl.clear_outputs()
    steps = wl.steps()
    try:
        t0 = perf_counter()
        codes = [cli_main(argv) for argv in steps]
        wall = perf_counter() - t0
    except Exception:  # a crash is a failed check; the run goes on
        book.add("no exception", False, traceback.format_exc(limit=3))
        return None
    for argv, code in zip(steps, codes):
        book.add(f"{argv[0]} exits 0", code == 0, f"exit {code}")
    return None if any(codes) else wall


def check_outputs(wl, book: Checks, reference) -> None:
    try:
        wl.check(book, reference)
    except Exception:
        book.add("outputs readable", False, traceback.format_exc(limit=3))


def iterate(wl, book: Checks, reference):
    wall = run_steps(wl, book, gonb.cli.main)
    if wall is not None:
        check_outputs(wl, book, reference)
    return wall


def quartiles(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values), "samples": values}


def metadata() -> dict:
    def git_commit():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in
                ("GONB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS")},
    }


def derived_metrics(prof: dict, out_bytes: int) -> dict:
    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "gabor.pairs": prof["pairs"],
        "gabor.diffs": prof["diffs"],
        "gabor.dedup_ratio": ratio(prof["diffs"], prof["pairs"]),
        "gabor.stft.calls": prof["stft_calls"],
        "gabor.stft.nonzero": prof["stft_nonzero"],
        "gabor.nonzero_ratio": ratio(prof["stft_nonzero"], prof["stft_calls"]),
        "gabor.oracle.confirmed": prof["confirmed"],
        "gabor.oracle.abstained": prof["abstained"],
        "gabor.oracle.rejected": prof["rejected"],
        "gabor.cert.scan_points": prof["scan_points"],
        "share.distinct_shifts": ratio(prof["shifts"], prof["diffs"]),
        "share.empty": ratio(prof["empty"], prof["diffs"]),
        "share.oracle_confirmed": ratio(prof["confirmed"], prof["reported"]),
        "cli.out_bytes": out_bytes,
    }


def run_untraced(wl, book, reference, seconds) -> tuple[dict, dict]:
    setup = setup_seconds(wl, book)
    walls = []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        wall = iterate(wl, book, reference)
        if wall is not None:
            walls.append(wall)
        elif perf_counter() - start >= seconds:
            break
    if not walls:
        sys.exit("perfbench: no iteration completed")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
               "peak_rss_mb": rss_mb}
    detail = {"wall_s": quartiles(walls), "setup_s": quartiles(setup)}
    return metrics, detail


def run_traced(wl, book, reference, seconds) -> tuple[dict, dict]:
    plain, traced, layers = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        wall = iterate(wl, book, reference)
        tracer = tracing.Tracer()
        with tracing.installed(tracer) as traced_main:
            twall = run_steps(wl, book, traced_main)
        if twall is not None:
            check_outputs(wl, book, reference)
        if wall is not None and twall is not None:
            plain.append(wall)
            traced.append(twall)
            layers.append(tracer.layer_metrics())
            kept = tracer
        elif perf_counter() - start >= seconds:
            break
    if not traced:
        sys.exit("perfbench: no traced iteration completed")
    kept.dump(wl.file("spans.csv"))
    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    metrics.update(derived_metrics(wl.profile(book), wl.out_bytes()))
    metrics.update(tracing.import_seconds(child_env(), ROOT, IMPORTTIME_REPEATS))
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
    detail = {"wall_s": quartiles(plain), "traced_wall_s": quartiles(traced)}
    return metrics, detail


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def fresh_workload(name: str, seed: int):
    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return workloads.WORKLOADS[name](work, seed)


def benchmark(args) -> int:
    spec = declared()
    wl = fresh_workload(args.workload, args.seed)
    reference = workloads.load_reference()[wl.name] if args.seed == 0 else None
    book = Checks()
    if args.trace:
        metrics, detail = run_traced(wl, book, reference, args.seconds)
        names = spec["per_layer"]
    else:
        metrics, detail = run_untraced(wl, book, reference, args.seconds)
        names = spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: metrics not measured: {missing}")
    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "inputs": wl.params, "fail_rate": len(book.failures) / book.attempted,
        "attempted": book.attempted, "failed": len(book.failures),
        "failures": book.failures[:20], **detail, "metadata": metadata(),
    }
    (wl.file("report.json")).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": not book.failures,
        "attempted": book.attempted,
        "failed": len(book.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }))
    return 0


def run_once(name: str):
    """Seed-0 outputs of one untraced iteration, plus its checks."""
    wl = fresh_workload(name, 0)
    book = Checks()
    iterate(wl, book, None)
    return wl, book


def record_reference() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        wl, book = run_once(name)
        if book.failures:
            sys.exit(f"perfbench: {name} failed its checks: {book.failures}")
        reference[name] = wl.fingerprint()
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


def corruptions(ref, path=""):
    """(path, copy of ref with one leaf changed beyond its tolerance)."""
    if isinstance(ref, dict):
        for key, value in ref.items():
            for sub, bad in corruptions(value, f"{path}.{key}"):
                out = dict(ref)
                out[key] = bad
                yield sub, out
    elif isinstance(ref, list):
        yield f"{path} (length)", ref + ref[-1:] if ref else [0.5]
        if ref:
            bad = copy.deepcopy(ref)
            cell, i = bad, len(bad) // 2
            while isinstance(cell[i], list):
                cell, i = cell[i], len(cell[i]) // 2
            cell[i] = _corrupt_scalar(cell[i])
            yield f"{path}[mid]", bad
    else:
        yield path, _corrupt_scalar(ref)


def _corrupt_scalar(x):
    if isinstance(x, bool) or x is None:
        return not x
    if isinstance(x, int):
        return x + 1
    if isinstance(x, float):
        return x + 1e-6 * max(1.0, abs(x))
    return str(x) + "?"


def self_check() -> int:
    """Each workload's seed-0 outputs pass against the recorded reference and
    fail against every single-leaf corruption of it."""
    reference = workloads.load_reference()
    missed = []
    total = 0
    for name in workloads.WORKLOADS:
        wl, book = run_once(name)
        wl.check(book, reference[name])
        print(f"{name}: {book.attempted} checks, {len(book.failures)} failed",
              file=sys.stderr)
        if book.failures:
            missed.append(f"{name}: true reference fails: {book.failures[:3]}")
        for path, bad in corruptions(reference[name]):
            total += 1
            trial = Checks()
            wl.check(trial, bad)
            if not trial.failures:
                missed.append(f"{name}{path}: corruption not detected")
    print(json.dumps({"corruptions": total, "undetected": missed}))
    return 1 if missed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.record_reference:
        return record_reference()
    if not args.workload:
        p.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
