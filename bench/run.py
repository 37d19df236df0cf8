"""charkit benchmark.

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Runs one workload (``solve``, ``decompose``, ``verify``, ``recall``, or
``all`` for each in turn) against the library in ``src/``.  A run repeats
the workload's seeded pass, each pass in a fresh interpreter
(``bench/worker.py``), until about ``--seconds`` of wall time have passed
and at least 100 operations have run.  The first pass is
checked (``bench/checks.py``); every other pass must reproduce its outputs
exactly.  ``bench/workloads.py`` says why each workload exists.  Further
interpreters that only set up bring the set-up samples to ``MIN_SETUPS``.

With ``--trace 0`` the metrics are the end-to-end ones below, and a line
before the result gives the raw run time and the per-operation latency
percentiles.  Set-up and run time are gated at a fixed host speed
(``bench/calibrate.py``): as measured they follow the shared host's speed,
which swings too much.  With
``--trace 1`` every other pass runs under ``bench/tracing.py`` and the
metrics are the per-layer counters and times, plus the tracing overhead.

stderr gets a readable table of every metric with its unit; stdout gets a
JSON line with the run's context and, last, the JSON result line.  A traced
run also writes the spans of its first traced pass to
``.bench_trace/<workload>-<seed>.json`` in Chrome trace-event format.  The exit
code is 0 when every output checked out, 1 when any operation failed, and 2
when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_OPS = 100            # operations per run: the 90th percentile has 10 beyond it
MIN_SETUPS = 9           # set-up samples per run, its median is reported
STOP_AFTER_S = 120.0     # wall time after which a run stops regardless
PASS_TIMEOUT_S = 150.0

# (name, unit); every workload reports all of them.
END_TO_END = (
    ("setup_s", "s"),          # spawn to a ready table at the reference
                               # host speed, median over interpreters
    ("run_ref", "ref"),        # the pass's operations in reference-kernel
                               # units, median over untraced passes
    ("peak_rss_mb", "MB"),     # peak RSS of a pass process, median
    ("success_rate", "ratio"), # operations that returned a checked output
)
# Printed on a line of their own and not gated: raw set-up and run time, and
# per-operation latency over all untraced passes.  Over ten seeds on a
# shared two-core host, the spread (interquartile range over median) of
# run_s was 0.09-0.27, against 0.01-0.06 for run_ref, and that of the
# percentiles 0.10-0.38.
TIMES = (("setup_wall_s", "s"), ("run_s", "s"), ("op_p50_ms", "ms"),
         ("op_p90_ms", "ms"))

# One thread per pass: the benchmark is a single closed-loop client, and a
# second BLAS thread would compete with the interpreter for two cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def worker_env():
    env = {k: v for k, v in os.environ.items() if k != "CHARKIT_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # Every pass compiles charkit from source, whatever the caller's
    # environment, and nothing is written under src/.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_pass(ops, cache_dir, traced, check):
    """Run one pass in a fresh interpreter and return its report.  With no
    operations the interpreter only sets up."""
    spec = {"ops": ops, "cache_dir": str(cache_dir), "trace": traced,
            "check": check, "spawned": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            env=worker_env(), cwd=ROOT, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass took longer than {PASS_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError(f"worker exited with {proc.returncode}: "
                         + " | ".join(tail))
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["traced"] = traced
    return report


def measure(workload, seed, seconds, trace, work_dir):
    """Run passes until the time budget is spent; return (ops, reference
    pass, counted passes, set-up report of every interpreter)."""
    ops = workloads.operations(workload, seed)
    reference = None
    if workload == "recall":
        # Prepared once, before the timed passes, by a checked solve pass.
        cache = work_dir / "recall-cache"
        reference = run_pass(ops, cache, traced=False, check=True)
    passes = []
    walls = []
    began = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        if workload != "recall":
            cache = work_dir / f"pass-{len(passes)}"
        started = time.monotonic()
        report = run_pass(ops, cache, traced, check=reference is None)
        walls.append(time.monotonic() - started)
        if workload != "recall":
            shutil.rmtree(cache, ignore_errors=True)
        reference = reference or report
        passes.append(report)
        spent = time.monotonic() - began
        done = (len(passes) * len(ops) >= MIN_OPS
                and (not trace or len(passes) >= 2)
                and spent + statistics.median(walls) / 2 > seconds)
        if done or spent > STOP_AFTER_S:
            break
    setups = [p["setup"] for p in passes]
    while len(setups) < MIN_SETUPS:
        # The same cache directory as the passes: prepared for recall, fresh
        # (so that the bootstrap characters are written) for the others.
        if workload != "recall":
            cache = work_dir / f"setup-{len(setups)}"
        report = run_pass([], cache, False, False)
        if workload != "recall":
            shutil.rmtree(cache, ignore_errors=True)
        setups.append(report["setup"])
    return ops, reference, passes, setups


def failures(reference, passes):
    """(attempted, failed, messages): an operation fails when it raised,
    when the reference output failed its check, or when its output differs
    from the reference output."""
    bad_ref = {int(i): r for i, r in reference["failures"].items()}
    bad_ref.update({int(i): r for i, r in reference["errors"].items()})
    attempted = failed = 0
    messages = {}
    for p in passes:
        errors = {int(i): r for i, r in p["errors"].items()}
        for i, d in enumerate(p["digests"]):
            attempted += 1
            reason = (errors.get(i) or bad_ref.get(i)
                      or (d != reference["digests"][i]
                          and "output differs from the checked pass"))
            if reason:
                failed += 1
                messages.setdefault(i, reason)
    return attempted, failed, messages


def end_to_end(passes, setups, attempted, failed):
    plain = [p for p in passes if not p["traced"]]
    return {
        "setup_s": statistics.median(
            s["total_s"] / s["kernel_s"] * calibrate.REFERENCE_KERNEL_S
            for s in setups),
        "run_ref": statistics.median(p["run_ref"] for p in plain),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        "success_rate": (attempted - failed) / attempted,
    }


def times(passes, setups):
    plain = [p for p in passes if not p["traced"]]
    samples = [x for p in plain for x in p["latencies"]]
    return {"setup_wall_s": statistics.median(s["total_s"] for s in setups),
            "run_s": statistics.median(p["run_s"] for p in plain),
            "op_p50_ms": 1000 * statistics.median(samples),
            "op_p90_ms": 1000 * statistics.quantiles(samples, n=10)[8],
            "samples": len(samples)}


def per_layer(passes):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    out = {}
    for name, unit in tracing.LAYER_METRICS:
        if name.startswith("setup."):
            field = name.split(".", 1)[1]
            out[name] = statistics.median(p["setup"][field] for p in passes)
        elif name == "trace_overhead":
            out[name] = (statistics.median(p["run_ref"] for p in traced)
                         / statistics.median(p["run_ref"] for p in plain))
        elif unit == "s":
            out[name] = statistics.median(p["layers"][name] for p in traced)
        else:
            values = {p["layers"][name] for p in traced}
            if len(values) > 1:
                print(f"warning: {name} differs between passes: "
                      f"{sorted(values)}", file=sys.stderr)
            value = traced[0]["layers"][name]
            out[name] = value if unit == "ratio" else int(value)
    return out


def write_spans(path, spans):
    """Chrome trace events (``chrome://tracing``, Perfetto) for one pass."""
    t0 = min((span[2] for span in spans), default=0.0)
    events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
               "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
               "args": {"id": span_id, "parent": parent}}
              for span_id, name, start, end, parent in spans]
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(args):
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"src_lines": src_lines(), "python": platform.python_version(),
            "numpy": numpy, "cpus": os.cpu_count(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "commit": commit()}


def run_workload(workload, seed, seconds, trace, work_dir):
    ops, reference, passes, setups = measure(workload, seed, seconds, trace,
                                             work_dir)
    attempted, failed, messages = failures(reference, passes)
    if trace:
        units = dict(tracing.LAYER_METRICS)
        values = per_layer(passes)
        spans = next(p["spans"] for p in passes if p["traced"])
        write_spans(ROOT / ".bench_trace" / f"{workload}-{seed}.json", spans)
    else:
        units = dict(END_TO_END)
        values = end_to_end(passes, setups, attempted, failed)
    lat = times(passes, setups)
    print(f"# {workload}: seed {seed}, {len(passes)} passes of {len(ops)} "
          f"operations, {len(setups)} set-ups, {lat['samples']} latency "
          f"samples, {failed}/{attempted} failed", file=sys.stderr)
    for i, reason in sorted(messages.items())[:10]:
        print(f"FAILED {ops[i]}: {reason}", file=sys.stderr)
    for name, value in values.items():
        print(f"{workload:10} {name:45} {value:>14.6g} {units[name]}",
              file=sys.stderr)
    if not trace:
        for name, unit in TIMES:
            print(f"{workload:10} {name:45} {lat[name]:>14.6g} {unit} "
                  f"(not gated)", file=sys.stderr)
        print(json.dumps({"times": {"workload": workload, **lat}}))
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "charkit").is_dir():
        print(f"error: no charkit sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        results = {w: run_workload(w, args.seed, args.seconds,
                                   bool(args.trace), work_dir / w)
                   for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps({"context": context(args)}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
