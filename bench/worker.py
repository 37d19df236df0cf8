"""One pass of a benchmark workload, in a fresh interpreter.

Reads a JSON spec on stdin and prints one JSON line on stdout:

    setup      phase times, without the calibration kernel's own time;
               ``total_s`` runs from the parent's spawn timestamp
               (CLOCK_MONOTONIC is shared by all processes on Linux) to a
               ready table; ``kernel_s`` is the kernel's median time
               meanwhile
    run_s      wall time of the operations, back to back, without the
               calibration kernel's own time
    run_ref    the same time in reference-kernel units (calibrate.py)
    latencies  per-operation wall times, in operation order, likewise
    digests    per-operation output fingerprints (checks.digest)
    errors     {index: message} for operations that raised
    failures   {index: reason} from checks.failures, when asked to check
    rss_mb     peak resident memory of the process, after the operations
    layers     per-layer counters and times, when traced (the kernel's
               time left out of them too)
    spans      [id, name, start, end, parent id] per span, when traced

Setup mirrors the CLI's table construction: import, corpus load, build_a,
then attaching the cache directory and flushing the bootstrap characters.
"""

import json
import os
import resource
import statistics
import sys
import time


def run_op(charkit, table, kind, args):
    # Look functions up on their modules at call time, so that wrappers
    # installed by the tracer are the ones called.
    if kind == "character":
        return table.character(args[0])
    if kind == "character_m2":
        return table.character_m2(args[0])
    if kind == "monomial_decompose":
        return charkit.tensor.monomial_decompose(args[0], table)
    if kind == "cg_decompose":
        return charkit.tensor.cg_decompose(args[0], args[1], table)
    if kind == "freudenthal":
        return charkit.oracle.freudenthal(args[0])
    if kind == "torus_check":
        return charkit.oracle.torus_check(args[0], table.character(args[0]),
                                          trials=20)
    raise ValueError(f"unknown operation {kind!r}")


def peak_rss_mb():
    """Peak resident memory of this process.  ``ru_maxrss`` is not used
    where VmHWM can be read: on Linux it keeps the peak of the parent
    that spawned the process, so a lean workload would read the runner's
    memory."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    spec = json.loads(sys.stdin.read())
    spawned = spec["spawned"]

    # The reference kernel runs through set-up as well, so that set-up can
    # be given at a fixed host speed; clock() leaves the kernel's time out.
    import calibrate
    setup_calibrator = calibrate.Calibrator()
    setup_calibrator.start()

    def clock():
        return time.monotonic() - setup_calibrator.spent_s

    import charkit
    t_import = clock()
    corpus = charkit.QuadraticCorpus.load_default()
    t_corpus = clock()
    _, operator, table = charkit.build_a(corpus)
    t_build = clock()
    table.cache_dir = spec["cache_dir"]
    os.makedirs(table.cache_dir, exist_ok=True)
    table.flush_disk()
    t_ready = clock()
    setup_calibrator.stop()
    setup = {
        "import_s": t_import - spawned,
        "corpus_s": t_corpus - t_import,
        "build_a_s": t_build - t_corpus,
        "cache_attach_s": t_ready - t_build,
        "total_s": t_ready - spawned,
        "kernel_s": statistics.median(setup_calibrator.kernels),
    }

    import checks
    import tracing

    ops = [[kind, *map(tuple, args)] for kind, *args in spec["ops"]]
    calibrator = calibrate.Calibrator()

    def work_clock():
        return time.perf_counter() - calibrator.spent_s

    tracer = tracing.Tracer(clock=work_clock) if spec["trace"] else None
    if tracer:
        tracer.install()
    outputs, latencies, errors = [], [], {}
    calibrator.start()
    try:
        for i, (kind, *args) in enumerate(ops):
            t0 = work_clock()
            try:
                out = run_op(charkit, table, kind, args)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = None
                errors[i] = f"{type(exc).__name__}: {exc}"
            latencies.append(work_clock() - t0)
            outputs.append(out)
    finally:
        calibrator.stop()
        if tracer:
            tracer.restore()
    run_s = calibrator.work_s()
    run_ref = calibrator.work_ref()
    rss_mb = peak_rss_mb()

    digests = [checks.digest(op[0], out) for op, out in zip(ops, outputs)]
    failures = {}
    if spec["check"]:
        failures = checks.failures(charkit, operator, ops, outputs)
    print(json.dumps({
        "setup": setup,
        "run_s": run_s,
        "run_ref": run_ref,
        "latencies": latencies,
        "digests": digests,
        "errors": errors,
        "failures": failures,
        "rss_mb": rss_mb,
        "layers": tracer.layer_values() if tracer else None,
        "spans": tracer.spans if tracer else None,
    }))


if __name__ == "__main__":
    main()
