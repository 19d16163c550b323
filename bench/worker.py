"""Benchmark worker: one fresh process that runs a workload's operations.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
It imports edcert, announces readiness with one JSON line, then reads its
plan (one JSON line on stdin) and runs whole passes over the operation list,
calling ``edcert.cli.main(argv)`` with output captured.  Results go back as
JSON lines on stdout, written after each pass so that no pipe write falls
inside a timed pass.  With ``--probe`` it exits right after the ready line;
run.py uses that to time set-up.

Each result carries the clock (``time.perf_counter``) at the start and end
of its operation.  Before the first operation of a pass and after every
operation, the worker also times a short fixed loop (``reference_loop``);
it reports these times with the pass, and run.py uses them to scale each
operation to a fixed speed of the machine.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

MIN_PASSES = 2  # every operation is timed at least twice, so per-operation medians exist
REFERENCE_ROUNDS = 4000
REFERENCE_S = 0.0112  # reference_loop() on the 2-core machine of bench/README.md at its fastest


def _send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def reference_loop() -> float:
    """Time a fixed pure-Python loop that shares no code with edcert.

    Composing permutations stored as tuples, it does the interpreter work of
    edcert's kernels on data that fits in the cache; its time against
    REFERENCE_S is the machine's speed at that moment."""
    p = tuple((i * 7 + 3) % 61 for i in range(61))
    q, seen = p, {}
    gc.disable()  # its time must not depend on what the heap holds
    try:
        t0 = time.perf_counter()
        for k in range(REFERENCE_ROUNDS):
            q = tuple(p[i] for i in q)
            seen[q] = k
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_pass(cli, ops: list[list[str]]) -> tuple[list[tuple[int, str, str, float, float]], list[float]]:
    """Run the operations once; returns each one's exit code, output, error
    output, start and end clock, and the times of the reference loops
    (``loops[i]`` ran just before operation ``i``, ``loops[i + 1]`` just
    after it)."""
    results, loops = [], [reference_loop()]
    clock = time.perf_counter
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:  # an exit is an exit code, as from the command line
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation, not the end of the run
                rc = -1
                err.write(traceback.format_exc())
        t1 = clock()
        results.append((rc, out.getvalue(), err.getvalue(), t0, t1))
        loops.append(reference_loop())
    return results, loops


def peak_rss_kb() -> int:
    """Peak resident memory of this process.  VmHWM is used where the kernel
    provides it, because ru_maxrss keeps the parent's peak across exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    src = os.path.realpath(os.environ["PYTHONPATH"].split(os.pathsep)[0])
    cli = importlib.import_module("edcert.cli")
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"edcert was imported from {cli.__file__}, not from {src}")
    _send({"ready": True})
    if "--probe" in sys.argv:
        return 0

    plan = json.loads(sys.stdin.readline())
    ops, seconds, trace = plan["ops"], plan["seconds"], plan["trace"]
    passes, pass_s = 0, 0.0
    tracer = None
    run_started = time.perf_counter()
    while True:
        traced = trace and passes == 1  # the traced run: plain, traced, plain
        if traced:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        pass_started = time.perf_counter()
        results, loops = run_pass(cli, ops)
        pass_s += time.perf_counter() - pass_started
        if traced:
            tracer.uninstall()
        for i, (rc, out, err, t0, t1) in enumerate(results):
            _send({"pass": passes, "i": i, "rc": rc, "out": out, "err": err, "t0": t0, "t1": t1})
        _send({"pass": passes, "loops": loops})
        passes += 1
        if trace and passes == 3:
            break
        elapsed = time.perf_counter() - run_started
        if not trace and passes >= MIN_PASSES and elapsed + pass_s / passes > seconds:
            break
    _send({"done": True, "passes": passes, "peak_rss_kb": peak_rss_kb(),
           "trace": tracer.metrics() if tracer is not None else None})
    return 0


if __name__ == "__main__":
    sys.exit(main())
