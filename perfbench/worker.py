"""One workload run in a fresh interpreter; `run.py` starts it.

The last line of its standard output is a JSON object with the raw
measurements: import time, pass wall times, op latencies, failures, the
negative control, peak RSS and, when traced, the per-layer metrics.
`--import-only` just times the import of the program.

Set-up is timed in fresh interpreters started between operations, spread
evenly over the measuring window.  On a shared two-vCPU Xeon virtual
machine the speed of a core swung by up to 1.7x, for one to five seconds
at a time; one import takes under 0.1 s, so samples taken back to back
would all fall in one of those spells.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def import_program():
    """Import every hopfcyclic module from this checkout; return seconds."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import hopfcyclic.cli  # noqa: F401  (imports every layer)
    seconds = time.perf_counter() - t0
    import hopfcyclic
    if not os.path.abspath(hopfcyclic.__file__).startswith(src + os.sep):
        raise ImportError("hopfcyclic imported from %s, not from %s"
                          % (hopfcyclic.__file__, src))
    return seconds


class SetupSampler:
    """Times `count` fresh interpreters that only import the program, the
    i-th one at the first op boundary after `start + i * seconds / count`."""

    def __init__(self, start, seconds, count):
        self.due = [start + seconds * i / count for i in range(count)]
        self.samples = []
        self.spent = 0.0         # wall time spent sampling

    def _sample(self):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--import-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=60,
            check=True)
        self.samples.append(json.loads(proc.stdout)["import_s"])
        self.spent += time.perf_counter() - t0

    def poll(self):
        n = len(self.samples)
        if n < len(self.due) and time.perf_counter() >= self.due[n]:
            self._sample()

    def finish(self):
        while len(self.samples) < len(self.due):
            self._sample()
        return self.samples


def run_ops(ops, between=None):
    """Run ops in order, one at a time, calling `between()` after each op,
    outside its timing.

    Returns (latencies, failures); a failure is an uncaught exception, an
    output the oracle rejects, or an oracle that cannot read the output.
    """
    ctx = {}
    latencies, failures = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            value = op.run()
            why = None
        except Exception as exc:
            why = "%s: %s" % (type(exc).__name__, exc)
        latencies.append(time.perf_counter() - t0)
        if why is None:
            try:
                why = op.judge(value, op.want, ctx)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                why = "unreadable output: %s: %s" % (type(exc).__name__, exc)
        if why is not None:
            failures.append({"op": op.name, "why": why[:300]})
        if between is not None:
            between()
    return latencies, failures


def negative_control(workload, seed):
    """Every op of a tiny pass, judged against a deliberately wrong expected
    value, must count as failed.  Returns the names of ops that passed."""
    import workloads
    ops = workloads.make_pass(workload, seed, 0, "tiny")
    for op in ops:
        op.want = workloads.wrong(op.want)
    _, failures = run_ops(ops)
    failed = {f["op"] for f in failures}
    return [op.name for op in ops if op.name not in failed]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-samples", type=int, default=0,
                    help="fresh interpreters to time the import in")
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args(argv)
    import_s = import_program()
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0
    sys.path.insert(0, HERE)
    import workloads
    out = {"import_s": import_s, "pass_s": [], "op_s": [], "failures": []}

    # The set-up samples share the measuring window with the passes; a
    # pass time leaves out the time spent taking them.
    t_start = time.perf_counter()
    sampler = SetupSampler(t_start, args.seconds,
                           0 if args.trace else args.setup_samples)

    def one_pass(k, run=lambda ops: run_ops(ops, sampler.poll)):
        ops = workloads.make_pass(args.workload, args.seed, k, args.scale)
        spent = sampler.spent
        t0 = time.perf_counter()
        lat, fails = run(ops)
        out["pass_s"].append(time.perf_counter() - t0
                             - (sampler.spent - spent))
        out["op_s"] += lat
        out["failures"] += fails

    if not args.trace:
        # Whole passes only, so every run sees the same op mix; start
        # another pass only if it is expected to end within the budget.
        k = 0
        while True:
            one_pass(k)
            k += 1
            left = args.seconds - (time.perf_counter() - t_start)
            if left < statistics.median(out["pass_s"]):
                break
        out["setup_s"] = sampler.finish()
    else:
        from tracer import Tracer
        from layers import absent, per_layer
        # the same inputs, untraced and then traced; fresh objects each time
        one_pass(0)
        tracer = Tracer()
        tracer.install()
        try:
            one_pass(0, lambda ops: tracer.call("perfbench", run_ops, ops))
        finally:
            tracer.uninstall()
        out["layers"] = per_layer(tracer, out["pass_s"][0])
        out["absent"] = absent(tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-%d.jsonl"
                            % (args.workload, args.seed))
        tracer.write(path)
        out["span_file"] = os.path.relpath(path, ROOT)
    out["negative_control_passed"] = negative_control(args.workload,
                                                      args.seed)
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
