"""The hopfcyclic benchmark.

    python3 perfbench/run.py --workload build_deep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; nothing needs installing.  One
client, one process, one thread: a closed loop that starts each operation
when the previous one has finished.  Each run starts the workload in its
own fresh interpreter (`worker.py`), so peak RSS and the program's object
caches cannot leak from one workload or run into another.

With `--trace 0` the run measures for about `--seconds` seconds, in whole
passes over the workload's op list, and prints the end-to-end metrics:

- setup_s: median time to import every hopfcyclic module (nothing else
  happens before the first op), over 25 fresh interpreters started
  between ops and spread evenly over the run;
- run_s: median wall time of one pass, i.e. time to a certified result,
  not counting the set-up samples taken during it;
- op_p50_s: median op latency;
- peak_rss_mb: peak resident set of the workload's interpreter, read from
  getrusage(RUSAGE_SELF).ru_maxrss (KiB on Linux).

It also prints op_tail_s (the highest latency percentile with at least ten
ops beyond it, with that percentile and the sample count, where a run has
enough ops) and failed_ops (failed over attempted) as information lines;
the JSON result carries the latter as `failed` and `attempted`.

With `--trace 1` the run makes one untraced and one traced pass over the
same inputs and prints the per-layer metrics of `layers.py`; the spans go
to perfbench/out/.  The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 25
WORKER_TIMEOUT_S = 170
SHOW_FAILURES = 10


def _worker(args, timeout):
    """Run worker.py with args; return its JSON result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited with %d:\n%s"
                           % (" ".join(args), proc.returncode,
                              proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine():
    """CPU model, CPUs usable, Python version and how RSS is read."""
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return ("%s, nproc %d, Python %s, RSS from getrusage ru_maxrss of the "
            "worker process" % (model, len(os.sched_getaffinity(0)),
                                platform.python_version()))


def tail(latencies):
    """(percentile, value) of the highest latency percentile that has at
    least ten samples beyond it, or None when there are too few."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    rank = n - 10            # samples at or below the reported one
    return 100.0 * rank / n, ordered[rank - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: lowest degrees, for the smoke test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hopfcyclic",
                                       "__init__.py")):
        print("error: no hopfcyclic source tree under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    wargs = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", args.scale,
             "--setup-samples", str(SETUP_SAMPLES)]
    try:
        res = _worker(wargs, WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    attempted = len(res["op_s"])
    failed = len(res["failures"])
    print("machine: " + machine())
    for f in res["failures"][:SHOW_FAILURES]:
        print("FAILED op %s: %s" % (f["op"], f["why"]))
    if failed > SHOW_FAILURES:
        print("... and %d more failed ops" % (failed - SHOW_FAILURES))
    control_ok = not res["negative_control_passed"]
    if not control_ok:
        print("negative control: wrong expected values were accepted by %s"
              % ", ".join(res["negative_control_passed"]))
    print("workload %s seed %d: %d passes, %d ops, %d failed"
          % (args.workload, args.seed, len(res["pass_s"]), attempted, failed))
    print("failed_ops %.4f ratio (%d/%d)" % (failed / attempted, failed,
                                             attempted))
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _ in METRICS}
        for name, unit, _ in METRICS:
            print("%-40s %.6g %s" % (name, res["layers"][name], unit))
        if res["absent"]:
            print("absent (metrics read 0): %s" % ", ".join(res["absent"]))
        wall = res["layers"]["trace.wall_s"]
        print("shares of trace.wall_s = %.4f s: %s" % (wall, ", ".join(
            "%s %.3f" % (name[6:], res["layers"][name])
            for name, _, _ in METRICS if name.startswith("share."))))
        print("spans written to %s" % res["span_file"])
    else:
        t = tail(res["op_s"])
        metrics = {
            "setup_s": {"value": statistics.median(res["setup_s"]),
                        "unit": "s"},
            "run_s": {"value": statistics.median(res["pass_s"]), "unit": "s"},
            "op_p50_s": {"value": statistics.median(res["op_s"]),
                         "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kib"] / 1024.0,
                            "unit": "MB"},
        }
        print("pass times (s): " + " ".join("%.3f" % v
                                            for v in res["pass_s"]))
        print("set-up samples (s): " + " ".join("%.4f" % v
                                               for v in res["setup_s"]))
        for name, m in metrics.items():
            print("%-12s %.6g %s" % (name, m["value"], m["unit"]))
        if t is None:
            print("op_tail_s    n/a: %d ops, a tail needs at least 11"
                  % attempted)
        else:
            print("op_tail_s    %.6g s (p%.1f of %d ops)"
                  % (t[1], t[0], attempted))
    print(json.dumps({"correct": failed == 0 and control_ok,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
