"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Checks, for every workload, that
- every metric of BENCHMARK.json prints by name with its unit, in the
  human-readable lines and in the JSON result, and no op fails;
- the layer self times plus the benchmark's own self time add up to the
  traced wall time;
- each layer named as a workload's main load has non-zero self time there.
It also checks how the tracer binds names and survives a deleted one,
and that the benchmark refuses to run without a source tree.
Exits with 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the layers each workload exists to load
MAIN_LOAD = {
    "build_deep": [
        "exactlin.permute_factors.self_s", "exactlin.tensor.self_s",
        "exactlin.matmul.self_s", "exactlin.linmap_init.self_s",
        "exactlin.descend.self_s", "cyclichom.build.self_s",
        "operadcyc.build.self_s", "algcore.balanced_tensor.self_s",
        "hopfalgebroid.tower.self_s"],
    "elim_homology": [
        "exactlin.rref.q.self_s", "exactlin.rref.fp.self_s",
        "exactlin.solve.self_s", "exactlin.kernel.self_s",
        "exactlin.invert.self_s", "exactlin.quotient_by.self_s",
        "cyclichom.homology.self_s", "cyclichom.hopf_galois.self_s"],
    "scenario_mix": [
        "scenario.parse.self_s", "scenario.run.self_s",
        "scenario.emit.self_s", "hopfalgebroid.check.self_s",
        "cyclichom.check.self_s", "operadcyc.check.self_s",
        "measuring.check.self_s", "lierinehart.self_s"],
}

failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what)


def run_bench(workload, trace, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    return proc


def check_output(workload, trace, declared):
    proc = run_bench(workload, trace)
    where = "%s --trace %d" % (workload, trace)
    expect(proc.returncode == 0, "%s exit code %d: %s"
           % (where, proc.returncode, proc.stderr[-500:]))
    if proc.returncode:
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           where + " result keys")
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] >= 1, where + " outputs not correct")
    expect(sorted(result["metrics"]) == sorted(declared),
           where + " metric names differ from BENCHMARK.json")
    for name, unit in declared.items():
        m = result["metrics"].get(name, {})
        expect(m.get("unit") == unit and isinstance(m.get("value"),
                                                    (int, float)),
               "%s metric %s value or unit" % (where, name))
        expect(any(ln.split()[:1] == [name] and ln.split()[-1] == unit
                   for ln in lines[:-1]),
               "%s prints no line for %s with unit %s" % (where, name, unit))
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_tracer_binding():
    """Names imported into other modules and dispatch tables are traced
    too; a deleted name is reported absent; uninstall restores all."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hopfcyclic.cli  # noqa: F401
    from hopfcyclic import cyclichom, exactlin, scenario
    from layers import per_layer
    from tracer import Tracer
    saved = exactlin.permute_factors
    originals = (exactlin.rref, cyclichom.rank,
                 exactlin.LinMap.__dict__["__matmul__"],
                 scenario._VALIDATORS["sayd_modules"])
    del exactlin.permute_factors
    try:
        tracer = Tracer()
        tracer.install()
        try:
            ident = exactlin.LinMap.identity(exactlin.Space(2), exactlin.QQ)
            tracer.call("perfbench", lambda: cyclichom.rank(ident @ ident))
            dispatch_traced = hasattr(scenario._VALIDATORS["sayd_modules"],
                                      "__wrapped__")
        finally:
            tracer.uninstall()
        out = per_layer(tracer, 0.0)
    finally:
        exactlin.permute_factors = saved
    names = [span[0] for span in tracer.spans]
    expect("exactlin.rank" in names and out["exactlin.rref.calls"] == 1
           and out["exactlin.matmul.calls"] == 1,
           "a name imported into cyclichom was not traced: %r" % names)
    expect(dispatch_traced, "scenario dispatch table not traced")
    expect(out["trace.absent_targets"] == 1
           and out["exactlin.permute_factors.calls"] == 0,
           "deleted name not reported absent")
    expect(originals == (exactlin.rref, cyclichom.rank,
                         exactlin.LinMap.__dict__["__matmul__"],
                         scenario._VALIDATORS["sayd_modules"]),
           "uninstall left a wrapper in place")


def check_refuses_without_source():
    """In a directory with only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero and prints no result."""
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench("scenario_mix", 0, root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "benchmark ran without a source tree")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS),
           "workload names differ from BENCHMARK.json")
    for workload in WORKLOADS:
        check_output(workload, 0, e2e)
        values = check_output(workload, 1, layer)
        if values is None:
            continue
        total = sum(values["%s.self_s" % name] for name in LAYERS) \
            + values["perfbench.self_s"]
        wall = values["trace.wall_s"]
        expect(abs(total - wall) <= 1e-6 * max(1.0, wall),
               "%s: self times add up to %.9f, wall %.9f"
               % (workload, total, wall))
        for name in MAIN_LOAD[workload]:
            expect(values[name] > 0, "%s: %s is zero" % (workload, name))
    check_tracer_binding()
    check_refuses_without_source()
    print("smoke: %s" % ("FAILED (%d)" % len(failures) if failures
                         else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
