"""Seeded inputs, operations and output oracles for the three workloads.

An operation (`Op`) builds every object it uses from plain input data, so
no tower or cache survives from one operation to the next: a command line
user pays tower construction on every run, and the benchmark does too.
The generator only produces plain data (integers, entry dicts, JSON text);
`hopfcyclic` sees nothing but those inputs.

Workloads, and the layer each one loads:

- ``build_deep``: large operator builds (free tensor lifts, `permute_factors`,
  `tensor`, `@`, `descend`) on pair algebroids and the C2 operad.
- ``elim_homology``: exact elimination (`rref`, `kernel`, `solve`, `invert`,
  `quotient_by`) on group algebroids, whose towers have no balancing
  relations, over Q and over a large prime field.
- ``scenario_mix``: many small JSON documents through the public
  `scenario` entry point, where fixed per-call costs dominate.

Seeds vary coefficient height (the rational base x^2 = a + b x, the
derivation scale, the integer a in Q[x]/(x^2 - a)), the signs of the
structure constants (a signed group basis) and the field (the prime p).
The order of the group basis stays fixed, unit first as in the presets:
it changes the elimination cost of C3 by up to 1.6x, which would make the
spread between runs follow the seed rather than the program; the signs,
which matter less, are spread evenly over each pass.  Every pass of a run
draws fresh inputs.  The fixed inputs are the exception: the pair_dual
coefficient builds and the C2 operad of build_deep have no parameter to
draw, and the bundled scenarios are checked against their committed golden
reports.  They repeat in every pass, but each op still builds its objects
afresh, so no cached tower is reused.

build_deep builds coefficients at degree 3, plain modules at degree 4 and
the operad at arity 3.  A pass then takes about 2 s, and four of its five
ops take 0.2 to 0.3 s, so the median op latency rests on some seventy
samples.  With the plain modules at degree 5 the median op is the single
operad build of each pass, three samples a run; with everything one size
up a pass takes about 24 s and a run holds one pass.
"""

import json
import os
import random
from itertools import product
from math import comb, gcd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("build_deep", "elim_homology", "scenario_mix")

# Sizes per scale.  "full" is what the benchmark measures; "tiny" keeps the
# same operations at the lowest degrees, for the smoke test and the
# negative control.
_SIZES = {
    "full": {"coeff_N": 3, "plain_N": 4, "arity": 3, "c2_top": 5,
             "c3_top": 4, "xi_top": 3, "pair_md": 3, "coeff_md": 2,
             "dual_md": 3, "group_md": 3, "yd_arity": 3},
    "tiny": {"coeff_N": 2, "plain_N": 2, "arity": 2, "c2_top": 2,
             "c3_top": 2, "xi_top": 2, "pair_md": 1, "coeff_md": 1,
             "dual_md": 1, "group_md": 1, "yd_arity": 2},
}


class Op:
    """One operation.

    `run()` computes a value; `judge(value, want, ctx)` returns None when
    the value meets the expected value `want`, else a reason.  `ctx` is a
    dict shared by the operations of one pass, for oracles that compare two
    operations (HH over Q against HH over F_p).
    """

    __slots__ = ("name", "run", "want", "judge")

    def __init__(self, name, run, want, judge):
        self.name = name
        self.run = run
        self.want = want
        self.judge = judge


def wrong(want):
    """A deliberately wrong expected value, for the negative control."""
    if isinstance(want, bytes):
        return want + b"\n"
    if isinstance(want, list):
        return [want[0] + 1] + want[1:]
    if isinstance(want, dict):
        if not want:
            return {0: [-1]}
        first = min(want)
        return {**want, first: wrong(want[first])}
    raise TypeError("no wrong value for %r" % (want,))


def _same(value, want, ctx):
    return None if value == want else "got %r, expected %r" % (value, want)


def _rng(seed, workload, k):
    return random.Random("%s:%s:%d" % (seed, workload, k))


def _pick_distinct(seed, tag, pool, k, count):
    """Items count*k .. count*k+count-1 of a seeded shuffle of pool, so the
    draws of different passes differ until the pool is used up."""
    order = list(pool)
    random.Random("%s:%s" % (seed, tag)).shuffle(order)
    return [order[(count * k + i) % len(order)] for i in range(count)]


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _prime_in(rng, lo, hi):
    while True:
        p = rng.randrange(lo, hi)
        if _is_prime(p):
            return p


# -- expected tables -------------------------------------------------------
# Homology dims in degrees 0..top-1 for each input class.
#  * pair algebroid of a separable two-dimensional base A (x^2 = a + b x with
#    nonzero discriminant, or Q[x]/(x^2 - a) with a != 0): the chain side is
#    Morita equivalent to A, so HH = (2, 0, ...) and HC = 2 in even degrees;
#    the cochain side has HC = 1 in even degrees.
#  * the dual numbers with their base SAYD: the same two HC tables.
#  * group algebras of C2 and C3 in characteristic 0 or p > 3 are
#    semisimple and behave like the point: HH = (1, 0, ...) and HC = 1 in
#    even degrees, on both sides, normalized or not.
#  * an abelian Lie-Rinehart pair of dimension d over k with zero anchor
#    has LR homology Lambda^n k^d, of dimension C(d, n).

def _even(top, v):
    return [v if n % 2 == 0 else 0 for n in range(top)]


def _hh0(top, v):
    return [v] + [0] * (top - 1)


# -- build_deep ------------------------------------------------------------

def _quadratic(field, a, b):
    """Q[x]/(x^2 - a - b x) on the basis (1, x), as AlgebraData."""
    from hopfcyclic.algcore import AlgebraData
    from hopfcyclic.exactlin import LinMap, Space
    f = field
    sp = Space(2, "A")
    entries = {(0, 0): f.one, (1, 1): f.one, (1, 2): f.one,
               (0, 3): f.of_int(a), (1, 3): f.of_int(b)}
    mul = LinMap(Space(4), sp, f, entries)
    return AlgebraData(sp, mul, (f.one, f.zero), f, "A")


def _module_op(name, make, hc_want):
    """Build a (co)cyclic module, certify it, and compute its HC."""
    def run():
        from hopfcyclic.cyclichom import (check_cyclic_module,
                                          cyclic_homology_char0)
        cm = make()
        rep = check_cyclic_module(cm)
        return {"certified": rep.ok and bool(rep.results),
                "HC": cyclic_homology_char0(cm).dims}

    def judge(value, want, ctx):
        if not value["certified"]:
            return "check_cyclic_module failed or ran no checks"
        return _same(value["HC"], want, ctx)
    return Op(name, run, hc_want, judge)


def _operad_op(arity):
    def run():
        from hopfcyclic.exactlin import QQ
        from hopfcyclic.hopfalgebroid import (
            group_hopf_algebroid, scalar_sayd, scalar_yd_algebra)
        from hopfcyclic.operadcyc import (
            build_yd_comp_module, build_yd_operad, check_comp_module,
            check_operad)
        h = group_hopf_algebroid(2, QQ)
        z = scalar_yd_algebra(h)
        od = build_yd_operad(h, z, arity)
        op_rep = check_operad(od)
        cm_rep = check_comp_module(
            build_yd_comp_module(h, scalar_sayd(h), z, od, arity))
        return [op_rep.ok and bool(op_rep.results),
                cm_rep.ok and bool(cm_rep.results)]
    return Op("yd_operad", run, [True, True], _same)


def _build_deep(seed, k, size):
    from hopfcyclic import cyclichom as ch
    from hopfcyclic.exactlin import QQ
    from hopfcyclic.hopfalgebroid import (
        base_sayd_for_pair, dual_numbers, pair_hopf_algebroid)
    cN, pN = size["coeff_N"], size["plain_N"]
    a1, a2 = _pick_distinct(seed, "build_deep.a",
                            [a for a in range(-9, 10) if a], k, 2)

    def coeff(builder):
        A = dual_numbers(QQ)
        h = pair_hopf_algebroid(A, "pair(k[e])")
        return builder(h, base_sayd_for_pair(h, A), cN)

    def plain(builder, a):
        return builder(pair_hopf_algebroid(_quadratic(QQ, a, 0)), pN)

    return [
        _module_op("coeff_cyclic",
                   lambda: coeff(ch.build_cyclic_with_coeffs), _even(cN, 2)),
        _module_op("coeff_cocyclic",
                   lambda: coeff(ch.build_cocyclic_with_coeffs),
                   _even(cN, 1)),
        _module_op("plain_cyclic", lambda: plain(ch.build_cyclic_CU, a1),
                   _even(pN, 2)),
        _module_op("plain_cocyclic", lambda: plain(ch.build_cocyclic_CU, a2),
                   _even(pN, 1)),
        _operad_op(size["arity"]),
    ]


# -- elim_homology ---------------------------------------------------------

def _group_data(n, signs):
    """Structure constants of k[C_n] on the basis b_i = signs[i] g^i.

    Plain data (entry dicts with integer values), so the same input can be
    built over any field.  The keys follow HopfAlgebroidData.
    """
    mul = {((i + j) % n, i * n + j): signs[i] * signs[j] * signs[(i + j) % n]
           for i in range(n) for j in range(n)}
    unit = [signs[0]] + [0] * (n - 1)
    return {"n": n, "mul": mul, "unit": unit,
            "S": {((-i) % n, i): signs[i] * signs[(-i) % n]
                  for i in range(n)},
            "delta": {(i * n + i, i): signs[i] for i in range(n)},
            "eps": {(0, i): signs[i] for i in range(n)}}


def _group_algebroid(data, field):
    """HopfAlgebroidData over `field` from _group_data output."""
    from hopfcyclic.algcore import AlgebraData
    from hopfcyclic.exactlin import LinMap, Space
    from hopfcyclic.hopfalgebroid import HopfAlgebroidData, scalar_algebra
    f = field
    n = data["n"]

    def conv(entries):
        return {key: f.of_int(v) for key, v in entries.items()}
    sp = Space(n, "k[C%d]" % n)
    U = AlgebraData(sp, LinMap(Space(n * n), sp, f, conv(data["mul"])),
                    tuple(f.of_int(v) for v in data["unit"]), f, sp.label)
    A = scalar_algebra(f)
    s = LinMap.from_columns(A.space, sp, f, [U.unit])
    return HopfAlgebroidData(
        U, A, s, s, LinMap(sp, Space(n * n), f, conv(data["delta"])),
        LinMap(sp, A.space, f, conv(data["eps"])),
        LinMap(sp, sp, f, conv(data["S"])), label=sp.label)


def _elim_homology(seed, k, size):
    from hopfcyclic import cyclichom as ch
    from hopfcyclic.exactlin import QQ, FieldSpec
    fp = FieldSpec(_prime_in(_rng(seed, "elim_homology", k), 10 ** 4, 2 ** 16))
    tops = {2: size["c2_top"] + 1, 3: size["c3_top"] + 1}
    # The sign pattern of the basis changes the elimination cost, so each
    # pass spreads all patterns over its ops: op j on C_n in pass k takes
    # pattern j + k of a seeded order.  A pass then uses each of the eight
    # C3 patterns once, and no op sees a pattern twice within 2^n passes.
    patterns = {}
    for n in tops:
        order = list(product((1, -1), repeat=n))
        random.Random("%s:elim.C%d" % (seed, n)).shuffle(order)
        patterns[n] = order[k % len(order):] + order[:k % len(order)]

    def signed(n, j):
        return _group_data(n, patterns[n][j % len(patterns[n])])

    def module(data, field, variant, N):
        build = (ch.build_cyclic_CU if variant == "cyclic"
                 else ch.build_cocyclic_CU)
        return build(_group_algebroid(data, field), N)

    def hh_op(n, data, N, field, variant, normalized=False):
        tag = variant + (".norm" if normalized else "")
        over_q = field.char == 0

        def run():
            cm = module(data, field, variant, N)
            return ch.hochschild_homology(cm, normalized=normalized).dims

        def judge(value, want, ctx):
            if over_q:
                ctx[(n, tag)] = value
                return _same(value, want, ctx)
            # HH over F_p must agree with HH over Q from the same pass
            return (_same(value, ctx.get((n, tag), want), ctx)
                    or _same(value, want, ctx))
        return Op("C%d.HH.%s.%s" % (n, tag, "q" if over_q else "fp"), run,
                  _hh0(N, 1), judge)

    def hc_op(n, data, N, variant):
        def run():
            return ch.cyclic_homology_char0(
                module(data, QQ, variant, N)).dims
        return Op("C%d.HC.%s.q" % (n, variant), run, _even(N, 1), _same)

    ops = []
    for n, N in tops.items():
        ops += [hh_op(n, signed(n, 0), N, QQ, "cyclic"),
                hh_op(n, signed(n, 1), N, QQ, "cocyclic"),
                hh_op(n, signed(n, 2), N, QQ, "cyclic", normalized=True),
                hc_op(n, signed(n, 3), N, "cyclic"),
                hc_op(n, signed(n, 4), N, "cocyclic")]
    for n, N in tops.items():
        ops += [hh_op(n, signed(n, 5), N, fp, "cyclic"),
                hh_op(n, signed(n, 6), N, fp, "cocyclic")]
    xi_N = size["xi_top"] + 1
    c3 = signed(3, 7)

    def xi_run():
        h = _group_algebroid(c3, QQ)
        xs = ch.hopf_galois_chain_map(h, xi_N)
        return ch.transported_homology(ch.build_cyclic_CU(h, xi_N), xs).dims
    ops.append(Op("C3.HH.transported.q", xi_run, _hh0(xi_N, 1), _same))
    return ops


# -- scenario_mix ----------------------------------------------------------

def _small_rational(rng):
    """(n, d) in lowest terms with 2 <= |n| <= 9 and 2 <= d <= 9."""
    while True:
        num = rng.choice([v for v in range(-9, 10) if abs(v) >= 2])
        den = rng.randrange(2, 10)
        if gcd(num, den) == 1:
            return num, den


def _pair_doc(rng, tasks):
    """A pair algebroid over x^2 = a + b x, with a and b non-integer
    rationals and nonzero discriminant b^2 + 4a, so the base is separable."""
    while True:
        (an, ad), (bn, bd) = _small_rational(rng), _small_rational(rng)
        if bn * bn * ad + 4 * an * bd * bd != 0:
            break
    return {
        "name": "pair", "field": "Q",
        "algebras": {"A": {"dim": 2, "unit": ["1", "0"], "mul": [
            [0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"],
            [1, 1, 0, "%d/%d" % (an, ad)], [1, 1, 1, "%d/%d" % (bn, bd)]]}},
        "hopf_algebroids": {"H": {"pair_of": "A"}},
        "sayd_modules": {"P": {"preset": "base_pair", "hopf": "H",
                               "algebra": "A"}},
        "tasks": tasks,
    }


def _doc_op(name, doc, tables):
    """One document through parse, run and emit.  Every task must pass
    with every check, and each task listed in `tables` (task index ->
    dims) must give that homology table."""
    text = json.dumps(doc)
    ntasks = len(doc["tasks"])

    def run():
        from hopfcyclic.scenario import emit, parse_scenario_text, run
        return emit(run(parse_scenario_text(text)))

    def judge(value, want, ctx):
        tasks = json.loads(value)["tasks"]
        if len(tasks) != ntasks:
            return "report has %d tasks, expected %d" % (len(tasks), ntasks)
        for t in tasks:
            if t["status"] != "pass":
                return "task %d: %s" % (t["index"], t["status"])
            for c in t.get("checks", []) + t.get("certificate", []):
                if not c["passed"]:
                    return "task %d: check %s failed" % (t["index"],
                                                        c["name"])
        for idx, dims in sorted(want.items()):
            got = [r["dim"] for r in tasks[idx].get("table", [])] \
                if idx < ntasks else None
            if got != dims:
                return "task %d: got %r, expected %r" % (idx, got, dims)
        return None
    return Op(name, run, tables, judge)


def _golden_op(name):
    with open(os.path.join(ROOT, "src", "hopfcyclic", "scenarios",
                           name + ".json")) as fh:
        text = fh.read()
    with open(os.path.join(ROOT, "tests", "golden",
                           name + ".report.json"), "rb") as fh:
        want = fh.read()

    def run():
        from hopfcyclic.scenario import emit, parse_scenario_text, run
        # the command line tool writes the report plus a newline
        return (emit(run(parse_scenario_text(text, name=name))) + "\n"
                ).encode()

    def judge(value, want, ctx):
        if value == want:
            return None
        at = next((i for i, (x, y) in enumerate(zip(value, want)) if x != y),
                  min(len(value), len(want)))
        return "report differs from tests/golden/%s.report.json at byte %d" \
            % (name, at)
    return Op("golden." + name, run, want, judge)


def _scenario_mix(seed, k, size):
    rng = _rng(seed, "scenario_mix", k)
    md, cmd, dmd, gmd = (size["pair_md"], size["coeff_md"], size["dual_md"],
                         size["group_md"])
    ops = [
        _doc_op("pair.validate", _pair_doc(rng, [
            {"kind": "validate", "object": "H"},
            {"kind": "validate", "object": "P"}]), {}),
        _doc_op("pair.hh", _pair_doc(rng, [
            {"kind": "homology", "object": "H", "theory": "HH",
             "variant": "cyclic", "max_degree": md}]), {0: _hh0(md + 1, 2)}),
        _doc_op("pair.hc", _pair_doc(rng, [
            {"kind": "homology", "object": "H", "theory": "HC",
             "variant": "cyclic", "max_degree": md}]),
            {0: _even(md + 1, 2)}),
        _doc_op("pair.coeff_hc", _pair_doc(rng, [
            {"kind": "homology", "object": "H", "theory": "HC",
             "variant": "cyclic", "coefficients": "P", "max_degree": cmd}]),
            {0: _even(cmd + 1, 2)}),
    ]
    for tag, tasks in (
            ("measure", [{"kind": "measure", "object": "m"},
                         {"kind": "induced", "object": "m", "element": "x",
                          "variant": "cyclic", "max_degree": dmd}]),
            ("galois", [{"kind": "hopf_galois", "object": "m",
                         "element": "x", "max_degree": dmd},
                        {"kind": "hopf_galois", "object": "m",
                         "element": "g", "max_degree": dmd}])):
        num, den = _small_rational(rng)
        ops.append(_doc_op("dual." + tag, {
            "name": "dual", "field": "Q",
            "algebras": {"A": {"preset": "dual_numbers"}},
            "hopf_algebroids": {"H": {"pair_of": "A"}},
            "measurings": {"m": {"preset": "pair_derivation", "hopf": "H",
                                 "derivation": [[1, 1, num, den]]}},
            "elements": {"g": ["1", "0"], "x": ["0", "1"]},
            "tasks": tasks}, {}))
    ops.append(_doc_op("group.hh_fp", {
        "name": "groups", "field": "F%d" % _prime_in(rng, 11, 10 ** 4),
        "hopf_algebroids": {"C2": {"preset": "group_c2"},
                            "C3": {"preset": "group_c3"}},
        "tasks": [{"kind": "homology", "object": g, "theory": "HH",
                   "variant": v, "max_degree": gmd}
                  for g in ("C2", "C3") for v in ("cyclic", "cocyclic")]},
        {i: _hh0(gmd + 1, 1) for i in range(4)}))
    dim = rng.randrange(2, 6)
    ops.append(_doc_op("lie_rinehart", {
        "name": "lr", "field": "Q",
        "lie_rinehart": {"L": {"preset": "abelian", "dim": dim}},
        "tasks": [{"kind": "validate", "object": "L"},
                  {"kind": "homology", "object": "L", "max_degree": dim}]},
        {1: [comb(dim, n) for n in range(dim + 1)]}))
    ar = size["yd_arity"]
    ops.append(_doc_op("yd_operad", {
        "name": "operad", "field": "F%d" % _prime_in(rng, 11, 10 ** 4),
        "hopf_algebroids": {"H": {"preset": "group_c2"}},
        "sayd_modules": {"L": {"preset": "scalar", "hopf": "H"}},
        "yd_algebras": {"Z": {"preset": "scalar", "hopf": "H"}},
        "operads": {"O": {"preset": "yd", "hopf": "H", "yd_algebra": "Z",
                          "max_arity": ar}},
        "comp_modules": {"M": {"preset": "yd", "operad": "O", "hopf": "H",
                               "sayd": "L", "yd_algebra": "Z",
                               "max_degree": ar}},
        "tasks": [{"kind": "validate", "object": "O"},
                  {"kind": "validate", "object": "M"}]}, {}))
    ops.append(_golden_op("trivial"))
    ops.append(_golden_op("pair_e2"))
    return ops


_BUILDERS = {"build_deep": _build_deep, "elim_homology": _elim_homology,
             "scenario_mix": _scenario_mix}


def make_pass(workload, seed, k, scale="full"):
    """The operations of pass k of `workload` under `seed`."""
    return _BUILDERS[workload](seed, k, _SIZES[scale])
