"""End-to-end acceptance checks.

One test per criterion; each prints a single pass line on success and
enforces its wall-clock budget.  All comparisons are exact.
"""

from fractions import Fraction
import os
import random
import time

from hopfcyclic import cyclichom
from hopfcyclic.exactlin import (
    DescentFailure, LinMap, Pipe, QQ, Space, descend, rank,
)
from hopfcyclic.algcore import AlgebraData, Report
from hopfcyclic.hopfalgebroid import (
    HopfAlgebroidData, base_sayd_for_pair, check_hopf_algebroid,
    check_hopf_galois, check_left_bialgebroid, check_sayd, dual_numbers,
    gallery, group_hopf_algebroid, scalar_sayd, scalar_yd_algebra,
)
from hopfcyclic.measuring import (
    MeasuringData, check_hopf_algebroid_measuring, compose_measurings,
    derivation_pair_measuring, euler_derivation, point_coalgebra,
    zero_primitive_comodule_measuring, zero_primitive_measuring,
)
from hopfcyclic.cyclichom import (
    CyclicModuleData, build_cocyclic_CU, build_cocyclic_with_coeffs,
    build_cyclic_CU, build_cyclic_with_coeffs, check_chain_map,
    check_cyclic_module, check_hopf_galois_chain_map, check_shuffle_measuring,
    check_shuffle_unital, cyclic_homology_char0, hochschild_homology,
    homology, hopf_galois_chain_map, hopf_galois_square, induced_cyclic_map,
    induced_on_homology, mixed_complex, transported_homology,
)
from hopfcyclic.lierinehart import (
    TruncatedEnvelope, ad_map, ce_cochain_homology, check_alt_intertwines,
    check_lie_rinehart, check_lie_rinehart_measuring, check_lr_complex,
    check_lr_induced_chain_map, check_truncated_envelope,
    derivation_lr_measuring, induced_lr_chain_map, lie_rinehart_homology,
    nonabelian_2d,
)
from hopfcyclic.operadcyc import (
    CompModuleData, OperadData, build_yd_comp_module, build_yd_operad,
    check_comp_comodule_measuring, check_comp_module, check_operad,
    check_operad_measuring, comp_cyclic_module, induce_from_yd,
    induced_comp_map, one_dimensional_comp_module, one_dimensional_operad,
)
from hopfcyclic.measuring import YdMeasuringData, check_yd_measuring
from hopfcyclic.cli import main as cli_main

HERE = os.path.dirname(__file__)
SCEN = os.path.join(HERE, "..", "src", "hopfcyclic", "scenarios")
GOLD = os.path.join(HERE, "golden")


def _budget(label, t0, seconds):
    dt = time.monotonic() - t0
    assert dt < seconds, "%s took %.1fs, budget %ds" % (label, dt, seconds)
    print("%s: PASS (%.2fs)" % (label, dt))


def _euler():
    h = gallery()["pair_dual"].hopf
    return derivation_pair_measuring(h, euler_derivation(dual_numbers(QQ)))


def test_criterion_01_gallery_validation():
    t0 = time.monotonic()
    for name, e in gallery().items():
        assert check_left_bialgebroid(e.hopf).ok, name
        assert check_hopf_algebroid(e.hopf).ok, name
        assert check_hopf_galois(e.hopf).ok, name
        assert check_sayd(e.sayd).ok, name
    _budget("criterion 1 (gallery validation)", t0, 5)


def test_criterion_02_four_constructions_degree_4():
    t0 = time.monotonic()
    gal = gallery()
    for name in ("group_c2", "pair_dual"):
        e = gal[name]
        for cm in (build_cyclic_CU(e.hopf, 4),
                   build_cocyclic_CU(e.hopf, 4),
                   build_cyclic_with_coeffs(e.hopf, e.sayd, 4),
                   build_cocyclic_with_coeffs(e.hopf, e.sayd, 4)):
            rep = check_cyclic_module(cm)
            assert rep.ok, (name, cm.variant, rep.failures())
            assert any(r.name.startswith("t_order") for r in rep.results)
    _budget("criterion 2 (four constructions, degrees <= 4)", t0, 30)


def test_criterion_03_hopf_galois():
    t0 = time.monotonic()
    gal = gallery()
    for name, e in gal.items():
        assert check_hopf_galois(e.hopf).ok, name
        rep = check_hopf_galois_chain_map(e.hopf, 3)
        assert rep.ok, (name, rep.failures())
    euler = _euler()
    f = QQ
    for xv in ((f.one, f.zero), (f.zero, f.one)):
        rep = hopf_galois_square(euler, xv, 3)
        assert rep.ok, (xv, rep.failures())
    e = gal["group_c2"]
    m = zero_primitive_measuring(e.hopf)
    cmm = zero_primitive_comodule_measuring(m, e.sayd)
    for yv in ((f.one, f.zero), (f.zero, f.one)):
        rep = hopf_galois_square(cmm, yv, 3)
        assert rep.ok, (yv, rep.failures())
    _budget("criterion 3 (Hopf-Galois maps and squares)", t0, 30)


def _point_complex_oracle(top):
    """(HH dims, HC dims) of the one dimensional complex, computed directly.

    b_m is multiplication by sum((-1)**i for i in range(m+1)); B_m is the
    norm followed by the extra degeneracy with its sign, which comes out to
    2(m+1) for even m and 0 for odd m.
    """
    b = lambda m: Fraction(sum((-1) ** i for i in range(m + 1)))
    B = lambda m: Fraction(2 * (m + 1)) if m % 2 == 0 else Fraction(0)
    hh = []
    for n in range(top + 1):
        ker = 1 if (n == 0 or b(n) == 0) else 0
        im = 1 if b(n + 1) != 0 else 0
        hh.append(ker - im)
    # total complex of the (b, B) bicomplex: T_n = degrees n, n-2, ...
    def total_diff(n):
        src = list(range(n, -1, -2))
        dst = list(range(n - 1, -1, -2))
        ent = {}
        for j, m in enumerate(src):
            if m - 1 in dst:
                ent[(dst.index(m - 1), j)] = b(m)
            if m + 1 in dst:
                ent[(dst.index(m + 1), j)] = B(m)
        return LinMap(Space(len(src)), Space(len(dst)), QQ,
                      {k: v for k, v in ent.items() if v})
    hc = []
    for n in range(top + 1):
        d_n = total_diff(n)
        d_n1 = total_diff(n + 1)
        hc.append((d_n.dom.dim - rank(d_n)) - rank(d_n1))
    return hh, hc


def test_criterion_04_point_module_homology():
    t0 = time.monotonic()
    hh_exp, hc_exp = _point_complex_oracle(3)
    assert (hh_exp, hc_exp) == ([1, 0, 0, 0], [1, 0, 1, 0])
    h = gallery()["trivial"].hopf
    for cm in (build_cyclic_CU(h, 4), build_cocyclic_CU(h, 4)):
        assert hochschild_homology(cm).dims == hh_exp
        assert cyclic_homology_char0(cm).dims == hc_exp
    cm = build_cyclic_CU(h, 4)
    assert hochschild_homology(cm, normalized=True).dims == hh_exp
    xs = hopf_galois_chain_map(h, 4)
    assert transported_homology(cm, xs).dims == hh_exp
    _budget("criterion 4 (point module homology vs oracle)", t0, 60)


def test_criterion_05_measuring_functoriality():
    t0 = time.monotonic()
    euler = _euler()
    assert check_hopf_algebroid_measuring(euler).ok
    comp = compose_measurings(euler, euler)
    assert check_hopf_algebroid_measuring(comp).ok
    f = QQ
    src = build_cyclic_CU(euler.src, 3)
    dst = build_cyclic_CU(euler.dst, 3)
    xv = (f.zero, f.one)
    gv = (f.one, f.zero)
    m1 = induced_cyclic_map(euler, xv, 3, "cyclic")
    assert check_chain_map(src, dst, m1).ok
    m2 = induced_cyclic_map(euler, gv, 3, "cyclic")
    # x (x) g in the composite coalgebra acts as the composite of x and g
    zv = [f.zero] * 4
    zv[1 * 2 + 0] = f.one
    mz = induced_cyclic_map(comp, tuple(zv), 3, "cyclic")
    assert check_chain_map(src, dst, mz).ok
    hs, hd = homology(src), homology(dst)
    for n in (0, 1, 2):
        a1 = induced_on_homology(hs, hd, m1, n)
        a2 = induced_on_homology(hd, hd, m2, n)
        az = induced_on_homology(hs, hd, mz, n)
        assert (a2 @ a1 - az).is_zero(), n
    _budget("criterion 5 (measuring certificates and functoriality)", t0, 60)


def test_criterion_06_shuffle_leibniz_and_unit():
    t0 = time.monotonic()
    euler = _euler()
    f = QQ
    xv = (f.zero, f.one)
    gv = (f.one, f.zero)
    for p in range(1, 4):
        for q in range(1, 4):
            if p + q > 4:
                continue
            for vec in (xv, gv):
                rep = check_shuffle_measuring(euler, vec, p, q)
                assert rep.ok, ((p, q, vec), rep.failures())
    for p in (1, 2, 3):
        assert check_shuffle_unital(euler.src, p).ok, p
    _budget("criterion 6 (shuffle Leibniz and unit)", t0, 60)


def test_criterion_07_lie_rinehart():
    t0 = time.monotonic()
    aff = nonabelian_2d(QQ)
    assert check_lie_rinehart(aff).ok
    assert check_lr_complex(aff).ok
    dims = lie_rinehart_homology(aff, 2)
    assert dims == [1, 1, 0]
    assert dims == ce_cochain_homology(aff, 2)
    f = QQ
    m = derivation_lr_measuring(aff, ad_map(aff, (f.one, f.zero)))
    assert check_lie_rinehart_measuring(m).ok
    for vec in ((f.one, f.zero), (f.zero, f.one)):
        rep = check_lr_induced_chain_map(m, vec, 2)
        assert rep.ok, (vec, rep.failures())
    assert induced_lr_chain_map(m, (f.one, f.zero), 2) == \
        LinMap.identity(Space(1), f)
    env = TruncatedEnvelope(aff)
    assert check_truncated_envelope(env).ok
    rep = check_alt_intertwines(aff, env)
    assert rep.ok, rep.failures()
    _budget("criterion 7 (Lie-Rinehart complex and envelope)", t0, 30)


def test_criterion_08_yd_operad():
    t0 = time.monotonic()
    h = group_hopf_algebroid(2, QQ)
    z = scalar_yd_algebra(h)
    od = build_yd_operad(h, z, 3)
    rep = check_operad(od)
    assert rep.ok, rep.failures()
    assert any(r.name == "m_comp_associative" for r in rep.results)
    l = scalar_sayd(h)
    cm = build_yd_comp_module(h, l, z, od, 3)
    rep = check_comp_module(cm)
    assert rep.ok, rep.failures()
    assert any(r.name.startswith("t_order") for r in rep.results)
    cyc = comp_cyclic_module(cm)
    assert check_cyclic_module(cyc).ok
    # induced measurings certify, including on the attached cyclic modules
    C = point_coalgebra(QQ)
    psi = LinMap(Space(1), z.Z.space, QQ, {(0, 0): QQ.one})
    ym = YdMeasuringData(C, z, z, psi, "id")
    assert check_yd_measuring(ym).ok
    ident = LinMap.identity(l.space, QQ)
    om, ccm = induce_from_yd(ym, l, l, ident, od, od, cm, cm, 3)
    assert check_operad_measuring(om).ok
    assert check_comp_comodule_measuring(ccm).ok
    maps, cert = induced_comp_map(ccm, (QQ.one,))
    assert cert.ok, cert.failures()
    # the chain maps commute with the B operator, so they act on HC
    mx = mixed_complex(cyc)
    for n in sorted(mx.B):
        assert (maps[n + 1] @ mx.B[n] - mx.B[n] @ maps[n]).is_zero(), n
    hc = homology(cyc)
    for n in (0, 1):
        a = induced_on_homology(hc, hc, maps, n)
        assert (a - LinMap.identity(a.dom, QQ)).is_zero(), n
    # one dimensional degenerate case reproduces the point module dims
    od1 = one_dimensional_operad(QQ, 4)
    cyc1 = comp_cyclic_module(one_dimensional_comp_module(od1, 4))
    assert hochschild_homology(cyc1).dims == [1, 0, 0, 0]
    assert cyclic_homology_char0(cyc1).dims == [1, 0, 1, 0]
    _budget("criterion 8 (operad from braided commutative algebra)", t0, 60)


def _mutate(m, i, j, f):
    """Add one to entry (i, j) of a map, or to coordinate i of a vector
    (j is None)."""
    if j is None:
        return tuple(f.add(x, f.one) if k == i else x for k, x in enumerate(m))
    # editing out.entries in place is safe only because out is fresh: no
    # kernel has read it, so it holds no integer form to go stale
    out = LinMap(m.dom, m.cod, m.field, dict(m.entries))
    out.entries[(i, j)] = f.add(out.entries.get((i, j), f.zero), f.one)
    return out


def _mutation_run(label, maps, rebuild_check, count=20, seed=0, f=QQ):
    """Flip one entry (of a map) or coordinate (of a vector) at a time and
    insist the checker flags it with a witness."""
    rng = random.Random(seed)
    keys = sorted(maps, key=repr)
    for trial in range(count):
        k = keys[rng.randrange(len(keys))]
        m = maps[k]
        if isinstance(m, LinMap):
            i = rng.randrange(m.cod.dim)
            j = rng.randrange(m.dom.dim)
        else:
            i = rng.randrange(len(m))
            j = None
        mutated = dict(maps)
        mutated[k] = _mutate(m, i, j, f)
        try:
            rep = rebuild_check(mutated)
        except DescentFailure as e:
            assert e.witness is not None, (label, trial, k, i, j)
            continue
        assert not rep.ok, (label, trial, k, i, j)
        assert any(r.witness is not None for r in rep.failures()), \
            (label, trial, k, i, j)


def _global_window_ops(h, p=None):
    """Reference for the certified faces and degeneracies, as the pair
    (certify, evaluate) of `_window_ops`: each window op formed on the
    whole free ambient and pushed through the global descend, which is
    both the certificate and the evaluation."""
    def window(side, st, k_in, s, src, dst, dims):
        return descend(st(Pipe(dims, h.field), s).map, src, dst)
    return window, window


def _four_builds(h, p, N=3):
    """Each builder's module, or the DescentFailure that its call or the
    first read of its cyclic operators raises."""
    out = []
    for build, args in ((build_cyclic_CU, (h,)), (build_cocyclic_CU, (h,)),
                        (build_cyclic_with_coeffs, (h, p)),
                        (build_cocyclic_with_coeffs, (h, p))):
        try:
            cm = build(*args, N)
            cm.cyc
            out.append(cm)
        except DescentFailure as e:
            assert e.witness is not None
            out.append(e)
    return out


def _certificate_run(monkeypatch, trials=10, seed=0):
    """Single-entry mutations of the structure maps of pair_dual, whose
    towers have balancing relations, through the four builders: the
    certified build raises DescentFailure exactly when the global one
    does, and otherwise builds the same operators."""
    f = QQ
    g = gallery()["pair_dual"].hopf
    base = dual_numbers(f)
    maps = {"mul": g.U.mul, "s": g.s_L, "t": g.t_L,
            "delta_lift": g.delta_lift, "eps_L": g.eps_L, "S": g.S}
    rng = random.Random(seed)
    reached = 0
    for name in maps:
        for trial in range(trials):
            m = maps[name]
            i, j = rng.randrange(m.cod.dim), rng.randrange(m.dom.dim)
            ms = dict(maps, **{name: _mutate(m, i, j, f)})
            U = AlgebraData(g.U.space, ms["mul"], g.U.unit, f, "mutant")
            h = HopfAlgebroidData(U, g.A, ms["s"], ms["t"], ms["delta_lift"],
                                  ms["eps_L"], ms["S"], "mutant")
            p = base_sayd_for_pair(h, base)
            got = _four_builds(h, p)
            with monkeypatch.context() as mp:
                mp.setattr(cyclichom, "_window_ops", _global_window_ops)
                want = _four_builds(h, p)
            where = (name, trial, i, j)
            for a, b in zip(got, want):
                failed = isinstance(b, DescentFailure)
                assert isinstance(a, DescentFailure) == failed, where
                if failed:
                    continue
                assert all(x == y for n in b.faces
                           for x, y in zip(a.faces[n], b.faces[n])), where
                assert all(x == y for n in b.degen
                           for x, y in zip(a.degen[n], b.degen[n])), where
            reached += any(isinstance(a, DescentFailure)
                           and str(a).startswith("window op") for a in got)
            if all(not isinstance(cm, DescentFailure)
                   and check_cyclic_module(cm).ok for cm in got):
                # a lift changed by a balancing relation: the coproduct
                # itself, and with it every module, is unchanged
                lt2 = g.ltower(2)
                assert name == "delta_lift", where
                assert lt2.project(ms[name]) == lt2.project(g.delta_lift)
    return reached


def test_criterion_09_negative_controls(monkeypatch):
    t0 = time.monotonic()
    h = group_hopf_algebroid(2, QQ)
    f = QQ

    def check_hopf(ms):
        U2 = AlgebraData(h.U.space, ms["mul"], h.U.unit, f, "mutant")
        h2 = HopfAlgebroidData(U2, h.A, ms["s"], ms["t"], ms["delta"],
                               ms["eps"], ms["S"], "mutant")
        rep = check_left_bialgebroid(h2)
        rep.extend(check_hopf_algebroid(h2))
        return rep

    _mutation_run("hopf algebroid", {
        "mul": h.U.mul, "s": h.s_L, "t": h.t_L, "delta": h.delta_lift,
        "eps": h.eps_L, "S": h.S,
    }, check_hopf)

    cm = build_cyclic_CU(gallery()["pair_dual"].hopf, 2)
    flat = {}
    for n in cm.faces:
        for i, d in enumerate(cm.faces[n]):
            flat[("d", n, i)] = d
    for n in cm.degen:
        for i, s in enumerate(cm.degen[n]):
            flat[("s", n, i)] = s
    for n, t in cm.cyc.items():
        flat[("t", n)] = t

    def check_cyc(ms):
        faces = {n: [ms[("d", n, i)] for i in range(len(cm.faces[n]))]
                 for n in cm.faces}
        degen = {n: [ms[("s", n, i)] for i in range(len(cm.degen[n]))]
                 for n in cm.degen}
        cyc = {n: ms[("t", n)] for n in cm.cyc}
        mut = CyclicModuleData("cyclic", cm.N, cm.spaces, faces, degen,
                               cyc, cm.field, "mutant")
        return check_cyclic_module(mut)

    _mutation_run("cyclic module", flat, check_cyc)

    from hopfcyclic.hopfalgebroid import SaydModuleData
    p = scalar_sayd(h)
    _mutation_run("sayd module", {"act": p.action, "coact": p.coact_lift},
                  lambda ms: check_sayd(SaydModuleData(
                      h, p.space, ms["act"], ms["coact"], "mutant")))

    euler = _euler()
    _mutation_run("measuring", {"Psi": euler.Psi, "psi": euler.psi},
                  lambda ms: check_hopf_algebroid_measuring(MeasuringData(
                      euler.C, euler.src, euler.dst, ms["Psi"], ms["psi"],
                      "mutant")))

    od = build_yd_operad(h, scalar_yd_algebra(h), 3)
    opmaps = dict(od.comp)
    opmaps["one"] = od.one
    opmaps["m"] = od.m

    def check_op(ms):
        comp = {k: ms.get(k, v) for k, v in od.comp.items()}
        mut = OperadData(od.spaces, comp, ms.get("one", od.one),
                         ms.get("m", od.m), od.e, f, "mutant")
        return check_operad(mut)

    _mutation_run("operad", opmaps, check_op)
    # the mixed pool above rarely draws these two, so give them their own run
    _mutation_run("operad unit and multiplication",
                  {"one": od.one, "m": od.m}, check_op)

    cmod = build_yd_comp_module(h, scalar_sayd(h), od.z, od, 3)
    cmmaps = {("bullet",) + k: b for k, b in cmod.bullet.items()}
    cmmaps.update({("t", n): t for n, t in cmod.t.items()})

    def check_cmod(ms):
        bullet = {k: ms[("bullet",) + k] for k in cmod.bullet}
        t = {n: ms[("t", n)] for n in cmod.t}
        return check_comp_module(CompModuleData(od, cmod.spaces, bullet, t,
                                                f, "mutant"))

    _mutation_run("comp module", cmmaps, check_cmod)

    # the cyclic and unit checks see most bullet mutations too; the
    # composition check alone must see every one
    def check_cmod_composition(ms):
        rep = check_cmod({**cmmaps, **ms})
        only = Report(rep.subject)
        only.results = [r for r in rep.results
                        if r.name == "comp_compatibility"]
        return only

    _mutation_run("comp module composition",
                  {k: v for k, v in cmmaps.items() if k[0] == "bullet"},
                  check_cmod_composition)
    # the towers of group_c2 are free, so none of the mutations above
    # reaches a window certificate; those of pair_dual do
    assert _certificate_run(monkeypatch) >= 50
    _budget("criterion 9 (negative controls, 20 mutations each)", t0, 120)


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.monotonic()
    for name in ("trivial", "pair_e2"):
        scen = os.path.join(SCEN, name + ".json")
        outs = []
        for run_idx in (0, 1):
            out = tmp_path / ("%s_%d.json" % (name, run_idx))
            code = cli_main(["report", scen, "-o", str(out)])
            assert code == 0, (name, run_idx)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], name
        with open(os.path.join(GOLD, name + ".report.json"), "rb") as fh:
            assert outs[0] == fh.read(), name
    _budget("criterion 10 (deterministic CLI reports)", t0, 60)
