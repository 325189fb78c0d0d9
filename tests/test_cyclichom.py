import pytest

from hopfcyclic import cyclichom
from hopfcyclic.algcore import AlgebraData
from hopfcyclic.exactlin import (
    QQ, DescentFailure, FieldSpec, LinMap, NoSolution, Pipe, Space, descend,
    kernel, quotient_by, rank, solve_many,
)
from hopfcyclic.hopfalgebroid import (
    HopfAlgebroidData, base_sayd_for_pair, gallery, group_hopf_algebroid,
    pair_hopf_algebroid, translation_lift,
)
from hopfcyclic.measuring import (
    compose_comodule_measurings, compose_measurings,
    derivation_pair_comodule_measuring, derivation_pair_measuring,
    euler_derivation,
    zero_primitive_comodule_measuring, zero_primitive_measuring,
)
from hopfcyclic.hopfalgebroid import dual_numbers
from hopfcyclic.cyclichom import (
    CharNotZero, build_cocyclic_CU, build_cocyclic_with_coeffs,
    build_cyclic_CU, build_cyclic_with_coeffs, check_chain_map,
    check_cyclic_module, check_hopf_galois_chain_map, check_mixed_complex,
    check_shuffle_measuring, check_shuffle_unital, cyclic_homology_char0,
    hochschild_homology, homology, hopf_galois_chain_map,
    hopf_galois_square, induced_cyclic_map,
    induced_on_homology, mixed_complex, transported_homology,
)


@pytest.fixture(scope="module")
def gal():
    return gallery()


@pytest.fixture(scope="module")
def euler(gal):
    h = gal["pair_dual"].hopf
    return derivation_pair_measuring(h, euler_derivation(dual_numbers(QQ)))


def test_cocyclic_CU_axioms(gal):
    for name in ("trivial", "group_c2", "pair_dual"):
        cm = build_cocyclic_CU(gal[name].hopf, 3)
        rep = check_cyclic_module(cm)
        assert rep.ok, (name, rep.failures())


def test_cyclic_CU_axioms(gal):
    for name in ("trivial", "group_c3", "pair_dual"):
        cm = build_cyclic_CU(gal[name].hopf, 3)
        rep = check_cyclic_module(cm)
        assert rep.ok, (name, rep.failures())


def test_cyclic_coeff_axioms(gal):
    for name in ("group_c2", "pair_dual"):
        e = gal[name]
        cm = build_cyclic_with_coeffs(e.hopf, e.sayd, 3)
        rep = check_cyclic_module(cm)
        assert rep.ok, (name, rep.failures())


def test_cocyclic_coeff_axioms(gal):
    for name in ("group_c2", "pair_dual"):
        e = gal[name]
        cm = build_cocyclic_with_coeffs(e.hopf, e.sayd, 3)
        rep = check_cyclic_module(cm)
        assert rep.ok, (name, rep.failures())


# the checks of a cocyclic module, by name and in order: each composite
# read in the opposite order to the chain side, named outer map first at
# its source degree
_COCYCLIC_NAMES_N3 = """
    d1_d0@0 d2_d0@0 d2_d1@0 d1_d0@1 d2_d0@1 d3_d0@1 d2_d1@1 d3_d1@1 d3_d2@1
    s0_s0@2 s0_s0@3 s1_s0@3 s1_s1@3
    s0_d0@0 s0_d1@0 s0_d0@1 s0_d1@1 s0_d2@1 s1_d0@1 s1_d1@1 s1_d2@1
    s0_d0@2 s0_d1@2 s0_d2@2 s0_d3@2 s1_d0@2 s1_d1@2 s1_d2@2 s1_d3@2
    s2_d0@2 s2_d1@2 s2_d2@2 s2_d3@2
    t_order@0 t_order@1 t_order@2 t_order@3
    t_d0@0 t_d1@0 t_d0@1 t_d1@1 t_d2@1 t_d0@2 t_d1@2 t_d2@2 t_d3@2
    t_s0@1 t_s0@2 t_s1@2 t_s0@3 t_s1@3 t_s2@3
""".split()


def test_cocyclic_check_names_and_first_failure_are_pinned(gal):
    from test_acceptance import _mutate
    cm = build_cocyclic_CU(gal["group_c2"].hopf, 3)
    rep = check_cyclic_module(cm)
    assert [r.name for r in rep.results] == _COCYCLIC_NAMES_N3
    assert rep.ok
    # the coface d1 : C^1 -> C^2 with entry (0, 1) raised by one
    faces = {n: list(row) for n, row in cm.faces.items()}
    faces[1][1] = _mutate(faces[1][1], 0, 1, QQ)
    bad = cyclichom.CyclicModuleData("cocyclic", 3, cm.spaces, faces,
                                     cm.degen, cm.cyc, cm.field, cm.label)
    first = check_cyclic_module(bad).failures()[0]
    assert first.name == "d2_d0@1"
    assert first.witness == (1, (-1, 0, 0, 0, 0, 0, 0, 0))


def test_point_module_homology(gal):
    h = gal["trivial"].hopf
    cm = build_cyclic_CU(h, 4)
    hh = hochschild_homology(cm)
    assert hh.dims == [1, 0, 0, 0]
    hc = cyclic_homology_char0(cm)
    assert hc.dims == [1, 0, 1, 0]


def test_point_cocyclic_homology(gal):
    h = gal["trivial"].hopf
    cm = build_cocyclic_CU(h, 4)
    assert hochschild_homology(cm).dims == [1, 0, 0, 0]
    assert cyclic_homology_char0(cm).dims == [1, 0, 1, 0]


def test_normalized_matches_unnormalized(gal):
    for name in ("group_c2", "pair_dual"):
        for N in (0, 3):
            cm = build_cyclic_CU(gal[name].hopf, N)
            plain = hochschild_homology(cm)
            norm = hochschild_homology(cm, normalized=True)
            assert plain.dims == norm.dims == _HH[name][:N], (name, N)


def _face_sums(cm):
    """The Hochschild boundaries recomputed from the faces: b_n is the
    alternating sum of the faces leaving degree n."""
    out = {}
    for n, ops in cm.faces.items():
        f = ops[0].field
        b = LinMap.zero(ops[0].dom, ops[0].cod, f)
        for i, d in enumerate(ops):
            b = b + (d if i % 2 == 0 else d.scaled(f.neg(f.one)))
        out[n] = b
    return out


# HH dims in degrees 0..2 on the chain and cochain sides, the same over Q
# and F5
_HH = {"trivial": [1, 0, 0], "group_c2": [1, 0, 0], "group_c3": [1, 0, 0],
       "pair_dual": [2, 1, 1], "pair_split": [2, 0, 0]}


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_boundaries_are_computed_once(field):
    for name, entry in gallery(field).items():
        cm = build_cyclic_CU(entry.hopf, 3)
        cc = build_cocyclic_CU(entry.hopf, 3)
        want = _face_sums(cm)
        b = cm.boundaries()
        assert cm.boundaries() is b
        assert sorted(b) == sorted(want)
        assert all(b[n] == want[n] for n in want), name
        assert hochschild_homology(cm).dims == _HH[name]
        assert hochschild_homology(cc).dims == [1, 0, 0]
        hcc = homology(cc)
        assert [hcc.presentation(n)[1].quotient.dim for n in range(3)] \
            == [1, 0, 0]
        for n in range(3):
            K, pres = homology(cm).presentation(n)
            wantK = kernel(want[n]) if n else LinMap.identity(cm.spaces[0],
                                                              field)
            wp = quotient_by(wantK.dom, solve_many(wantK, want[n + 1]),
                             field)
            assert K == wantK, (name, n)
            assert pres.projection == wp.projection, (name, n)
            assert pres.section == wp.section, (name, n)
            assert pres.quotient.dim == _HH[name][n], (name, n)
        # the cached boundaries are the ones every homology call used
        assert cm.boundaries() is b


def test_char_p_cyclic_homology_raises(monkeypatch):
    # the field is read off the module, before any operator family
    log = _logged_families(monkeypatch)
    g = gallery(FieldSpec(5))
    for name in ("group_c2", "pair_dual"):
        for _, build in _builds(g[name], 2):
            with pytest.raises(CharNotZero):
                cyclic_homology_char0(build())
            assert log == [], name


def test_homology_presentation_rejects_degrees_out_of_range():
    cm = build_cyclic_CU(group_hopf_algebroid(2, QQ), 2)
    maps = [LinMap.identity(sp, QQ) for sp in cm.spaces]
    hh = homology(cm)
    for n in (2, -1):
        for read in (lambda: hh.presentation(n),
                     lambda: induced_on_homology(hh, hh, maps, n)):
            with pytest.raises(ValueError, match=r"degree %d outside the "
                               r"homology degrees 0\.\.1" % n):
                read()
    assert induced_on_homology(hh, hh, maps, 1).dom.dim == 0


def test_hopf_galois_chain_map_bijective(gal):
    for name, entry in gal.items():
        rep = check_hopf_galois_chain_map(entry.hopf, 3)
        assert rep.ok, (name, rep.failures())
        rep = check_hopf_galois_chain_map(entry.hopf, 2, entry.sayd)
        assert rep.ok, (name, rep.failures())


def test_hopf_galois_chain_map_with_coefficients_reaches_degree_7():
    """The core permutes 28 factors of dimension 4 at degree 7, with far
    fewer entries than the digit tables of its two runs would hold."""
    g = gallery()["pair_dual"]
    rep = check_hopf_galois_chain_map(g.hopf, 7, g.sayd)
    assert rep.ok, rep.failures()


def test_transported_homology_agrees(gal):
    h = gal["group_c2"].hopf
    cm = build_cyclic_CU(h, 3)
    xs = hopf_galois_chain_map(h, 3)
    assert transported_homology(cm, xs).dims == hochschild_homology(cm).dims


def test_induced_chain_map_certificates(euler, gal):
    f = QQ
    xv = (f.zero, f.one)
    src = build_cyclic_CU(euler.src, 3)
    dst = build_cyclic_CU(euler.dst, 3)
    maps = induced_cyclic_map(euler, xv, 3, "cyclic")
    rep = check_chain_map(src, dst, maps)
    assert rep.ok, rep.failures()
    srcc = build_cocyclic_CU(euler.src, 3)
    dstc = build_cocyclic_CU(euler.dst, 3)
    mapsc = induced_cyclic_map(euler, xv, 3, "cocyclic")
    rep = check_chain_map(srcc, dstc, mapsc)
    assert rep.ok, rep.failures()


def test_induced_coeff_chain_map(gal):
    e = gal["group_c2"]
    m = zero_primitive_measuring(e.hopf)
    cmm = zero_primitive_comodule_measuring(m, e.sayd)
    f = QQ
    yv = (f.zero, f.one)  # the primitive element of the coacting coalgebra
    src = build_cyclic_with_coeffs(e.hopf, e.sayd, 3)
    maps = induced_cyclic_map(cmm, yv, 3, "cyclic")
    rep = check_chain_map(src, src, maps)
    assert rep.ok, rep.failures()


def test_hopf_galois_square_plain(euler):
    f = QQ
    for xv in ((f.one, f.zero), (f.zero, f.one)):
        rep = hopf_galois_square(euler, xv, 3)
        assert rep.ok, rep.failures()


def test_hopf_galois_square_coeff(gal):
    e = gal["group_c2"]
    m = zero_primitive_measuring(e.hopf)
    cmm = zero_primitive_comodule_measuring(m, e.sayd)
    f = QQ
    for yv in ((f.one, f.zero), (f.zero, f.one)):
        rep = hopf_galois_square(cmm, yv, 2)
        assert rep.ok, rep.failures()


def test_mixed_complex(gal):
    for name in ("group_c2", "pair_dual"):
        cm = build_cyclic_CU(gal[name].hopf, 3)
        rep = check_mixed_complex(mixed_complex(cm))
        assert rep.ok, (name, rep.failures())


def test_shuffle_unit(gal):
    h = gal["pair_dual"].hopf
    for p in (1, 2, 3):
        rep = check_shuffle_unital(h, p)
        assert rep.ok, (p, rep.failures())


def test_shuffle_leibniz(euler):
    f = QQ
    xv = (f.zero, f.one)
    gv = (f.one, f.zero)
    for (p, q) in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for vec in (xv, gv):
            rep = check_shuffle_measuring(euler, vec, p, q)
            assert rep.ok, ((p, q, vec), rep.failures())


def test_homology_functoriality(euler):
    f = QQ
    comp = compose_measurings(euler, euler)
    src = homology(build_cyclic_CU(euler.src, 3))
    dst = homology(build_cyclic_CU(euler.dst, 3))
    xv = (f.zero, f.one)
    gv = (f.one, f.zero)
    # x (x) g acts as u -> g(x(u)) = x(u)
    zv = [f.zero] * 4
    zv[1 * 2 + 0] = f.one
    m1 = induced_cyclic_map(euler, xv, 3, "cyclic")
    m2 = induced_cyclic_map(euler, gv, 3, "cyclic")
    mz = induced_cyclic_map(comp, tuple(zv), 3, "cyclic")
    for n in (0, 1, 2):
        a1 = induced_on_homology(src, dst, m1, n)
        a2 = induced_on_homology(dst, dst, m2, n)
        az = induced_on_homology(src, dst, mz, n)
        assert (a2 @ a1 - az).is_zero(), n


@pytest.mark.parametrize("field, theory, normalized, variant", [
    (QQ, "HH", False, "cyclic"), (QQ, "HH", False, "cocyclic"),
    (QQ, "HH", True, "cyclic"), (QQ, "HC", False, "cyclic"),
    (QQ, "HC", False, "cocyclic"), (FieldSpec(5), "HH", False, "cyclic"),
    (FieldSpec(5), "HH", False, "cocyclic")], ids=str)
def test_homology_dims_match_presentations(field, theory, normalized,
                                           variant):
    """The ranks behind `dims` and the quotients of `presentation` are two
    computations of one homology."""
    for name, e in gallery(field).items():
        for v, build in _builds(e, 4):
            if v != variant:
                continue
            hom = homology(build(), theory, normalized)
            assert [hom.presentation(n)[1].quotient.dim
                    for n in range(4)] == hom.dims, name


@pytest.mark.parametrize("coefficients", [False, True], ids=["plain", "base"])
@pytest.mark.parametrize("variant", ["cyclic", "cocyclic"])
def test_maps_on_cyclic_homology_and_cohomology(euler, gal, coefficients,
                                                variant):
    """The Euler measuring (g, x) of pair_dual, plain and through its
    comodule measuring on the base algebra as coefficients: g induces the
    identity on HC, x has rank 1 on chain-side HC_0 and HC_2 and rank 0
    otherwise, and x (x) g of the composite induces the composite."""
    f = QQ
    N = 5
    m = derivation_pair_comodule_measuring(euler, gal["pair_dual"].sayd) \
        if coefficients else euler
    comp = compose_comodule_measurings(m, m) if coefficients \
        else compose_measurings(m, m)
    builds = _builds(gal["pair_dual"], N)
    hc = homology(dict(builds[2:] if coefficients else builds[:2])[variant](),
                  "HC")
    zv = [f.zero] * 4
    zv[1 * 2 + 0] = f.one
    mg, mx, mz = (induced_cyclic_map(mm, v, N, variant) for mm, v in (
        (m, (f.one, f.zero)), (m, (f.zero, f.one)), (comp, tuple(zv))))
    ranks = []
    for n in range(4):
        ag, ax, az = (induced_on_homology(hc, hc, maps, n)
                      for maps in (mg, mx, mz))
        assert ag == LinMap.identity(ag.dom, f), n
        assert ag @ ax == az, n
        ranks.append(rank(ax))
    assert ranks == ([1, 0, 1, 0] if variant == "cyclic" else [0] * 4)


def test_maps_on_cyclic_homology_certify_lambda(gal):
    """A map that does not commute with lambda does not pass to the
    lambda-complex: on the chain side it does not descend to C_2 / im(1 -
    lambda), on the cochain side it leaves ker(1 - lambda)."""
    f = QQ
    h = gal["pair_dual"].hopf
    cm = build_cyclic_CU(h, 3)
    hc = homology(cm, "HC")
    for j in range(1, 7):
        maps = [LinMap.identity(sp, f) for sp in cm.spaces]
        maps[2] = LinMap(cm.spaces[2], cm.spaces[2], f, {(0, j): f.one})
        with pytest.raises(DescentFailure):
            induced_on_homology(hc, hc, maps, 2)
    cc = build_cocyclic_CU(h, 3)
    hcc = homology(cc, "HC")
    # e_1 e_1^T sends a lambda-invariant vector (one with coordinate 1) to
    # a multiple of e_1, which is not lambda-invariant
    assert any(i == 1 for i, _ in hcc.pres[2].entries)
    assert any((LinMap.identity(cc.spaces[2], f) - cc.cyc[2]).column(1))
    maps = [LinMap.identity(sp, f) for sp in cc.spaces]
    maps[2] = LinMap(cc.spaces[2], cc.spaces[2], f, {(1, 1): f.one})
    with pytest.raises(NoSolution):
        induced_on_homology(hcc, hcc, maps, 2)


def test_hopf_galois_check_reports_descent_failures_only(gal, monkeypatch):
    h = gal["group_c2"].hopf

    def no_descent(h, N, p=None):
        raise DescentFailure("map does not descend (relation column 0)",
                             witness=(0, (1,)))

    monkeypatch.setattr(cyclichom, "hopf_galois_chain_map", no_descent)
    rep = check_hopf_galois_chain_map(h, 2)
    assert not rep.ok
    [fail] = rep.failures()
    assert fail.name == "xi_descends" and fail.witness is not None

    def broken(h, N, p=None):
        raise TypeError("a programming error")

    monkeypatch.setattr(cyclichom, "hopf_galois_chain_map", broken)
    with pytest.raises(TypeError):
        check_hopf_galois_chain_map(h, 2)


def test_hopf_galois_chain_maps_are_computed_once_per_degree(monkeypatch):
    g = gallery()
    h, p = g["pair_dual"].hopf, g["pair_dual"].sayd
    real = cyclichom.descend
    calls = []

    def failing(*args):
        raise DescentFailure("refused", witness=(0, (1,)))

    # a failure leaves nothing behind
    monkeypatch.setattr(cyclichom, "descend", failing)
    with pytest.raises(DescentFailure):
        hopf_galois_chain_map(h, 2)
    with pytest.raises(DescentFailure):
        hopf_galois_chain_map(h, 2, p)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cyclichom, "descend", counting)
    first = hopf_galois_chain_map(h, 3)
    with_p = hopf_galois_chain_map(h, 2, p)
    assert len(calls) == 2 + 2      # degrees 2, 3 plain; 1, 2 with p
    again = hopf_galois_chain_map(h, 3) + hopf_galois_chain_map(h, 2, p)
    assert len(calls) == 4
    assert all(x is y for x, y in zip(again, first + with_p))
    fresh = gallery()["pair_dual"]
    assert first == hopf_galois_chain_map(fresh.hopf, 3)
    assert with_p == hopf_galois_chain_map(fresh.hopf, 2, fresh.sayd)


def test_coefficient_towers_are_grown_on_their_own_algebroid():
    """A SAYD module used with another algebroid is refused, and the
    refusals leave its towers as they were: a valid build afterwards
    gives the dims it gives on its own."""
    A = dual_numbers(QQ)
    h = pair_hopf_algebroid(A, "H")
    k = gallery()["pair_split"].hopf
    p = base_sayd_for_pair(h, A)
    for build in (build_cyclic_with_coeffs, build_cocyclic_with_coeffs):
        with pytest.raises(ValueError, match="over H, not over pair"):
            build(k, p, 2)
    with pytest.raises(ValueError, match="over H, not over pair"):
        hopf_galois_chain_map(k, 2, p)
    fresh = base_sayd_for_pair(h, A)
    for tower in ("chain_tower", "capped_tower"):
        for n in range(4):
            got = getattr(p, tower)(n)
            assert got.projection == getattr(fresh, tower)(n).projection
            assert got.section == getattr(fresh, tower)(n).section
    cm = build_cyclic_with_coeffs(h, p, 3)
    assert hochschild_homology(cm).dims == [2, 1, 1]
    assert hochschild_homology(build_cocyclic_with_coeffs(h, p, 3)).dims \
        == hochschild_homology(build_cocyclic_with_coeffs(h, fresh, 3)).dims


def test_cochain_tower_reads_the_kept_action_of_ltower(monkeypatch):
    """The right A-action of each level of the L tower is computed once
    and kept: capping ltower(3) with coefficients, twice, and growing
    ltower(4) compute no action beyond one per level."""
    from hopfcyclic import algcore
    real = algcore.action_on_last_slot
    calls = []

    def counting(pres, *args):
        calls.append(pres)
        return real(pres, *args)

    monkeypatch.setattr(algcore, "action_on_last_slot", counting)
    A = dual_numbers(QQ)
    h = pair_hopf_algebroid(A)
    p, q = base_sayd_for_pair(h, A), base_sayd_for_pair(h, A)
    h.ltower(3)
    assert calls == [h.ltower(2)]
    p.capped_tower(3)
    assert calls == [h.ltower(2), h.ltower(3)]
    q.capped_tower(3)
    p.mixed2()
    p.capped_tower(2)
    h.ltower(4)
    assert calls == [h.ltower(2), h.ltower(3)]


def test_pair_build_and_homology_compute_no_kernel(monkeypatch):
    # tower relation bases are computed when read, and building, HH and
    # HC read none of them
    from hopfcyclic import algcore, exactlin, hopfalgebroid
    real = exactlin.kernel
    calls = []

    def counting(m):
        calls.append(m)
        return real(m)

    for mod in (exactlin, algcore, cyclichom, hopfalgebroid):
        if hasattr(mod, "kernel"):
            monkeypatch.setattr(mod, "kernel", counting)
    cm = build_cyclic_CU(gallery()["pair_dual"].hopf, 4)
    assert hochschild_homology(cm).dims == \
        hochschild_homology(cm, normalized=True).dims
    cyclic_homology_char0(cm)
    assert calls == []


# -- faces and degeneracies from window certificates ----------------------

def _four_modules(h, p, N):
    return [build_cyclic_CU(h, N), build_cocyclic_CU(h, N),
            build_cyclic_with_coeffs(h, p, N),
            build_cocyclic_with_coeffs(h, p, N)]


def _sqrt2_pair():
    """The pair algebroid on Q[x]/(x^2 - 2), a separable base with
    balancing relations, and the base as its SAYD module."""
    sp = Space(2, "Q(r2)")
    mul = LinMap(Space(4), sp, QQ,
                 {(0, 0): 1, (1, 1): 1, (1, 2): 1, (0, 3): 2})
    A = AlgebraData(sp, mul, (1, 0), QQ, "Q(r2)")
    h = pair_hopf_algebroid(A)
    return h, base_sayd_for_pair(h, A)


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_certified_operators_match_global_descend(field, monkeypatch):
    """Every face and degeneracy of the four builders equals the window op
    descended globally from pres[n] to pres[n -+ 1], entry for entry."""
    from test_acceptance import _global_window_ops
    certified = cyclichom._window_ops
    compared = []

    def checked(h, p=None):
        certify, got_of = certified(h, p)
        want_of = _global_window_ops(h, p)[1]

        def evaluate(*args):
            got = got_of(*args)
            assert got == want_of(*args), (h.label, args[1].__name__,
                                           args[3])
            compared.append(args[1])
            return got
        return certify, evaluate

    monkeypatch.setattr(cyclichom, "_window_ops", checked)
    cases = [(e.hopf, e.sayd, 4) for e in gallery(field).values()]
    if field == QQ:
        cases.append(_sqrt2_pair() + (5,))
    for h, p, N in cases:
        mods = _four_modules(h, p, N)
        # all but the maps between A and U of the plain modules (two faces
        # and one degeneracy on each side) went through window ops
        total = sum(len(ops) for cm in mods for kind in (cm.faces, cm.degen)
                    for ops in kind.values())
        assert len(compared) == total - 6
        compared.clear()


def test_every_operator_stays_inside_the_degrees_of_its_module():
    """Over the gallery at N = 0, 1, 2, each face and degeneracy maps a
    degree n to its neighbour, and each cyclic operator degree n to
    itself, inside 0..N and with the dims of those degrees."""
    for N in (0, 1, 2):
        for name, e in gallery().items():
            for cm in _four_modules(e.hopf, e.sayd, N):
                dims = cm.dims()
                step = -1 if cm.variant == "cyclic" else 1
                cyc = {n: [t] for n, t in cm.cyc.items()}
                for fam, d in ((cm.faces, step), (cm.degen, -step), (cyc, 0)):
                    for n, row in fam.items():
                        where = (name, cm.label, N, n, d)
                        assert 0 <= n <= N and 0 <= n + d <= N, where
                        assert all((op.dom.dim, op.cod.dim)
                                   == (dims[n], dims[n + d])
                                   for op in row), where


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_coefficient_certificates_reject_what_global_descend_rejects(
        field, monkeypatch):
    """Single-entry mutants of the action and the coaction lift of the base
    SAYD modules of pair_dual and pair_split, through both coefficient
    builders: the certified build raises DescentFailure exactly where the
    global descend does, and otherwise builds the same faces and
    degeneracies.  Each side rejects some mutant at its coefficient
    slot."""
    from test_acceptance import _global_window_ops, _mutate
    import random
    from hopfcyclic.hopfalgebroid import SaydModuleData

    def build(make, h, p):
        try:
            cm = make(h, p, 3)
            return cm.faces, cm.degen
        except DescentFailure as exc:
            assert exc.witness is not None
            return str(exc)

    rng = random.Random(1)
    rejected = set()
    for name in ("pair_dual", "pair_split"):
        e = gallery(field)[name]
        h, p = e.hopf, e.sayd
        for key in ("action", "coact_lift"):
            m = getattr(p, key)
            for _ in range(8):
                i, j = rng.randrange(m.cod.dim), rng.randrange(m.dom.dim)
                maps = {"action": p.action, "coact_lift": p.coact_lift,
                        key: _mutate(m, i, j, field)}
                q = SaydModuleData(h, p.space, maps["action"],
                                   maps["coact_lift"], "mutant")
                for make in (build_cyclic_with_coeffs,
                             build_cocyclic_with_coeffs):
                    got = build(make, h, q)
                    with monkeypatch.context() as mp:
                        mp.setattr(cyclichom, "_window_ops",
                                   _global_window_ops)
                        want = build(make, h, q)
                    where = (name, key, i, j, make.__name__)
                    assert isinstance(got, str) == isinstance(want, str), \
                        where
                    if isinstance(got, str):
                        rejected.add((make, got.split()[2]))
                    else:
                        assert got == want, where
    assert rejected & {(build_cyclic_with_coeffs, "counit_coeff"),
                       (build_cyclic_with_coeffs, "action")}
    assert rejected & {(build_cocyclic_with_coeffs, "coaction"),
                       (build_cocyclic_with_coeffs, "counit_coeff")}


def _cyclic_all_at_once(h, p, n):
    """The cyclic operator of chain_coeff_cyclic with every u translated
    before any product is formed: p (x) u1 (x) ... (x) un -> p_0 u1+ (x)
    u2+ (x) ... (x) un+ (x) un- ... u1- p_-1, the product left-nested."""
    f = h.field
    if n == 0:
        return LinMap.identity(p.space, f)
    du, dp = h.U.space.dim, p.space.dim
    pipe = Pipe([dp] + [du] * n, f)
    for k in range(n):
        pipe.block(1 + 2 * k, 1, translation_lift(h), [du, du])
    pipe.block(0, 1, p.coact_lift, [du, dp])
    # (p_-1, p_0, u1+, u1-, ..., un+, un-)
    pipe.permute([1] + [2 * k for k in range(1, n + 1)]
                 + [2 * k + 1 for k in range(n, 0, -1)] + [0])
    pipe.block(0, 2, p.action)
    for _ in range(n):
        pipe.block(n, 2, h.U.mul)
    return descend(pipe.map, p.chain_tower(n), p.chain_tower(n))


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_coefficient_cyclic_operator_is_the_all_at_once_formula(field):
    """chain_coeff_cyclic multiplies each u- into the running product as
    soon as it exists; the map is the one with every u translated first,
    on the gallery and on single-entry mutants of the action and the
    coaction lift, where both raise the same DescentFailure."""
    from test_acceptance import _mutate
    import random
    from hopfcyclic.hopfalgebroid import SaydModuleData

    def outcome(make, h, p, n):
        try:
            return make(h, p, n)
        except DescentFailure as exc:
            return exc.witness

    rng = random.Random(2)
    for name, e in gallery(field).items():
        h, p = e.hopf, e.sayd
        cases = [p]
        if name in ("pair_dual", "pair_split"):
            for key in ("action", "coact_lift"):
                m = getattr(p, key)
                i, j = rng.randrange(m.cod.dim), rng.randrange(m.dom.dim)
                maps = {"action": p.action, "coact_lift": p.coact_lift,
                        key: _mutate(m, i, j, field)}
                cases.append(SaydModuleData(h, p.space, maps["action"],
                                            maps["coact_lift"], "mutant"))
        for q in cases:
            for n in range(4):
                got = outcome(cyclichom.chain_coeff_cyclic, h, q, n)
                assert got == outcome(_cyclic_all_at_once, h, q, n), \
                    (name, q.label, n)


def _mul_mutant():
    """pair_dual with one entry of U.mul raised by one: the product still
    descends on rtower(2), but it is not A-linear at either boundary."""
    h = gallery()["pair_dual"].hopf
    entries = dict(h.U.mul.entries)
    entries[(0, 10)] = entries.get((0, 10), 0) + 1
    U = AlgebraData(h.U.space, LinMap(h.U.mul.dom, h.U.mul.cod, QQ, entries),
                    h.U.unit, QQ, "mutant")
    return HopfAlgebroidData(U, h.A, h.s_L, h.t_L, h.delta_lift, h.eps_L,
                             h.S, "mutant")


def test_window_certificate_checks_each_boundary():
    h = _mul_mutant()
    du = h.U.space.dim

    def product(pipe, s):
        return pipe.block(s, 2, h.U.mul)

    descend(h.U.mul, h.rtower(2), h.rtower(1))
    src, dst, dims = h.rtower(3), h.rtower(2), [du] * 3
    for s, side in ((0, "right"), (1, "left")):
        with pytest.raises(DescentFailure):
            descend(product(Pipe(dims, QQ), s).map, src, dst)
        certify, _ = cyclichom._window_ops(h)
        with pytest.raises(DescentFailure, match="product is not A-linear at "
                           "its %s boundary" % side) as exc:
            certify("R", product, 2, s, src, dst, dims)
        j, col = exc.value.witness
        assert any(col) and len(col) == du


@pytest.mark.parametrize("name", ["pair_dual", "pair_split", "group_c2"])
def test_window_certificate_rejects_non_faces(name):
    """Window ops that are no faces: u (x) v -> u S(v), and the unit
    inserted between two slots of the coproduct-side tower (s(a) 1 is not
    t(a) 1 there).  The certificate rejects them exactly where the global
    descend does."""
    h = gallery()[name].hopf
    du = h.U.space.dim
    unit = h.U.unit_map()

    def twisted(pipe, s):
        return pipe.block(s + 1, 1, h.S).block(s, 2, h.U.mul)

    def unit_in(pipe, s):
        return pipe.block(s, 0, unit)

    rejected = []
    for side, tower in (("R", h.rtower), ("L", h.ltower)):
        for st, k_in, k_out in ((twisted, 2, 1), (unit_in, 0, 1)):
            for n in (2, 3, 4):
                src, dst = tower(n), tower(n - k_in + k_out)
                for s in range(n - k_in + 1):
                    dims = [du] * n
                    try:
                        descend(st(Pipe(dims, QQ), s).map, src, dst)
                        want = None
                    except DescentFailure:
                        want = DescentFailure
                    try:
                        cyclichom._window_ops(h)[0](side, st, k_in, s, src,
                                                    dst, dims)
                        got = None
                    except DescentFailure as exc:
                        assert exc.witness is not None
                        got = DescentFailure
                        rejected.append((side, str(exc)))
                    assert got is want, (name, side, st.__name__, n, s)
    if name == "group_c2":
        assert not rejected
    else:
        assert any(side == "L" and "unit_in is not A-linear at its empty "
                   "boundary" in msg for side, msg in rejected)
        assert any("twisted" in msg for _, msg in rejected)


def test_degree_six_frontier():
    e = gallery()["pair_dual"]
    cm = build_cyclic_with_coeffs(e.hopf, e.sayd, 6)
    rep = check_cyclic_module(cm)
    assert rep.ok, rep.failures()
    assert cyclic_homology_char0(cm).dims == [2, 0, 2, 0, 2, 0]
    plain = build_cyclic_CU(e.hopf, 6)
    assert hochschild_homology(plain).dims == [2, 1, 1, 1, 1, 1]


def test_rational_base_frontier():
    """pair(Q[x]/(x^2 - 2 - x)), whose towers have fractional projections
    (1/2 and -1/2 already at rtower(2)), with the base as coefficients at
    degree 5: every operator goes through Pipe stages and @ over Q."""
    sp = Space(2, "A")
    mul = LinMap(Space(4), sp, QQ,
                 {(0, 0): 1, (1, 1): 1, (1, 2): 1, (0, 3): 2, (1, 3): 1})
    A = AlgebraData(sp, mul, (1, 0), QQ, "A")
    h = pair_hopf_algebroid(A)
    cm = build_cyclic_with_coeffs(h, base_sayd_for_pair(h, A), 5)
    rep = check_cyclic_module(cm)
    assert rep.ok, rep.failures()
    assert cyclic_homology_char0(cm).dims == [2, 0, 2, 0, 2]


def _quadratic_base(field, a, b):
    """field[x]/(x^2 - a - b x), basis (1, x)."""
    sp = Space(2, "x2=%d+%dx" % (a, b))
    mul = LinMap(Space(4), sp, field,
                 {(0, 0): 1, (1, 1): 1, (1, 2): 1,
                  (0, 3): field.of_int(a), (1, 3): field.of_int(b)})
    return AlgebraData(sp, mul, (1, 0), field, sp.label)


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_hopf_galois_map_intertwines_the_cyclic_operators(field):
    """xi_n t_n = tau_n xi_n with coefficients, and xi_n t_n = tau_n^n xi_n
    (= tau_n^{-1} xi_n) without: t the cyclic operator of the chain-side
    module and tau that of the cochain side.  Degrees up to 4, except
    pair(kxk) up to 3: its Hopf-Galois map takes seconds at degree 4."""
    entries = [(name, e.hopf, e.sayd) for name, e in gallery(field).items()]
    for a, b in ((3, 0), (2, 1), (-5, 0)):
        A = _quadratic_base(field, a, b)
        h = pair_hopf_algebroid(A)
        entries.append((A.label, h, base_sayd_for_pair(h, A)))
    for name, h, p in entries:
        N = 3 if name == "pair_split" else 4
        xs = hopf_galois_chain_map(h, N)
        t, tau = build_cyclic_CU(h, N).cyc, build_cocyclic_CU(h, N).cyc
        for n in range(N + 1):
            power = LinMap.identity(tau[n].dom, field)
            for _ in range(n):
                power = tau[n] @ power
            assert xs[n] @ t[n] == power @ xs[n], (name, n)
            # the power matters from degree 2 on, wherever U is not k
            if n >= 2 and name != "trivial":
                assert xs[n] @ t[n] != tau[n] @ xs[n], (name, n)
        xs = hopf_galois_chain_map(h, N, p)
        t = build_cyclic_with_coeffs(h, p, N).cyc
        tau = build_cocyclic_with_coeffs(h, p, N).cyc
        for n in range(N + 1):
            assert xs[n] @ t[n] == tau[n] @ xs[n], (name, n)


# -- operator families built on first read --------------------------------

def _logged_families(monkeypatch):
    """Log each operator family of a built module, by name, when it is
    evaluated: at build if the builder hands it over evaluated, otherwise
    on its first read."""
    real = cyclichom._module
    log = []

    def logged(name, fam):
        def evaluate():
            log.append(name)
            return fam()
        return evaluate

    def module(*args):
        cm = real(*args)
        for name, fam in cm._families.items():
            if callable(fam):
                cm._families[name] = logged(name, fam)
            else:
                log.append(name)
        return cm
    monkeypatch.setattr(cyclichom, "_module", module)
    return log


def _builds(e, N=3):
    """The four builders on a gallery entry, as (variant, build) pairs."""
    h, p = e.hopf, e.sayd
    return [("cyclic", lambda: build_cyclic_CU(h, N)),
            ("cocyclic", lambda: build_cocyclic_CU(h, N)),
            ("cyclic", lambda: build_cyclic_with_coeffs(h, p, N)),
            ("cocyclic", lambda: build_cocyclic_with_coeffs(h, p, N))]


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_every_module_evaluates_the_families_each_reader_reads(field,
                                                              monkeypatch):
    """Free towers (the groups) and towers with relations (the pairs)
    alike."""
    log = _logged_families(monkeypatch)
    g = gallery(field)
    for name in ("group_c2", "group_c3", "pair_dual", "pair_split"):
        for variant, build in _builds(g[name]):
            readers = [(hochschild_homology, {"faces"}),
                       (cyclic_homology_char0, {"faces", "cyc"}),
                       (check_cyclic_module, {"faces", "degen", "cyc"})]
            if variant == "cyclic":
                readers.append((lambda cm: hochschild_homology(
                    cm, normalized=True), {"faces", "degen"}))
            for read, want in readers:
                cm = build()
                assert log == [], (name, variant)
                for _ in range(2):      # the second read evaluates nothing
                    try:
                        read(cm)
                    except CharNotZero:
                        # HC over F_p reads no family
                        assert field.char and log == []
                        continue
                    assert sorted(log) == sorted(want), (name, variant, read)
                log.clear()


def test_scenario_hochschild_task_evaluates_only_the_faces(monkeypatch):
    from hopfcyclic.scenario import parse_scenario_text, run
    import json
    log = _logged_families(monkeypatch)
    group = {"hopf_algebroids": {"H": {"preset": "group_c3"}},
             "tasks": [{"kind": "homology", "object": "H", "theory": "HH"}]}
    # towers with relations, and coefficients
    pair = {"algebras": {"E": {"preset": "dual_numbers"}},
            "hopf_algebroids": {"H": {"pair_of": "E"}},
            "sayd_modules": {"P": {"preset": "base_pair", "hopf": "H",
                                   "algebra": "E"}},
            "tasks": [{"kind": "homology", "object": "H", "theory": "HH",
                       "coefficients": "P", "max_degree": 4}]}
    for doc in (group, pair):
        for field in ("Q", "F5"):
            rep = run(parse_scenario_text(json.dumps(doc),
                                          field_override=field))
            assert rep.ok
            assert log == ["faces"], field
            log.clear()


def _structure_mutants(field):
    """pair_dual and pair_split with one entry of one structure map raised
    by one, four random entries per map: (name of the map, algebroid, its
    base as SAYD module)."""
    from test_acceptance import _mutate
    import random
    rng = random.Random(0)
    out = []
    for entry in ("pair_dual", "pair_split"):
        g = gallery(field)[entry].hopf
        maps = {"mul": g.U.mul, "s": g.s_L, "t": g.t_L,
                "delta_lift": g.delta_lift, "eps_L": g.eps_L, "S": g.S}
        for name, m in maps.items():
            for _ in range(4):
                i, j = rng.randrange(m.cod.dim), rng.randrange(m.dom.dim)
                ms = dict(maps, **{name: _mutate(m, i, j, field)})
                U = AlgebraData(g.U.space, ms["mul"], g.U.unit, field,
                                "mutant")
                h = HopfAlgebroidData(U, g.A, ms["s"], ms["t"],
                                      ms["delta_lift"], ms["eps_L"], ms["S"],
                                      "mutant")
                out.append((name, h, base_sayd_for_pair(h, g.A)))
    return out


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_only_cyclic_operator_failures_surface_on_read(field, monkeypatch):
    """Where a build of a mutant fails, against a reference build that
    reads every family inside the builder call.  A failed certificate of a
    face or degeneracy, or a failed step, raises from the builder call; a
    failure that only the cyclic operators hit raises on the first read
    of `cyc`.  Both carry the reference's class and message, and reading
    the faces and degeneracies never raises."""
    real = cyclichom._module

    def eager(*args):
        cm = real(*args)
        cm.faces, cm.degen, cm.cyc
        return cm

    def raised(read):
        try:
            read()
        except (DescentFailure, NoSolution) as exc:
            return type(exc), str(exc)

    from test_exactlin import witness_checked
    failures = []
    monkeypatch.setattr(cyclichom, "descend",
                        witness_checked(cyclichom.descend, failures))
    moved = set()
    for name, h, p in _structure_mutants(field):
        for build, args in ((build_cyclic_CU, (h,)),
                            (build_cocyclic_CU, (h,)),
                            (build_cyclic_with_coeffs, (h, p)),
                            (build_cocyclic_with_coeffs, (h, p))):
            with monkeypatch.context() as mp:
                mp.setattr(cyclichom, "_module", eager)
                want = raised(lambda: build(*args, 3))
            cms = []
            got = raised(lambda: cms.append(build(*args, 3)))
            if not cms:
                assert got == want, (name, build.__name__)
                continue
            cm, = cms
            cm.faces, cm.degen
            got = raised(lambda: cm.cyc)
            assert got == want, (name, build.__name__)
            if got:
                moved.add((name, build.__name__))
    # the cyclic operators of the plain modules read S and delta_lift
    # where no face or degeneracy does
    assert {("S", "build_cocyclic_CU"),
            ("delta_lift", "build_cyclic_CU")} <= moved
    # and each failure of descend named the witness of descent_witness
    assert failures


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_descend_is_the_projected_lift_on_the_gallery(field, monkeypatch):
    """descend projects first; on every operator of the gallery that goes
    through it (cyclic operators, Hopf-Galois maps) the result is the
    section lift projected into the target, as before."""
    real = cyclichom.descend
    seen = []

    def compared(f_free, src, dst):
        got = real(f_free, src, dst)
        assert got == dst.project(src.lift(f_free))
        seen.append(src.free)
        return got
    monkeypatch.setattr(cyclichom, "descend", compared)
    for name, e in gallery(field).items():
        for cm in _four_modules(e.hopf, e.sayd, 3):
            cm.cyc
        hopf_galois_chain_map(e.hopf, 3)
        hopf_galois_chain_map(e.hopf, 3, e.sayd)
    assert set(seen) == {True, False}


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_families_do_not_depend_on_the_order_they_are_read(field):
    """Reading the families in reverse order gives the same operators.  The
    pair algebroids run at N <= 2 only, to keep the test short."""
    for name, e in gallery(field).items():
        for N in range(1, 3 if name.startswith("pair") else 5):
            for _, build in _builds(e, N):
                a, b = build(), build()
                fa = [a.faces, a.degen, a.cyc]
                fb = [b.cyc, b.degen, b.faces][::-1]
                for x, y in zip(fa, fb):
                    assert x.keys() == y.keys(), (name, N)
                    assert all(x[n] == y[n] for n in x), (name, N)


def _raising_delta_mutants(field):
    """group_c2 with one entry of delta_lift raised by one, for every entry
    where that makes translation_lift raise: (algebroid, SAYD module over
    it, the exception translation_lift raises)."""
    from hopfcyclic.hopfalgebroid import SaydModuleData, translation_lift
    from test_acceptance import _mutate
    e = gallery(field)["group_c2"]
    g, q = e.hopf, e.sayd
    out = []
    for i in range(g.delta_lift.cod.dim):
        for j in range(g.delta_lift.dom.dim):
            h = HopfAlgebroidData(g.U, g.A, g.s_L, g.t_L,
                                  _mutate(g.delta_lift, i, j, field),
                                  g.eps_L, g.S, "mutant")
            try:
                translation_lift(h)
            except (NoSolution, DescentFailure) as exc:
                out.append((h, SaydModuleData(h, q.space, q.action,
                                              q.coact_lift, "mutant"), exc))
    return out


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_build_time_errors_stay_at_build(field, monkeypatch):
    """On free towers the coefficient builders still raise what the
    translation map raises, from the builder call, with nothing evaluated;
    the plain builders, which do not read it, build."""
    import re
    log = _logged_families(monkeypatch)
    mutants = _raising_delta_mutants(field)
    assert mutants
    for h, p, exc in mutants:
        assert p.chain_tower(3).free and p.capped_tower(3).free
        for build in (build_cyclic_with_coeffs, build_cocyclic_with_coeffs):
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                build(h, p, 3)
        assert log == []
        build_cyclic_CU(h, 3), build_cocyclic_CU(h, 3)
        assert log == []


def test_deferred_families_leave_no_reference_cycles():
    import gc
    e = gallery()["group_c3"]
    for _, build in _builds(e):
        build().faces       # grow the towers and lifts the builds keep
    gc.collect()
    gc.disable()
    try:
        for _, build in _builds(e):
            cm = build()
            cm.faces
            del cm
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_module_input_errors_are_typed():
    h = gallery()["group_c2"].hopf
    cm = build_cyclic_CU(h, 2)
    with pytest.raises(ValueError, match="unknown variant 'sideways'"):
        cyclichom.CyclicModuleData("sideways", 2, cm.spaces, cm.faces,
                                   cm.degen, cm.cyc, cm.field)
    with pytest.raises(ValueError, match="chain side"):
        mixed_complex(build_cocyclic_CU(h, 2))
    with pytest.raises(ValueError, match="unknown theory 'hh': HH or HC"):
        homology(cm, "hh")
    for args in ((cm, "HC", True), (build_cocyclic_CU(h, 2), "HH", True)):
        with pytest.raises(ValueError, match="normalized homology is HH "
                           "of the chain side"):
            homology(*args)
