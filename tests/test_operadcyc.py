from fractions import Fraction
import itertools
import random

import pytest

from hopfcyclic import operadcyc
from hopfcyclic.algcore import ComoduleData, Report
from hopfcyclic.exactlin import (
    QQ, DescentFailure, FieldSpec, LinMap, Pipe, QuotientPresentation, Space,
    descend, descent_witness, kernel, pack_slices, permute_factors, solve,
    tensor_presentation,
)
from hopfcyclic.hopfalgebroid import (
    SaydModuleData, gallery, group_hopf_algebroid, scalar_sayd,
    scalar_yd_algebra, translation_lift, trivial_hopf_algebroid,
)
from hopfcyclic.measuring import (
    YdMeasuringData, check_yd_measuring, point_coalgebra,
    primitive_pair_coalgebra,
)
from hopfcyclic.cyclichom import (
    build_cyclic_with_coeffs, check_cyclic_module,
    cyclic_homology_char0, hochschild_homology,
)
from hopfcyclic.operadcyc import (
    CertificateFailure, CompComoduleMeasuringData, CompModuleData,
    HomBasis, OperadData, OperadMeasuringData, StabilityFailure,
    _hom_coords, build_ayd_coefficient,
    build_yd_comp_module, build_yd_operad, check_comp_comodule_measuring,
    check_comp_module, check_operad, check_operad_measuring,
    comp_cyclic_module, induce_from_yd, induced_comp_map,
    one_dimensional_comp_module, one_dimensional_operad,
)


@pytest.fixture(scope="module")
def c2():
    h = group_hopf_algebroid(2, QQ)
    z = scalar_yd_algebra(h)
    od = build_yd_operad(h, z, 3)
    return h, z, od


@pytest.fixture(scope="module")
def c2_module(c2):
    h, z, od = c2
    l = scalar_sayd(h)
    return l, build_yd_comp_module(h, l, z, od, 3)


def test_one_dimensional_operad():
    od = one_dimensional_operad(QQ, 4)
    rep = check_operad(od)
    assert rep.ok, rep.failures()
    cm = one_dimensional_comp_module(od, 4)
    rep = check_comp_module(cm)
    assert rep.ok, rep.failures()


def test_one_dimensional_cyclic_module_is_point():
    od = one_dimensional_operad(QQ, 4)
    cm = one_dimensional_comp_module(od, 4)
    cyc = comp_cyclic_module(cm)
    rep = check_cyclic_module(cyc)
    assert rep.ok, rep.failures()
    assert hochschild_homology(cyc).dims == [1, 0, 0, 0]
    assert cyclic_homology_char0(cyc).dims == [1, 0, 1, 0]


def test_yd_operad_over_point():
    h = trivial_hopf_algebroid(QQ)
    od = build_yd_operad(h, scalar_yd_algebra(h), 3)
    assert [sp.dim for sp in od.spaces] == [1, 1, 1, 1]
    rep = check_operad(od)
    assert rep.ok, rep.failures()


def test_yd_operad_group(c2):
    _h, _z, od = c2
    assert [sp.dim for sp in od.spaces] == [1, 2, 4, 8]
    rep = check_operad(od)
    assert rep.ok, rep.failures()


def test_perturbed_operad_detected(c2):
    h, z, od = c2
    comp = dict(od.comp)
    bad = LinMap(comp[(2, 2, 1)].dom, comp[(2, 2, 1)].cod, QQ,
                 dict(comp[(2, 2, 1)].entries))
    bad.entries[(0, 0)] = QQ.add(bad.entries.get((0, 0), QQ.zero), QQ.one)
    comp[(2, 2, 1)] = bad
    od2 = OperadData(od.spaces, comp, od.one, od.m, od.e, QQ, "perturbed")
    rep = check_operad(od2)
    assert not rep.ok
    fails = [r for r in rep.results if not r.passed]
    assert any(r.witness is not None for r in fails)


def test_yd_comp_module(c2, c2_module):
    _l, cm = c2_module
    assert [sp.dim for sp in cm.spaces] == [1, 2, 4, 8]
    rep = check_comp_module(cm)
    assert rep.ok, rep.failures()


def test_comp_cyclic_module_axioms(c2_module):
    _l, cm = c2_module
    cyc = comp_cyclic_module(cm)
    rep = check_cyclic_module(cyc)
    assert rep.ok, rep.failures()


def test_unstable_coefficient_rejected():
    h = group_hopf_algebroid(2, QQ)
    z = scalar_yd_algebra(h)
    # action by the sign character, coaction by the nontrivial group element
    act = LinMap(Space(2), Space(1), QQ,
                 {(0, 0): Fraction(1), (0, 1): Fraction(-1)})
    coact = LinMap(Space(1), Space(2), QQ, {(1, 0): Fraction(1)})
    bad = SaydModuleData(h, Space(1), act, coact, "sign")
    with pytest.raises(StabilityFailure):
        build_ayd_coefficient(h, bad, z)


def _identity_yd_measuring(h, z):
    C = point_coalgebra(QQ)
    psi = LinMap(Space(z.Z.space.dim), z.Z.space, QQ,
                 {(i, i): QQ.one for i in range(z.Z.space.dim)})
    return YdMeasuringData(C, z, z, psi, "id")


def test_induced_measurings_identity(c2, c2_module):
    h, z, od = c2
    l, cm = c2_module
    ym = _identity_yd_measuring(h, z)
    assert check_yd_measuring(ym).ok
    ident = LinMap.identity(l.space, QQ)
    om, ccm = induce_from_yd(ym, l, l, ident, od, od, cm, cm, 3)
    rep = check_operad_measuring(om)
    assert rep.ok, rep.failures()
    rep = check_comp_comodule_measuring(ccm)
    assert rep.ok, rep.failures()
    maps, cert = induced_comp_map(ccm, (QQ.one,))
    assert cert.ok, cert.failures()
    for n, mm in enumerate(maps):
        assert (mm - LinMap.identity(cm.spaces[n], QQ)).is_zero(), n


def test_primitive_gives_zero_map(c2, c2_module):
    h, z, od = c2
    l, cm = c2_module
    C = primitive_pair_coalgebra(QQ)
    # psi sends the grouplike to the identity and the primitive to zero
    psi = LinMap(Space(2), z.Z.space, QQ, {(0, 0): QQ.one})
    ym = YdMeasuringData(C, z, z, psi, "g,x")
    assert check_yd_measuring(ym).ok
    ident = LinMap.identity(l.space, QQ)
    om, ccm = induce_from_yd(ym, l, l, ident, od, od, cm, cm, 3)
    assert check_operad_measuring(om).ok
    assert check_comp_comodule_measuring(ccm).ok
    maps, cert = induced_comp_map(ccm, (QQ.zero, QQ.one))
    assert cert.ok, cert.failures()
    for mm in maps:
        assert mm.is_zero()


def test_induced_comp_map_across_top_degrees():
    """Between comp modules of top degree 4 and 2, the maps run to degree
    2 and each cyclic module keeps its own top degree."""
    od = one_dimensional_operad(QQ, 4)
    src = one_dimensional_comp_module(od, 4)
    dst = one_dimensional_comp_module(od, 2)
    C = point_coalgebra(QQ)
    one = LinMap.identity(Space(1), QQ)
    om = OperadMeasuringData(C, od, od, {n: one for n in range(5)}, "id")
    D = ComoduleData(C, C.space, C.comul, "left", "D=C")
    ccm = CompComoduleMeasuringData(om, D, src, dst,
                                    {n: one for n in range(3)}, "id")
    assert check_operad_measuring(om).ok
    assert check_comp_comodule_measuring(ccm).ok
    maps, cert = induced_comp_map(ccm, (QQ.one,))
    assert len(maps) == 3
    assert cert.ok, cert.failures()
    names = [r.name for r in cert.results]
    assert names[-1] == "t@2"
    assert not any(name.endswith("@3") for name in names)
    cyc = comp_cyclic_module(src)
    assert cyc.N == 4 and len(cyc.dims()) == 5


def test_broken_measuring_detected(c2, c2_module):
    h, z, od = c2
    l, cm = c2_module
    ym = _identity_yd_measuring(h, z)
    ident = LinMap.identity(l.space, QQ)
    om, _ccm = induce_from_yd(ym, l, l, ident, od, od, cm, cm, 3)
    om.Psi[2] = om.Psi[2].scaled(Fraction(2))
    rep = check_operad_measuring(om)
    assert not rep.ok


def test_bad_module_morphism_rejected(c2, c2_module):
    h, z, od = c2
    l, cm = c2_module
    # target with the sign action does not intertwine with the identity
    act = LinMap(Space(2), Space(1), QQ,
                 {(0, 0): Fraction(1), (0, 1): Fraction(-1)})
    coact = LinMap(Space(1), Space(2), QQ, {(0, 0): Fraction(1)})
    bad = SaydModuleData(h, Space(1), act, coact, "sign")
    ym = _identity_yd_measuring(h, z)
    ident = LinMap.identity(l.space, QQ)
    with pytest.raises(CertificateFailure):
        induce_from_yd(ym, l, bad, ident, od, od, cm, cm, 3)


# -- batched composition against the per-pair reference -------------------
#
# The reference builds every operad and comp-module map one pair of basis
# maps at a time, each through its own Pipe, and reads coordinates with one
# solve per column: the construction the batched builders replace, kept here
# as their oracle.

def _ref_basis(od, n):
    """The ambient-level basis maps of O(n), one LinMap each."""
    f = od.field
    pres, K = od.hom_data[n].pres, od.hom_data[n].coords
    Z = od.z.Z.space
    if n == 0:
        return [LinMap(Space(1), Z, f, {(i, 0): f.one}) for i in range(Z.dim)]
    w = pres.quotient.dim
    out = []
    for j in range(K.dom.dim):
        vec = K.column(j)
        fq = LinMap(pres.quotient, Z, f,
                    {(zi, wj): vec[zi * w + wj] for zi in range(Z.dim)
                     for wj in range(w)})
        out.append(fq @ pres.projection)
    return out


def _ref_coords(pres, K, amb_map):
    """Coordinates of one ambient-level hom map: lift, check that it
    factors through the tower, one solve."""
    f = amb_map.field
    if pres is None:
        return tuple(amb_map.column(0))
    w = pres.quotient.dim
    fq = amb_map @ pres.section
    back = fq @ pres.projection
    if not (back - amb_map).is_zero():
        j = (back - amb_map).nonzero_column_index()
        raise DescentFailure("hom does not factor through the tower",
                             witness=(j, (back - amb_map).column(j)))
    vec = [f.zero] * K.cod.dim
    for (zi, wj), v in fq.entries.items():
        vec[zi * w + wj] = v
    return tuple(solve(K, vec))


def _ref_circ(h, z, F, p, G, q, i):
    """F o_i G on the free level, for two single hom maps."""
    f = h.field
    du = h.U.space.dim
    dz = z.Z.space.dim
    nout = p + q - 1
    a = p + q - i
    tails = nout - a
    c = p - i
    pipe = Pipe([du] * nout, f)
    for k in range(a):
        pipe.block(2 * k, 1, h.delta_lift, [du, du])
    pipe.permute([2 * (j - 1) for j in range(c + 1, a + 1)]
                 + [2 * j - 1 for j in range(c + 1, a + 1)]
                 + [2 * (j - 1) for j in range(1, c + 1)]
                 + [2 * a + k for k in range(tails)]
                 + [2 * j - 1 for j in range(1, c + 1)])
    pipe.block(0, q, z.coact_lift @ G, [du, dz])
    pipe.permute(list(range(2 + q, 2 + q + c)) + [0]
                 + list(range(2, 2 + q))
                 + list(range(2 + q + c, 2 + q + 2 * c + tails)) + [1])
    pipe.block(c, q + 1, _ref_mul_n(h.U, q + 1), [du])
    pipe.block(0, p, F, [dz])
    if c:
        pipe.block(1, c, _ref_mul_n(h.U, c)).block(1, 2, z.action)
    return pipe.block(0, 2, z.Z.mul).map


def _ref_mul_n(alg, k):
    pipe = Pipe([alg.space.dim] * k, alg.field)
    for _ in range(k - 1):
        pipe.block(0, 2, alg.mul)
    return pipe.map


def _ref_m_lift(h, msayd, dl, k):
    mpres = msayd.presentation
    pipe = Pipe([mpres.quotient.dim] + [h.U.space.dim] * k, h.field)
    return pipe.block(0, 1, mpres.section, [dl, mpres.ambient.dim // dl])


def _ref_m_descend(h, pipe, msayd, k):
    pipe.block(0, 2, msayd.presentation.projection)
    return descend(pipe.map, msayd.chain_tower(k),
                   msayd.chain_tower(len(pipe.dims) - 1))


def _ref_bullet_pos(h, l, z, msayd, F, p, k, i):
    du = h.U.space.dim
    c = k - p - i + 1
    tails = i - 1
    pipe = _ref_m_lift(h, msayd, l.space.dim, k)
    for j in range(c + p):
        pipe.block(2 + 2 * j, 1, h.delta_lift, [du, du])
    pipe.permute([2 + 2 * j for j in range(c, c + p)] + [0]
                 + [3 + 2 * j for j in range(c)] + [1]
                 + [2 + 2 * j for j in range(c)]
                 + [3 + 2 * j for j in range(c, c + p)]
                 + [2 + 2 * (c + p) + j for j in range(tails)])
    pipe.block(0, p, z.coact_lift @ F, [du, z.Z.space.dim])
    pipe.permute([2] + list(range(3, 3 + c)) + [1, 3 + c]
                 + list(range(4 + c, 4 + 2 * c)) + [0]
                 + list(range(4 + 2 * c, 4 + 2 * c + p + tails)))
    if c:
        pipe.block(1, c, _ref_mul_n(h.U, c)).block(1, 2, z.action)
    pipe.block(1, 2, z.Z.mul)
    pipe.block(2 + c, p + 1, _ref_mul_n(h.U, p + 1))
    return _ref_m_descend(h, pipe, msayd, k)


def _ref_bullet_zero(h, l, z, msayd, F, p, k):
    du = h.U.space.dim
    dl = l.space.dim
    c = k - p + 1
    trans = translation_lift(h)
    pipe = _ref_m_lift(h, msayd, dl, k)
    for j in range(k):
        pipe.block(2 + 2 * j, 1, trans, [du, du])
    for j in range(c):
        pipe.block(2 + 3 * j, 1, h.delta_lift, [du, du])
    pipe.block(0, 1, l.coact_lift, [du, dl])
    pipe.block(2, 1, z.coact_lift, [du, z.Z.space.dim])
    mn = [6 + 3 * j for j in range(c)]
    rest_plus = [4 + 3 * c + 2 * j for j in range(k - c)]
    rest_minus = [5 + 3 * c + 2 * j for j in range(k - c)]
    down = list(reversed(rest_minus)) + list(reversed(mn)) + [2, 0]
    pipe.permute(rest_plus + down + [1] + [5 + 3 * j for j in range(c)]
                 + [3] + [4 + 3 * j for j in range(c)])
    pipe.block(len(rest_plus), len(down), _ref_mul_n(h.U, len(down)))
    pipe.block(0, p, F, [z.Z.space.dim])
    pipe.permute([1] + list(range(2, 2 + c)) + [0, 2 + c]
                 + list(range(3 + c, 3 + 2 * c)))
    if c:
        pipe.block(1, c, _ref_mul_n(h.U, c)).block(1, 2, z.action)
    pipe.block(1, 2, z.Z.mul)
    return _ref_m_descend(h, pipe, msayd, k)


def _ref_t(h, l, z, msayd, k):
    du = h.U.space.dim
    dl = l.space.dim
    trans = translation_lift(h)
    pipe = _ref_m_lift(h, msayd, dl, k)
    for j in range(k):
        pipe.block(2 + 2 * j, 1, trans, [du, du])
    pipe.block(2, 1, trans, [du, du])
    pipe.block(0, 1, l.coact_lift, [du, dl])
    pipe.block(2, 1, z.coact_lift, [du, z.Z.space.dim])
    plus = [7 + 2 * j for j in range(k - 1)]
    minus = [8 + 2 * j for j in range(k - 1)]
    pipe.permute([1, 4, 5, 3] + plus + list(reversed(minus)) + [6, 2, 0])
    pipe.block(0, 2, l.action)
    pipe.block(1, 2, z.action)
    pipe.block(2 + (k - 1), k + 2, _ref_mul_n(h.U, k + 2))
    return _ref_m_descend(h, pipe, msayd, k)


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
@pytest.mark.parametrize("order", [2, 3])
def test_batched_operad_and_comp_module_match_the_per_pair_reference(
        field, order):
    N = 3
    h = group_hopf_algebroid(order, field)
    z = scalar_yd_algebra(h)
    l = scalar_sayd(h)
    od = build_yd_operad(h, z, N)
    cm = build_yd_comp_module(h, l, z, od, N)
    basis = {n: _ref_basis(od, n) for n in range(N + 1)}
    for n in range(N + 1):
        assert od.hom_data[n].pack == pack_slices(basis[n], field), n

    def coords(n, amb):
        return _ref_coords(od.hom_data[n].pres, od.hom_data[n].coords, amb)

    for (p, q, i), comp in od.comp.items():
        want = LinMap.from_columns(
            comp.dom, comp.cod, field,
            [coords(p + q - 1, _ref_circ(h, z, F, p, G, q, i))
             for F in basis[p] for G in basis[q]])
        assert comp == want, (p, q, i)
    du = h.U.space.dim
    one_amb = Pipe([du], field).block(0, 1, h.s_L @ h.eps_L) \
        .block(1, 0, z.Z.unit_map()).block(0, 2, z.action).map
    assert od.one == coords(1, one_amb)
    m_amb = Pipe([du, du], field) \
        .block(0, 2, h.s_L @ (h.eps_L @ _ref_mul_n(h.U, 2))) \
        .block(1, 0, z.Z.unit_map()).block(0, 2, z.action).map
    assert od.m == coords(2, m_amb)

    msayd = cm.msayd
    for k in range(1, N + 1):
        assert cm.t[k] == _ref_t(h, l, z, msayd, k), k
    for (p, k, i), b in cm.bullet.items():
        cols = []
        for F in basis[p]:
            mm = _ref_bullet_zero(h, l, z, msayd, F, p, k) if i == 0 \
                else _ref_bullet_pos(h, l, z, msayd, F, p, k, i)
            cols += [mm.column(j) for j in range(mm.dom.dim)]
        assert b == LinMap.from_columns(b.dom, b.cod, field, cols), (p, k, i)
    assert check_operad(od).ok and check_comp_module(cm).ok


def test_products_and_coproduct_lifts_are_cached():
    for order in (2, 3):
        h = group_hopf_algebroid(order, QQ)
        for k in (1, 2, 3, 4):
            m = h.U.mul_n(k)
            assert h.U.mul_n(k) is m
            assert m == _ref_mul_n(h.U, k)
            d = h.iterated_delta_lift(k)
            assert h.iterated_delta_lift(k) is d
            pipe = Pipe([h.U.space.dim], QQ)
            for j in range(1, k):
                pipe.block(j - 1, 1, h.delta_lift, [h.U.space.dim] * 2)
            assert d == pipe.map


def _sparse_map(rng, f, dom, cod):
    return LinMap(dom, cod, f, {
        (rng.randrange(cod.dim), rng.randrange(dom.dim)):
            f.of_int(rng.randint(-2, 2)) for _ in range(2 * dom.dim)})


def _slice_family(rng, f, src, dst, count):
    """count maps src.ambient -> dst.ambient, each random or built to
    descend (a lift of a map of quotients plus a map into dst's
    relations)."""
    out = []
    for _ in range(count):
        if rng.random() < 0.3:
            out.append(_sparse_map(rng, f, src.ambient, dst.ambient))
            continue
        g = _sparse_map(rng, f, src.quotient, dst.quotient)
        m = dst.section @ (g @ src.projection)
        if dst.relations.dom.dim:
            m = m + dst.relations @ _sparse_map(rng, f, src.ambient,
                                                dst.relations.dom)
        out.append(m)
    return out


def _first_failing_slice(slices, src, dst):
    """(b, (r, column)): the first slice b that does not descend and its
    own descend witness, or None."""
    for b, m in enumerate(slices):
        try:
            descend(m, src, dst)
        except DescentFailure as exc:
            return b, exc.witness
    return None


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_descend_family_is_descend_slice_by_slice(field):
    # a family packed as K (x) src.ambient -> dst.ambient descends from
    # K (x) src exactly when every slice descends, to the slices' maps
    # packed again; relation column b * n_rel + r of K (x) src is relation
    # r of slice b, so a failure names the first failing slice b and that
    # slice's own witness (r, column).  The pair towers have balancing
    # relations, so the check and the non-free lift both run.
    rng = random.Random(6)
    h = gallery(field)["pair_dual"].hopf
    press = [h.rtower(1), h.rtower(2), h.ltower(2)]
    fam = QuotientPresentation.trivial(Space(3), field)
    outcomes = set()
    for src in press:
        n_rel = src.relations.dom.dim
        for dst in press:
            for _ in range(6):
                slices = _slice_family(rng, field, src, dst, 3)
                packed = pack_slices(slices, field)
                first = _first_failing_slice(slices, src, dst)
                if first is not None:
                    b, (r, col) = first
                    outcomes.add("fail" if b == 0 else "fail past slice 0")
                    with pytest.raises(DescentFailure) as exc:
                        descend(packed, tensor_presentation(fam, src), dst)
                    assert exc.value.witness == (b * n_rel + r, col) == \
                        descent_witness(packed,
                                        tensor_presentation(fam, src), dst)
                    assert str(exc.value) == \
                        "map does not descend (relation column %d)" \
                        % (b * n_rel + r)
                    continue
                outcomes.add("ok")
                want = [descend(m, src, dst) for m in slices]
                assert descend(packed, tensor_presentation(fam, src), dst) \
                    == pack_slices(want, field)
    assert outcomes == {"ok", "fail", "fail past slice 0"}


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_hom_coords_on_a_tower_with_relations(field, monkeypatch):
    # the operads of scalar YD algebras live on free towers; on the pair
    # tower the batched coordinates still equal one solve per map, and a
    # family with a map that does not factor through the tower raises
    # descend's DescentFailure from K (x) W_2 to Z: relation column
    # b * n_rel + r for the first such map b and its own witness (r, column)
    from test_exactlin import witness_checked
    rng = random.Random(11)
    failures = []
    monkeypatch.setattr(operadcyc, "descend",
                        witness_checked(operadcyc.descend, failures))
    h = gallery(field)["pair_dual"].hopf
    pres = h.rtower(2)
    n_rel = pres.relations.dom.dim
    dz = 2
    Z = Space(dz)
    triv_z = QuotientPresentation.trivial(Z, field)
    w = pres.quotient.dim
    K = kernel(_sparse_map(rng, field, Space(dz * w), Space(3)))
    space = Space(K.dom.dim)
    K = LinMap(space, K.cod, field, K.entries)
    hom_data = {2: HomBasis(space, pres, None, K)}
    outcomes = set()
    for _ in range(8):
        maps = []
        for _ in range(4):
            x = _sparse_map(rng, field, Space(1), space)
            fq = LinMap(pres.quotient, Z, field, {
                (r // w, r % w): v for (r, _), v in (K @ x).entries.items()})
            amb = fq @ pres.projection
            if rng.random() < 0.15:
                amb = amb + _sparse_map(rng, field, pres.ambient, Z)
            maps.append(amb)
        try:
            want = [_ref_coords(pres, K, m) for m in maps]
        except DescentFailure:
            b, (r, col) = _first_failing_slice(maps, pres, triv_z)
            outcomes.add("fail" if b == 0 else "fail past slice 0")
            with pytest.raises(DescentFailure) as exc:
                _hom_coords(hom_data, 2, pack_slices(maps, field))
            assert exc.value.witness == (b * n_rel + r, col) == failures[-1]
            continue
        assert _first_failing_slice(maps, pres, triv_z) is None
        outcomes.add("ok")
        got = _hom_coords(hom_data, 2, pack_slices(maps, field))
        assert got == LinMap.from_columns(got.dom, space, field, want)
    assert outcomes == {"ok", "fail", "fail past slice 0"}


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
@pytest.mark.parametrize("order", [2, 3])
def test_yd_comp_cyclic_module_is_the_chain_module_with_coefficients(
        field, order):
    """The cyclic module of the YD comp module is the Hopf-cyclic chain
    module with coefficients in M = L (x)_A Z: every face, degeneracy and
    cyclic operator, up to degree 4."""
    N = 4
    h = group_hopf_algebroid(order, field)
    z = scalar_yd_algebra(h)
    od = build_yd_operad(h, z, 2)
    cm = build_yd_comp_module(h, scalar_sayd(h), z, od, N)
    got = comp_cyclic_module(cm)
    want = build_cyclic_with_coeffs(h, cm.msayd, N)
    assert [sp.dim for sp in got.spaces] == [sp.dim for sp in want.spaces]
    for n in range(N + 1):
        assert got.cyc[n] == want.cyc[n], n
        if n >= 1:
            assert got.faces[n] == want.faces[n], n
        if n < N:
            assert got.degen[n] == want.degen[n], n


def test_each_axiom_instance_is_evaluated_once(c2, c2_module, monkeypatch):
    """Every instance that the loop ranges reach yields one item, None or a
    witness; the right_of operad instances and the comp-module instances
    with i <= j - p are their mirrors' and are not reached."""
    counts = {}
    check_family = Report.check_family

    def counting(self, name, witnesses):
        items = list(witnesses)
        counts[name] = len(items)
        return check_family(self, name, items)

    monkeypatch.setattr(Report, "check_family", counting)
    assert check_operad(c2[2]).ok and check_comp_module(c2_module[1]).ok
    assert (counts["associativity"], counts["comp_compatibility"]) \
        == (56, 113)
    od = one_dimensional_operad(QQ, 4)
    assert check_operad(od).ok
    assert check_comp_module(one_dimensional_comp_module(od, 4)).ok
    assert (counts["associativity"], counts["comp_compatibility"]) \
        == (152, 278)


def _operad_sides(od, p, q, r, i, j):
    """Both sides of associativity (f o_i g) o_j h on O(p) (x) O(q) (x) O(r),
    from the comp maps alone, or None where one of the four is missing."""
    c, f = od.comp.get, od.field
    lhs_outer, lhs_inner = c((p + q - 1, r, j)), c((p, q, i))
    inside = i <= j < i + q
    if j < i:
        inner, outer = c((p, r, j)), c((p + r - 1, q, i + r - 1))
    elif inside:
        inner, outer = c((q, r, j - i + 1)), c((p, q + r - 1, i))
    else:
        inner, outer = c((p, r, j - q + 1)), c((p + r - 1, q, i))
    if None in (lhs_outer, lhs_inner, inner, outer):
        return None
    ident = [LinMap.identity(od.spaces[k], f) for k in (p, q, r)]
    lhs = lhs_outer @ lhs_inner.tensor(ident[2])
    if inside:
        return lhs, outer @ ident[0].tensor(inner)
    swap = permute_factors([od.spaces[k].dim for k in (p, q, r)],
                           [0, 2, 1], f)
    return lhs, outer @ inner.tensor(ident[1]) @ swap


def _module_sides(cm, p, q, n, i, j):
    """Both sides of f bullet_i (g bullet_j x) on O(p) (x) O(q) (x) L(n),
    from the comp and bullet maps alone, or None where one of the four is
    missing."""
    od, b, f = cm.operad, cm.bullet.get, cm.field
    lhs_outer, lhs_inner = b((p, n - q + 1, i)), b((q, n, j))
    on_operads = j - p < i <= j
    if j < i:
        inner, outer = b((p, n, i + q - 1)), b((q, n - p + 1, j))
    elif on_operads:
        inner, outer = od.comp.get((p, q, j - i + 1)), b((p + q - 1, n, i))
    else:
        inner, outer = b((p, n, i)), b((q, n - p + 1, j - p + 1))
    if None in (lhs_outer, lhs_inner, inner, outer):
        return None
    ident = [LinMap.identity(sp, f)
             for sp in (od.spaces[p], od.spaces[q], cm.spaces[n])]
    lhs = lhs_outer @ ident[0].tensor(lhs_inner)
    if on_operads:
        return lhs, outer @ inner.tensor(ident[2])
    swap = permute_factors([sp.dim for sp in (od.spaces[p], od.spaces[q],
                                              cm.spaces[n])], [1, 0, 2], f)
    return lhs, outer @ ident[1].tensor(inner) @ swap


def _left_out(od, cm):
    """The instances that the checkers' loop ranges leave out, each with its
    sides function, its mirror, its factor dimensions and the order in
    which the mirror reads its factors."""
    N, dim = od.N, [sp.dim for sp in od.spaces]
    for p, q, r in itertools.product(range(1, N + 1), range(N + 1),
                                     range(N + 1)):
        for i in range(1, p + 1):
            for j in range(i + q, p + q):
                yield (_operad_sides, od, (p, q, r, i, j),
                       (p, r, q, j - q + 1, i), [dim[p], dim[q], dim[r]],
                       [0, 2, 1])
    for p, q, n in itertools.product(range(N + 1), range(N + 1),
                                     range(cm.N + 1)):
        for j in range(0, n + 2 - q):
            for i in range(0, min(n - q + 2 - p, j - p + 1)):
                yield (_module_sides, cm, (p, q, n, i, j),
                       (q, p, n, j - p + 1, i),
                       [dim[p], dim[q], cm.spaces[n].dim], [1, 0, 2])


def _mirror_mismatches(od, cm, shift=0):
    """The left-out instances whose two sides differ from their mirror's
    two sides, crossed over and precomposed with the swap, or which miss a
    map where the mirror does not (or the other way round); the mirror's i
    is moved by `shift`.  Also returns how many left-out instances have
    all four maps."""
    bad, present = [], 0
    for sides, data, inst, mirror, dims, order in _left_out(od, cm):
        # every mirror is an instance that the loop ranges keep: j < i
        assert mirror[4] < mirror[3], (inst, mirror)
        got = sides(data, *inst)
        want = sides(data, *mirror[:3], mirror[3] + shift, mirror[4])
        present += got is not None
        if (got is None) != (want is None):
            bad.append((inst, "missing"))
        elif got is not None:
            swap = permute_factors(dims, order, od.field)
            if got != (want[1] @ swap, want[0] @ swap):
                bad.append((inst, "differs"))
    return bad, present


def _mutant(od, cm, rng):
    """od and cm with one entry of one comp map and one entry of one
    bullet map raised by one."""
    f = od.field

    def raised(maps):
        maps = dict(maps)
        key = rng.choice(sorted(maps))
        m = maps[key]
        entries = dict(m.entries)
        at = (rng.randrange(m.cod.dim), rng.randrange(m.dom.dim))
        entries[at] = f.add(entries.get(at, f.zero), f.one)
        maps[key] = LinMap(m.dom, m.cod, f, entries)
        return maps

    od2 = OperadData(od.spaces, raised(od.comp), od.one, od.m, od.e, f,
                     "mutant")
    return od2, CompModuleData(od2, cm.spaces, raised(cm.bullet), cm.t, f,
                               "mutant")


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_left_out_instances_are_their_mirrors_with_two_factors_swapped(
        field):
    """Each instance that check_operad and check_comp_module leave out has
    the same four maps as a kept one, on the same tensor factors with two
    of them swapped: its two sides are the mirror's two sides, crossed
    over and precomposed with the swap.  So it holds, or is skipped,
    exactly when its mirror does, also on mutants that fail the checks."""
    rng = random.Random(7)
    od = one_dimensional_operad(field, 4)
    inputs = [(od, one_dimensional_comp_module(od, 4))]
    for order in (2, 3):
        h = group_hopf_algebroid(order, field)
        z = scalar_yd_algebra(h)
        od = build_yd_operad(h, z, 4)
        inputs.append((od, build_yd_comp_module(h, scalar_sayd(h), z, od,
                                                4)))
    for od, cm in inputs:
        bad, present = _mirror_mismatches(od, cm)
        assert bad == [] and present == (213 - 152) + (394 - 278), od.label
    for od, cm in inputs[1:]:
        od2, cm2 = _mutant(od, cm, rng)
        assert not (check_operad(od2).ok and check_comp_module(cm2).ok)
        assert _mirror_mismatches(od2, cm2)[0] == []
        # negative control: a mirror with i off by one is not a mirror,
        # also where it has all four maps
        wrong = _mirror_mismatches(od, cm, shift=1)[0]
        assert "differs" in {kind for _inst, kind in wrong}
