from fractions import Fraction

import pytest

from hopfcyclic.exactlin import (
    QQ, FieldSpec, LinMap, QuotientPresentation, Space, pack_slices,
)
from hopfcyclic.hopfalgebroid import (
    check_hopf_algebroid, check_hopf_galois, check_sayd, gallery,
)
from hopfcyclic.algcore import (
    AlgebraData, ComoduleData, check_sweedler_measuring,
)
from hopfcyclic.measuring import (
    ComoduleMeasuringData, MeasuringData, check_enveloping_measuring,
    check_hopf_algebroid_measuring, check_sayd_comodule_measuring,
    check_yd_measuring, compose_comodule_measurings, compose_measurings,
    derivation_pair_comodule_measuring, derivation_pair_measuring,
    enveloping_measuring, euler_derivation, identity_comodule_measuring,
    identity_measuring, point_coalgebra, zero_primitive_comodule_measuring,
    zero_primitive_measuring,
)
from hopfcyclic.hopfalgebroid import (
    base_sayd, dual_numbers, scalar_yd_algebra,
)
from hopfcyclic.measuring import YdMeasuringData


@pytest.fixture(scope="module")
def gal():
    return gallery()


@pytest.fixture(scope="module")
def euler(gal):
    h = gal["pair_dual"].hopf
    return derivation_pair_measuring(h, euler_derivation(dual_numbers(QQ)))


def test_identity_measurings(gal):
    for name, entry in gal.items():
        m = identity_measuring(entry.hopf)
        rep = check_hopf_algebroid_measuring(m)
        assert rep.ok, (name, rep.failures())


def test_euler_measuring(euler):
    rep = check_hopf_algebroid_measuring(euler)
    assert rep.ok, rep.failures()


def test_zero_primitive_measuring(gal):
    m = zero_primitive_measuring(gal["group_c2"].hopf)
    assert check_hopf_algebroid_measuring(m).ok


def test_broken_measuring_detected(euler):
    bad_entries = dict(euler.Psi.entries)
    bad_entries[(0, 4)] = Fraction(1)  # x now fails to be a coderivation
    bad = MeasuringData(euler.C, euler.src, euler.dst,
                        LinMap(euler.Psi.dom, euler.Psi.cod, QQ, bad_entries),
                        euler.psi, "bad")
    rep = check_hopf_algebroid_measuring(bad)
    assert not rep.ok


def test_composition(euler, gal):
    comp = compose_measurings(euler, euler)
    rep = check_hopf_algebroid_measuring(comp)
    assert rep.ok, rep.failures()
    assert comp.C.space.dim == 4
    # (x (x) g)(u) = g(x(u)) = x(u)
    f = QQ
    xv = (f.zero, f.one)
    gv = (f.one, f.zero)
    xg = [f.zero] * 4
    xg[1 * 2 + 0] = f.one
    assert comp.Psi_of(tuple(xg)).entries == euler.Psi_of(xv).entries


def test_enveloping(euler):
    env = enveloping_measuring(euler.C, dual_numbers(QQ), dual_numbers(QQ),
                               euler.psi)
    rep = check_enveloping_measuring(env)
    assert rep.ok, rep.failures()
    a = dual_numbers(QQ)
    ae = a.tensor_with(a.opposite())
    want = check_sweedler_measuring(euler.C, ae, ae, env.psi_e)
    assert [(r.name, r.passed, r.witness) for r in rep.results] == \
        [(r.name, r.passed, r.witness) for r in want.results]


def test_pair_measurings_form_no_enveloping_algebra(gal, monkeypatch):
    # the enveloping algebras are read only by check_enveloping_measuring
    real = AlgebraData.tensor_with
    calls = []

    def counting(self, other, label=""):
        calls.append(self)
        return real(self, other, label)

    monkeypatch.setattr(AlgebraData, "tensor_with", counting)
    for name in ("pair_dual", "pair_split"):
        h = gal[name].hopf
        m = derivation_pair_measuring(h, LinMap.zero(h.A.space, h.A.space, QQ))
        assert m.Psi.dom.dim == 2 * h.U.space.dim
    assert calls == []
    check_enveloping_measuring(enveloping_measuring(
        m.C, h.A, h.A, m.psi))
    assert len(calls) == 2


def test_enveloping_rejects_noncocommutative():
    # a coalgebra with a deliberately non-cocommutative coproduct
    from hopfcyclic.algcore import CoalgebraData
    sp = Space(2)
    comul = LinMap(sp, Space(4), QQ, {(0, 0): Fraction(1),
                                      (1, 1): Fraction(1)})
    counit = LinMap(sp, Space(1), QQ, {(0, 0): Fraction(1),
                                       (0, 1): Fraction(1)})
    c = CoalgebraData(sp, comul, counit, QQ)
    a = dual_numbers(QQ)
    with pytest.raises(ValueError):
        enveloping_measuring(c, a, a, LinMap(Space(4), a.space, QQ, {}))


def test_comodule_measuring_pair(euler, gal):
    cm = derivation_pair_comodule_measuring(euler, gal["pair_dual"].sayd)
    rep = check_sayd_comodule_measuring(cm)
    assert rep.ok, rep.failures()


def test_comodule_measuring_group(gal):
    m = zero_primitive_measuring(gal["group_c2"].hopf)
    cm = zero_primitive_comodule_measuring(m, gal["group_c2"].sayd)
    rep = check_sayd_comodule_measuring(cm)
    assert rep.ok, rep.failures()


def test_identity_comodule_measuring(gal):
    for name in ("trivial", "group_c2", "pair_dual"):
        cm = identity_comodule_measuring(gal[name].hopf, gal[name].sayd)
        rep = check_sayd_comodule_measuring(cm)
        assert rep.ok, (name, rep.failures())


def test_compose_comodule_measurings(euler, gal):
    cm = derivation_pair_comodule_measuring(euler, gal["pair_dual"].sayd)
    comp = compose_comodule_measurings(cm, cm)
    rep = check_sayd_comodule_measuring(comp)
    assert rep.ok, rep.failures()


def test_yd_measuring_scalar(gal):
    h = gal["group_c2"].hopf
    z = scalar_yd_algebra(h)
    f = QQ
    C = point_coalgebra(f)
    psi = LinMap(Space(1), z.Z.space, f, {(0, 0): f.one})
    ym = YdMeasuringData(C, z, z, psi, "id.Z")
    rep = check_yd_measuring(ym)
    assert rep.ok, rep.failures()


def test_yd_measuring_detects_broken_equivariance(gal):
    h = gal["group_c2"].hopf
    z = scalar_yd_algebra(h)
    z2 = scalar_yd_algebra(h)
    # give z2 a sign action so the identity is no longer equivariant
    f = QQ
    z2.action = LinMap(Space(2), z2.Z.space, f,
                       {(0, 0): f.one, (0, 1): f.neg(f.one)})
    C = point_coalgebra(f)
    psi = LinMap(Space(1), z.Z.space, f, {(0, 0): f.one})
    ym = YdMeasuringData(C, z, z2, psi, "bad")
    assert not check_yd_measuring(ym).ok


def test_comodule_measuring_needs_coefficients_over_its_algebroids(gal):
    """SAYD modules over another algebroid than the measuring's would give
    induced maps on their own towers, not on the measured algebroid's."""
    other = base_sayd(gal["pair_dual"].hopf)
    with pytest.raises(ValueError, match="not over"):
        identity_comodule_measuring(gal["pair_split"].hopf, other)
    m = zero_primitive_measuring(gal["group_c2"].hopf)
    with pytest.raises(ValueError, match="not over"):
        zero_primitive_comodule_measuring(m, gal["group_c3"].sayd)


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_passing_checkers_compute_no_relation_basis(field, monkeypatch):
    # well-definedness is checked on the complement columns of each
    # presentation; its relation basis, one elimination, is computed only
    # to name a failure
    real = QuotientPresentation.relations.fget
    computed = []

    def counting(pres):
        if pres._relations is None:
            computed.append(pres)
        return real(pres)

    monkeypatch.setattr(QuotientPresentation, "relations",
                        property(counting))
    reports = []
    for name, e in gallery(field).items():
        h, p = e.hopf, e.sayd
        zero = zero_primitive_measuring(h)
        reports += [check_hopf_algebroid(h), check_hopf_galois(h),
                    check_sayd(p), check_hopf_algebroid_measuring(zero),
                    check_sayd_comodule_measuring(
                        zero_primitive_comodule_measuring(zero, p))]
        if name == "pair_dual":
            euler = derivation_pair_measuring(
                h, euler_derivation(dual_numbers(field)))
            reports += [check_hopf_algebroid_measuring(euler),
                        check_sayd_comodule_measuring(
                            derivation_pair_comodule_measuring(euler, p))]
    assert [r.subject for r in reports if not r.ok] == []
    assert computed == []


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_pair_measuring_acts_by_delta_on_each_tensor_factor(field):
    """The Psi of derivation_pair_measuring, the enveloping measuring of
    psi = (id, delta), sends g to id and x to delta (x) 1 + 1 (x) delta on
    both pair algebroids, for the derivation 0, for the Euler map (a
    derivation of k[e], not of k x k) and for delta(e) = 1 + e (not a
    derivation, as in the pair_e2_broken scenario)."""
    f = field
    for name in ("pair_dual", "pair_split"):
        h = gallery(f)[name].hopf
        one = LinMap.identity(h.A.space, f)
        for delta in (LinMap.zero(h.A.space, h.A.space, f),
                      euler_derivation(h.A),
                      LinMap(h.A.space, h.A.space, f,
                             {(0, 1): f.one, (1, 1): f.one})):
            xs = delta.tensor(one) + one.tensor(delta)
            expected = pack_slices([LinMap.identity(h.U.space, f), xs], f)
            assert derivation_pair_measuring(h, delta).Psi == expected


def test_mis_shaped_measurings_raise_value_errors(gal, euler):
    """These hold under python -O too: none of them rests on an assert."""
    f = QQ
    h = gal["pair_dual"].hopf
    C, Psi, psi = euler.C, euler.Psi, euler.psi
    with pytest.raises(ValueError, match="Psi"):
        MeasuringData(C, h, h, LinMap(Space(3), Psi.cod, f), psi)
    with pytest.raises(ValueError, match="Psi"):
        MeasuringData(C, h, h, LinMap(Psi.dom, Space(3), f), psi)
    with pytest.raises(ValueError, match="psi"):
        MeasuringData(C, h, h, Psi, LinMap(Space(3), psi.cod, f))
    with pytest.raises(ValueError, match="psi"):
        MeasuringData(C, h, h, Psi, LinMap(psi.dom, Space(3), f))
    with pytest.raises(ValueError, match="not the source"):
        compose_measurings(zero_primitive_measuring(gal["group_c2"].hopf),
                           euler)
    # comodule measurings
    p = gal["pair_dual"].sayd
    good = derivation_pair_comodule_measuring(euler, p)
    D, Omega = good.D, good.Omega
    with pytest.raises(ValueError, match="MeasuringData"):
        ComoduleMeasuringData(object(), D, p, p, Omega)
    with pytest.raises(ValueError, match="another coalgebra"):
        ComoduleMeasuringData(euler, ComoduleData(
            point_coalgebra(f), D.space, LinMap(D.space, D.space, f), "right"),
            p, p, Omega)
    with pytest.raises(ValueError, match="right comodule"):
        ComoduleMeasuringData(euler, ComoduleData(
            D.coalgebra, D.space, D.coaction, "left"), p, p, Omega)
    with pytest.raises(ValueError, match="Omega"):
        ComoduleMeasuringData(euler, D, p, p, LinMap(Space(3), Omega.cod, f))
    with pytest.raises(ValueError, match="Omega"):
        ComoduleMeasuringData(euler, D, p, p, LinMap(Omega.dom, Space(3), f))
    # YD measurings
    z = scalar_yd_algebra(gal["group_c2"].hopf)
    pt = point_coalgebra(f)
    zpsi = LinMap(Space(1), z.Z.space, f, {(0, 0): f.one})
    with pytest.raises(ValueError, match="YdAlgebraData"):
        YdMeasuringData(pt, z, object(), zpsi)
    with pytest.raises(ValueError, match="YdAlgebraData"):
        YdMeasuringData(pt, object(), z, zpsi)
    with pytest.raises(ValueError, match="over"):
        YdMeasuringData(pt, z, scalar_yd_algebra(gal["group_c3"].hopf), zpsi)
    with pytest.raises(ValueError, match="psi"):
        YdMeasuringData(pt, z, z, LinMap(Space(2), z.Z.space, f))
    with pytest.raises(ValueError, match="psi"):
        YdMeasuringData(pt, z, z, LinMap(Space(1), Space(2), f))
