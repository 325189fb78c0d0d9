import time
from fractions import Fraction

import pytest

from hopfcyclic.exactlin import QQ, LinMap, Space, rank
from hopfcyclic.hopfalgebroid import (
    HopfAlgebroidData, NotScalarBase, SaydModuleData, check_hopf_algebroid,
    check_hopf_galois, check_left_bialgebroid, check_sayd, check_yd_algebra,
    dual_numbers, gallery, group_hopf_algebroid, hopf_galois_beta,
    pair_hopf_algebroid, scalar_sayd, scalar_yd_algebra, translation_map,
    translation_lift, trivial_hopf_algebroid,
)


@pytest.fixture(scope="module")
def gal():
    return gallery()


def test_gallery_structures_pass(gal):
    for name, entry in gal.items():
        rep = check_hopf_algebroid(entry.hopf)
        assert rep.ok, (name, rep.failures())


def test_gallery_sayd_pass(gal):
    for name, entry in gal.items():
        rep = check_sayd(entry.sayd)
        assert rep.ok, (name, rep.failures())


def test_tower_dims_pair(gal):
    h = gal["pair_dual"].hopf
    assert h.U.space.dim == 4
    assert [h.ltower(n).quotient.dim for n in (1, 2, 3, 4)] == [4, 8, 16, 32]
    assert [h.rtower(n).quotient.dim for n in (1, 2, 3, 4)] == [4, 8, 16, 32]


def test_tower_dims_group(gal):
    h = gal["group_c2"].hopf
    assert [h.ltower(n).quotient.dim for n in (1, 2, 3)] == [2, 4, 8]


def test_hopf_galois_gallery(gal):
    for name, entry in gal.items():
        rep = check_hopf_galois(entry.hopf)
        assert rep.ok, (name, rep.failures())


def test_translation_group_c2(gal):
    h = gal["group_c2"].hopf
    # g_+ (x) g_- = g (x) g
    tl = translation_lift(h)
    col = tl.column(1)
    vec = [Fraction(0)] * 4
    vec[1 * 2 + 1] = Fraction(1)
    rt2 = h.rtower(2)
    assert rt2.projection.apply(tuple(col)) == rt2.projection.apply(tuple(vec))


def test_translation_pair(gal):
    h = gal["pair_dual"].hopf
    # (a (x) b)_+ (x) (a (x) b)_- = (a (x) 1) (x) (b (x) 1)
    tl = translation_lift(h)
    rt2 = h.rtower(2)
    # basis element e (x) 1 of U has index 1*2+0 = 2
    col = tl.column(2)
    vec = [Fraction(0)] * 16
    vec[2 * 4 + 0] = Fraction(1)  # (e (x) 1) (x) (1 (x) 1)
    assert rt2.projection.apply(tuple(col)) == rt2.projection.apply(tuple(vec))


def test_yd_algebra_scalar(gal):
    for name in ("trivial", "group_c2", "group_c3"):
        y = scalar_yd_algebra(gal[name].hopf)
        rep = check_yd_algebra(y)
        assert rep.ok, (name, rep.failures())


@pytest.mark.parametrize("make", [scalar_sayd, scalar_yd_algebra])
def test_scalar_presets_refuse_a_larger_base(gal, make):
    # a typed error, not an assert that python -O strips
    for name in ("pair_dual", "pair_split"):
        with pytest.raises(NotScalarBase, match="base dimension 2"):
            make(gal[name].hopf)


def test_broken_antipode_detected():
    h = group_hopf_algebroid(3, QQ)
    bad_S = LinMap.identity(h.U.space, QQ)  # identity is not the inverse map
    bad = HopfAlgebroidData(h.U, h.A, h.s_L, h.t_L, h.delta_lift, h.eps_L,
                            bad_S, label="bad")
    rep = check_hopf_algebroid(bad)
    assert not rep.ok


def test_broken_coproduct_detected():
    h = group_hopf_algebroid(2, QQ)
    entries = dict(h.delta_lift.entries)
    entries[(0, 1)] = Fraction(1)  # Delta(g) = g (x) g + 1 (x) 1
    bad = HopfAlgebroidData(h.U, h.A, h.s_L, h.t_L,
                            LinMap(h.U.space, Space(4), QQ, entries),
                            h.eps_L, h.S, label="bad")
    rep = check_hopf_algebroid(bad)
    assert not rep.ok
    assert any(r.witness is not None for r in rep.failures())


def test_sayd_broken_coaction_detected(gal):
    h = group_hopf_algebroid(2, QQ)
    p = Space(1)
    action = LinMap(Space(2), p, QQ, {(0, 0): Fraction(1), (0, 1): Fraction(1)})
    coact = LinMap(p, Space(2), QQ, {(0, 0): Fraction(1), (1, 0): Fraction(1)})
    bad = SaydModuleData(h, p, action, coact, "bad")
    rep = check_sayd(bad)
    assert not rep.ok


def test_structure_validation_is_fast():
    start = time.monotonic()
    g = gallery()
    for entry in g.values():
        assert check_hopf_algebroid(entry.hopf).ok
        assert check_sayd(entry.sayd).ok
    assert time.monotonic() - start < 5.0
