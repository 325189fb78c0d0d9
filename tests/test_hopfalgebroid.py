import time
from fractions import Fraction

import pytest

from hopfcyclic import algcore
from hopfcyclic.algcore import (
    AlgebraData, action_on_last_slot, balanced_tensor,
)
from hopfcyclic.exactlin import (
    QQ, FieldSpec, LinMap, Pipe, QuotientPresentation, Space, kron_vec,
    pack_slices,
)
from hopfcyclic.hopfalgebroid import (
    HopfAlgebroidData, LeftBialgebroidData, NotScalarBase, NotTheBase,
    SaydModuleData, YdAlgebraData, base_sayd, base_sayd_for_pair,
    check_hopf_algebroid, check_hopf_galois, check_sayd, check_yd_algebra,
    dual_numbers, gallery, group_hopf_algebroid, pair_hopf_algebroid,
    scalar_sayd, scalar_yd_algebra, split_pair_algebra, translation_lift,
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


def _levels_by_cap(base, base_ract, factor_ract, factor_lact, aspace, n):
    """Levels 0..n of a balanced tower, each one the balanced tensor
    product of the level before with the factor, as `cap` forms it."""
    f = base.projection.field
    factor = QuotientPresentation.trivial(factor_ract.cod, f)
    levels, ract = [base], base_ract
    for k in range(1, n + 1):
        if k > 1:
            ract = action_on_last_slot(levels[-1], factor_ract, aspace, f)
        levels.append(balanced_tensor(levels[-1], factor, ract, factor_lact,
                                      f))
    return levels


def _same_presentation(got, want):
    return (got.ambient.dim, got.quotient.dim, got.free) == \
        (want.ambient.dim, want.quotient.dim, want.free) and \
        got.projection == want.projection and got.section == want.section


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_free_tower_levels_equal_growth_through_cap(field, n):
    """The L and R towers of k[C_n], and the chain and capped towers of its
    scalar SAYD module, up to level 6: every level the tower grows from
    the free-level certificate is the one the balanced tensor product
    gives."""
    h = group_hopf_algebroid(n, field)
    p = scalar_sayd(h)
    r, l = h._grower("R"), h._grower("L")
    base_u = QuotientPresentation.trivial(h.U.space, field)
    base_p = QuotientPresentation.trivial(p.space, field)
    for tower, g, base, base_ract in (
            (h.rtower, r, base_u, r.factor_ract),
            (h.ltower, l, base_u, l.factor_ract),
            (lambda k: p.chain_tower(k - 1), r, base_p,
             p.right_arrow_action())):
        want = _levels_by_cap(base, base_ract, g.factor_ract, g.factor_lact,
                              h.A.space, 6)
        for k in range(7):
            assert _same_presentation(tower(k + 1), want[k]), (g.label, k)
    # capped level k is L level k - 1 (x)_A P
    levels = _levels_by_cap(base_u, l.factor_ract, l.factor_ract,
                            l.factor_lact, h.A.space, 5)
    for k in range(1, 7):
        ract = l.factor_ract if k == 1 else action_on_last_slot(
            levels[k - 1], l.factor_ract, h.A.space, field)
        want = balanced_tensor(levels[k - 1], base_p, ract,
                               p.left_a_action(), field)
        assert _same_presentation(p.capped_tower(k), want), k


def test_a_free_level_over_a_non_free_level_two_goes_through_cap():
    """Over the dual numbers A, with X = k and A acting on X and on the
    left of F = A through the counit (e -> 0), and on the right of F by
    multiplication: level 1 is free, level 2 is not (f e (x) f' = 0), and
    every level is the one the balanced tensor product gives."""
    A = dual_numbers(QQ)
    x = Space(1)
    eps = LinMap(Space(2), x, QQ, {(0, 0): 1})
    lact = LinMap(Space(4), A.space, QQ, {(0, 0): 1, (1, 1): 1})
    tower = algcore.BalancedTower(QuotientPresentation.trivial(x, QQ), eps,
                                  A.space, A.mul, lact, A.space, QQ)
    want = _levels_by_cap(QuotientPresentation.trivial(x, QQ), eps, A.mul,
                          lact, A.space, 4)
    assert tower[1].free and not tower[2].free
    for k in range(5):
        assert _same_presentation(tower[k], want[k]), k


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(algcore, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    monkeypatch.setattr(algcore, name, counted)
    return calls


def test_free_towers_grow_past_level_two_with_no_tensor_product(
        monkeypatch):
    """Levels 3 and up of a free tower whose levels 1 and 2 are free come
    from the certificate: growing one to level 6 forms at most two
    balanced tensor products and one action, whatever the tower; a pair
    tower, which has relations, forms a product at every level and an
    action at every level past the first."""
    products = _counting(monkeypatch, "balanced_tensor")
    actions = _counting(monkeypatch, "action_on_last_slot")
    h = group_hopf_algebroid(3, QQ)
    p = scalar_sayd(h)
    for grow in (lambda: h.rtower(7), lambda: h.ltower(7),
                 lambda: p.chain_tower(6)):
        del products[:], actions[:]
        assert grow().free
        assert len(products) <= 2 and len(actions) <= 1
    pd = gallery()["pair_dual"].hopf
    del products[:], actions[:]
    assert not pd.rtower(5).free
    assert len(products) == 4 and len(actions) == 3


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


def _quadratic_pair(a):
    """The pair algebroid on Q[x]/(x^2 - a)."""
    sp = Space(2, "Q[x]/(x2-%d)" % a)
    mul = LinMap(Space(4), sp, QQ,
                 {(0, 0): 1, (1, 1): 1, (1, 2): 1, (0, 3): a})
    return pair_hopf_algebroid(AlgebraData(sp, mul, (1, 0), QQ, sp.label))


def _preset_maps(h):
    """The action and coaction lift of the base as coefficients, written
    out as the scalar preset (p u = eps(u) p) and the pair preset
    (p (a (x) b) = a p b) define them; both coact by p -> s(p) (x) 1."""
    f, A = h.field, h.A
    d, du = A.space.dim, h.U.space.dim
    if d == 1:
        action = LinMap(Space(du), Space(1), f,
                        {(0, j): h.eps_L.column(j)[0] for j in range(du)})
    else:
        action = Pipe([d, d, d], f).permute([1, 0, 2]) \
            .block(0, 3, A.mul_n(3)).map
    coact = LinMap.from_columns(Space(d), Space(du * d), f, [
        kron_vec(h.s_of(A.space.basis_vector(i, f)), A.unit, f)
        for i in range(d)])
    return action, coact


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_base_sayd_is_both_presets(field):
    for name, entry in gallery(field).items():
        h = entry.hopf
        action, coact = _preset_maps(h)
        preset = scalar_sayd(h) if h.A.space.dim == 1 \
            else base_sayd_for_pair(h, h.A)
        for p in (base_sayd(h), preset, entry.sayd):
            assert p.space.dim == h.A.space.dim, name
            assert p.action == action, name
            assert p.coact_lift == coact, name


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_base_sayd_passes_check_sayd(field):
    hs = [entry.hopf for entry in gallery(field).values()]
    if field == QQ:
        hs += [_quadratic_pair(a) for a in (2, 3, -1, -5)]
    for h in hs:
        rep = check_sayd(base_sayd(h))
        assert rep.ok, (h.label, rep.failures())


def test_base_pair_needs_the_base_algebra(gal):
    # an algebra with the same multiplication and unit is the base
    h = gal["pair_dual"].hopf
    assert base_sayd_for_pair(h, dual_numbers(QQ)).action == \
        base_sayd(h).action
    for hname, A in (("group_c2", dual_numbers(QQ)),
                     ("pair_dual", split_pair_algebra(QQ))):
        with pytest.raises(NotTheBase, match="not the base algebra"):
            base_sayd_for_pair(gal[hname].hopf, A)


def test_mixed2_is_the_capped_tower_at_level_one(gal):
    for name, entry in gal.items():
        h = entry.hopf
        xs = [entry.sayd] + ([scalar_yd_algebra(h)] if h.A.space.dim == 1
                             else [])
        for x in xs:
            assert x.mixed2() is x.capped_tower(1), name
            # U (x)_A X, balanced by t(a) u (x) x = u (x) a . x; the right
            # action u . a = t(a) u is packed from its slices at a basis
            ract = pack_slices(
                [h.lmul(h.t_of(h.A.space.basis_vector(a, QQ)))
                 for a in range(h.A.space.dim)], QQ, last=True)
            want = balanced_tensor(
                QuotientPresentation.trivial(h.U.space, QQ),
                QuotientPresentation.trivial(x.space, QQ),
                ract, x.left_a_action(), QQ)
            assert x.mixed2().projection == want.projection, name
            assert x.mixed2().section == want.section, name


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


def test_degree_zero_and_mis_shaped_data_raise_value_errors(gal):
    """These hold under python -O too: none of them rests on an assert."""
    f = QQ
    h = gal["pair_dual"].hopf
    # once degree 3 is grown, an unchecked [n - 1] would read level -1
    h.rtower(3), h.ltower(3)
    for call in (h.rtower, h.ltower, h.iterated_delta_lift):
        with pytest.raises(ValueError, match="not 0"):
            call(0)
    du, da = h.U.space.dim, h.A.space.dim
    with pytest.raises(ValueError, match="^delta_lift is"):
        LeftBialgebroidData(h.U, h.A, h.s_L, h.t_L,
                            LinMap(h.U.space, Space(du), f), h.eps_L)
    with pytest.raises(ValueError, match="^S is"):
        HopfAlgebroidData(h.U, h.A, h.s_L, h.t_L, h.delta_lift, h.eps_L,
                          LinMap(Space(da), h.U.space, f))
    p = gal["pair_dual"].sayd
    with pytest.raises(ValueError, match="^action is"):
        SaydModuleData(h, p.space, LinMap(p.space, p.space, f), p.coact_lift)
    c2 = gal["group_c2"].hopf
    z = scalar_yd_algebra(c2)
    with pytest.raises(ValueError, match="^coact_lift is"):
        YdAlgebraData(c2, z.Z, z.action, LinMap(z.space, z.space, f))


def test_sayd_broken_coaction_detected(gal):
    h = group_hopf_algebroid(2, QQ)
    p = Space(1)
    action = LinMap(Space(2), p, QQ, {(0, 0): Fraction(1), (0, 1): Fraction(1)})
    coact = LinMap(p, Space(2), QQ, {(0, 0): Fraction(1), (1, 0): Fraction(1)})
    bad = SaydModuleData(h, p, action, coact, "bad")
    rep = check_sayd(bad)
    assert not rep.ok


def test_sayd_check_reports_an_algebroid_that_is_not_hopf_galois(gal):
    """With one delta_lift entry raised by 1, beta does not descend
    (pair_dual) or is not onto (group_c2), so there is no translation map:
    anti_yetter_drinfeld fails with check_hopf_galois's witness, and the
    other SAYD checks still run."""
    names = [r.name for r in check_sayd(gal["pair_dual"].sayd).results]
    for hname, (i, j), galois_check in (
            ("pair_dual", (11, 3), "beta_descends"),
            ("group_c2", (1, 0), "beta_surjective")):
        h = gal[hname].hopf
        entries = dict(h.delta_lift.entries)
        entries[(i, j)] = entries.get((i, j), 0) + 1
        bad = HopfAlgebroidData(
            h.U, h.A, h.s_L, h.t_L,
            LinMap(h.delta_lift.dom, h.delta_lift.cod, QQ, entries),
            h.eps_L, h.S, label="bad")
        galois = check_hopf_galois(bad).failures()
        assert [r.name for r in galois] == [galois_check], hname
        rep = check_sayd(base_sayd(bad))
        assert [r.name for r in rep.results] == names, hname
        ayd = [r for r in rep.results if r.name == "anti_yetter_drinfeld"]
        assert not ayd[0].passed, hname
        assert ayd[0].witness == galois[0].witness, hname
        assert rep.results[-1].name == "stability" and \
            rep.results[-1].passed, hname


def test_structure_validation_is_fast():
    start = time.monotonic()
    g = gallery()
    for entry in g.values():
        assert check_hopf_algebroid(entry.hopf).ok
        assert check_sayd(entry.sayd).ok
    assert time.monotonic() - start < 5.0
