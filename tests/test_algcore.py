from fractions import Fraction

import pytest

from hopfcyclic.exactlin import QQ, FieldSpec, LinMap, Pipe, Space
from hopfcyclic.algcore import (
    AlgebraData, BalancedTower, CoalgebraData, ComoduleData,
    ModuleActionData, Report, balanced_tensor, check_algebra,
    check_coalgebra, check_comodule, check_module, check_sweedler_measuring,
    keyed, swap_map, sweedler_sum,
)
from hopfcyclic.exactlin import QuotientPresentation
from hopfcyclic.hopfalgebroid import (
    dual_numbers, group_algebra, scalar_algebra, split_pair_algebra,
)


def test_check_family_names_the_first_failing_member():
    seen = []

    def family(items):
        for item in items:
            seen.append(item)
            yield item

    rep = Report()
    rep.check_family("holds", family([None, None]))
    rep.check_family("empty", family([]))
    rep.check_family("fails", family([None, (1, "a"), None, (3, "b")]))
    assert [(r.name, r.passed, r.witness) for r in rep.results] == [
        ("holds", True, None), ("empty", True, None),
        ("fails", False, (1, "a"))]
    # the whole family is read, past its first failure
    assert len(seen) == 6
    # a falsy witness is a witness
    assert not Report().check_family("zero", [None, 0]).ok
    assert keyed((2,), None) is None and keyed((2,), (0, "c")) == (2, 0, "c")


def test_map_checks_name_the_first_nonzero_column():
    from hopfcyclic.exactlin import column_witness, difference_witness
    sp = Space(3)
    m = LinMap(sp, sp, QQ, {(0, 2): Fraction(1, 2), (1, 1): 3})
    assert column_witness(LinMap.zero(sp, sp, QQ)) is None
    assert column_witness(m) == (1, (0, 3, 0))
    ident = LinMap.identity(sp, QQ)
    assert difference_witness(ident, ident) is None
    assert difference_witness(ident + m, ident) == (1, (0, 3, 0))
    rep = Report().check_map_equal("eq", ident + m, ident) \
        .check_map_zero("zero", m)
    assert [r.witness for r in rep.results] == [(1, (0, 3, 0))] * 2


def test_check_algebra_gallery():
    assert check_algebra(scalar_algebra(QQ)).ok
    assert check_algebra(group_algebra(3, QQ), commutative=True).ok
    assert check_algebra(dual_numbers(QQ), commutative=True).ok
    assert check_algebra(split_pair_algebra(QQ), commutative=True).ok


def test_check_algebra_detects_broken_associativity():
    a = dual_numbers(QQ)
    bad_entries = dict(a.mul.entries)
    bad_entries[(0, 2)] = Fraction(1)  # e * 1 = e + 1 breaks the right unit law
    bad = AlgebraData(a.space, LinMap(a.mul.dom, a.mul.cod, QQ, bad_entries),
                      a.unit, QQ)
    rep = check_algebra(bad)
    assert not rep.ok
    assert rep.failures()[0].witness is not None


def group_coalgebra(n):
    alg = group_algebra(n, QQ)
    comul = LinMap(alg.space, Space(n * n), QQ,
                   {(i * n + i, i): Fraction(1) for i in range(n)})
    counit = LinMap(alg.space, Space(1), QQ,
                    {(0, i): Fraction(1) for i in range(n)})
    return CoalgebraData(alg.space, comul, counit, QQ, "C%d" % n)


def primitive_coalgebra():
    """span(g, x): g grouplike, x primitive over g."""
    sp = Space(2, "C")
    comul = LinMap(sp, Space(4), QQ, {
        (0, 0): Fraction(1),            # g -> g (x) g
        (1, 1): Fraction(1),            # x -> x (x) g + g (x) x
        (2, 1): Fraction(1),
    })
    counit = LinMap(sp, Space(1), QQ, {(0, 0): Fraction(1)})
    return CoalgebraData(sp, comul, counit, QQ, "C")


def test_check_coalgebra():
    assert check_coalgebra(group_coalgebra(3), cocommutative=True).ok
    assert check_coalgebra(primitive_coalgebra(), cocommutative=True).ok


def test_iterated_comul():
    c = primitive_coalgebra()
    x = (Fraction(0), Fraction(1))
    terms = c.iterated_comul_vector(x, 3)
    # Delta^2(x) = x g g + g x g + g g x
    assert terms == {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1),
                     (0, 0, 1): Fraction(1)}
    assert c.iterated_comul_vector(x, 0) == {}
    g = (Fraction(1), Fraction(0))
    assert c.iterated_comul_vector(g, 0) == {(): Fraction(1)}


def test_module_and_comodule_checks():
    a = group_algebra(2, QQ)
    act = LinMap(Space(2), Space(1), QQ,
                 {(0, 0): Fraction(1), (0, 1): Fraction(1)})
    m = ModuleActionData(a, Space(1), act, "left", "triv")
    assert check_module(m).ok
    bad = ModuleActionData(a, Space(1),
                           LinMap(Space(2), Space(1), QQ,
                                  {(0, 0): Fraction(1), (0, 1): Fraction(2)}),
                           "left", "bad")
    assert not check_module(bad).ok

    c = group_coalgebra(2)
    co = ComoduleData(c, Space(1),
                      LinMap(Space(1), Space(2), QQ, {(0, 0): Fraction(1)}),
                      "right", "triv")
    assert check_comodule(co).ok


def test_comodule_iterated_coaction():
    c = primitive_coalgebra()
    # D = C coacting on itself by the coproduct (right comodule)
    co = ComoduleData(c, c.space, c.comul, "right", "D")
    assert check_comodule(co).ok
    x = (Fraction(0), Fraction(1))
    terms = co.iterated_coaction_vector(x, 2)
    assert terms == {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1),
                     (0, 0, 1): Fraction(1)}


def matrix_coalgebra(f):
    """M_2^*: basis e_ij (index 2i + j), Delta(e_ij) = sum_k e_ik (x) e_kj,
    eps(e_ij) = delta_ij; not cocommutative."""
    sp = Space(4, "M2*")
    comul = LinMap(sp, Space(16), f, {
        ((2 * i + k) * 4 + 2 * k + j, 2 * i + j): f.one
        for i in range(2) for j in range(2) for k in range(2)})
    counit = LinMap(sp, Space(1), f, {(0, 0): f.one, (0, 3): f.one})
    return CoalgebraData(sp, comul, counit, f, "M2*")


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("f", [QQ, FieldSpec(5)], ids=repr)
def test_iterated_coaction_vector_is_in_sweedler_order(side, f):
    """y_(0) (x) y_(1) (x) ... (x) y_(n) (right) and y_(-n) (x) ... (x)
    y_(-1) (x) y_(0) (left), keyed with the comodule index first, equal
    the coaction followed by the coproduct on the coalgebra leg."""
    c = matrix_coalgebra(f)
    assert check_coalgebra(c).ok and not c.is_cocommutative()
    co = ComoduleData(c, c.space, c.comul, side, "D")
    assert check_comodule(co).ok
    for n in range(4):
        pipe = Pipe([4], f)
        if n:
            pipe.block(0, 1, co.coaction, [4, 4])
        for k in range(n - 1):
            # expand the coalgebra leg: the last C slot (right), the first
            # (left)
            pipe.block(1 + k if side == "right" else 0, 1, c.comul, [4, 4])
        for y in range(4):
            want = {}
            for flat, v in enumerate(pipe.map.column(y)):
                if v:
                    key = []
                    for _ in range(n + 1):
                        flat, r = divmod(flat, 4)
                        key.insert(0, r)
                    key = key if side == "right" else key[-1:] + key[:-1]
                    want[tuple(key)] = v
            got = co.iterated_coaction_vector(c.space.basis_vector(y, f), n)
            assert got == want, (side, n, y)
    if side == "right":
        # e_01: y_(0) (x) y_(1) (x) y_(2) = Delta^(2)(e_01)
        assert co.iterated_coaction_vector(c.space.basis_vector(1, f), 2) \
            == {(0, 0, 1): 1, (0, 1, 3): 1, (1, 2, 1): 1, (1, 3, 3): 1}


def test_sweedler_sum():
    f = QQ
    a = [LinMap(Space(2), Space(3), f, {(0, 0): f.one, (2, 1): f.one}),
         LinMap(Space(2), Space(3), f, {(1, 1): Fraction(1, 2)})]
    b = [LinMap(Space(4), Space(5), f, {(4, 3): f.one}),
         LinMap(Space(4), Space(5), f, {(i, i): f.one for i in range(4)})]
    got = sweedler_sum({(0, 1): Fraction(2), (1, 0): Fraction(3)}, [a, b])
    want = a[0].tensor(b[1]).scaled(Fraction(2)) \
        + a[1].tensor(b[0]).scaled(Fraction(3))
    assert got == want
    zero = sweedler_sum({}, [a, b])
    assert zero.is_zero()
    assert (zero.dom.dim, zero.cod.dim) == (8, 15)


def test_balanced_tensor_pair_square():
    """A (x)_A A over the dual numbers collapses to A."""
    a = dual_numbers(QQ)
    triv = QuotientPresentation.trivial(a.space, QQ)
    ract = LinMap(Space(4), a.space, QQ, a.mul.entries)
    lact = LinMap(Space(4), a.space, QQ, a.mul.entries)
    pres = balanced_tensor(triv, triv, ract, lact, QQ)
    assert pres.quotient.dim == 2
    assert (pres.projection @ pres.relations).is_zero()


def test_iterated_balanced_tensor_dims():
    a = dual_numbers(QQ)
    triv = QuotientPresentation.trivial(a.space, QQ)
    ract = LinMap(Space(4), a.space, QQ, a.mul.entries)
    lact = LinMap(Space(4), a.space, QQ, a.mul.entries)
    tower = BalancedTower(triv, ract, a.space, ract, lact, a.space, QQ)
    towers = [tower[n] for n in range(4)]
    assert [t.quotient.dim for t in towers] == [2, 2, 2, 2]


def test_sweedler_measuring_derivation():
    """x acts as d/de on k[e]/(e^2), g as the identity."""
    c = primitive_coalgebra()
    a = dual_numbers(QQ)
    # psi : C (x) A -> A, x acting as the Euler derivation e d/de
    psi = LinMap(Space(4), a.space, QQ, {
        (0, 0): Fraction(1), (1, 1): Fraction(1), (1, 3): Fraction(1),
    })
    assert check_sweedler_measuring(c, a, a, psi).ok
    bad = LinMap(Space(4), a.space, QQ, {
        (0, 0): Fraction(1), (1, 1): Fraction(1), (0, 2): Fraction(1),
    })
    assert not check_sweedler_measuring(c, a, a, bad).ok


def test_swap_map():
    sw = swap_map(Space(2), Space(3), QQ)
    v = [Fraction(0)] * 6
    v[1 * 3 + 2] = Fraction(1)
    out = sw.apply(tuple(v))
    assert out.index(Fraction(1)) == 2 * 2 + 1


def test_mis_shaped_data_raise_value_errors():
    """These hold under python -O too: none of them rests on an assert."""
    f = QQ
    a = dual_numbers(f)
    sp, d = a.space, a.space.dim
    with pytest.raises(ValueError, match="^mul is"):
        AlgebraData(sp, LinMap(Space(d), sp, f), a.unit, f)
    with pytest.raises(ValueError, match="^unit has 1 coordinates"):
        AlgebraData(sp, a.mul, (f.one,), f)
    with pytest.raises(ValueError, match="not 0"):
        a.mul_n(0)
    comul = LinMap(sp, Space(d * d), f)
    counit = LinMap(sp, Space(1), f)
    with pytest.raises(ValueError, match="^comul is"):
        CoalgebraData(sp, LinMap(sp, sp, f), counit, f)
    with pytest.raises(ValueError, match="^counit is"):
        CoalgebraData(sp, comul, LinMap(sp, Space(2), f), f)
    c = CoalgebraData(sp, comul, counit, f)
    with pytest.raises(ValueError, match="^action is"):
        ModuleActionData(a, sp, LinMap(sp, sp, f), "left")
    with pytest.raises(ValueError, match="^side must be"):
        ModuleActionData(a, sp, a.mul, "middle")
    with pytest.raises(ValueError, match="^coaction is"):
        ComoduleData(c, sp, LinMap(sp, sp, f), "right")
    with pytest.raises(ValueError, match="^side must be"):
        ComoduleData(c, sp, comul, "middle")
