from fractions import Fraction
import functools
import itertools
import random

import pytest

from hopfcyclic import lierinehart
from hopfcyclic.exactlin import QQ, FieldSpec, LinMap, Space
from hopfcyclic.lierinehart import (
    CutoffExceeded, LieRinehartData, LieRinehartMeasuringData,
    TruncatedEnvelope, abelian_lr, ad_map, alt_map, ce_cochain_homology,
    check_alt_intertwines, check_lie_rinehart, check_lie_rinehart_measuring,
    check_lr_complex,
    check_lr_induced_chain_map, check_truncated_envelope,
    derivation_lr_measuring, induced_lr_chain_map, lie_rinehart_homology,
    lr_boundary, nonabelian_2d, wedge_basis,
)


@pytest.fixture(scope="module")
def aff():
    return nonabelian_2d(QQ)


def test_structures_pass(aff):
    assert check_lie_rinehart(aff).ok
    assert check_lie_rinehart(abelian_lr(3, QQ)).ok


def test_broken_jacobi_detected():
    f = QQ
    L = Space(3)
    # [a,b]=a and [b,c]=b fail Jacobi: the cyclic sum on (a,b,c) gives a
    entries = {(0, 0 * 3 + 1): f.one, (0, 1 * 3 + 0): f.neg(f.one),
               (1, 1 * 3 + 2): f.one, (1, 2 * 3 + 1): f.neg(f.one)}
    from hopfcyclic.hopfalgebroid import scalar_algebra
    zero = LinMap(L, Space(1), f, {})
    bad = LieRinehartData(scalar_algebra(f), L,
                          LinMap(Space(9), L, f, entries), zero, zero, f)
    rep = check_lie_rinehart(bad)
    assert not rep.ok


def test_flatness_detected(aff):
    f = QQ
    # a connection that does not kill [e, f] = f
    nabla = LinMap(aff.L, Space(1), f, {(0, 1): f.one})
    bad = LieRinehartData(aff.R, aff.L, aff.bracket, aff.anchor, nabla, f)
    assert not check_lie_rinehart(bad).ok


def test_complex_and_homology(aff):
    assert check_lr_complex(aff).ok
    assert lie_rinehart_homology(aff, 2) == [1, 1, 0]
    assert lie_rinehart_homology(abelian_lr(2, QQ), 2) == [1, 2, 1]


def test_homology_builds_and_ranks_each_boundary_once(aff, monkeypatch):
    """Degrees 0..top read the boundaries leaving degrees 1..top+1, one
    lr_boundary call each."""
    calls = []
    real = lierinehart.lr_boundary

    def counted(lr, n):
        calls.append(n)
        return real(lr, n)

    monkeypatch.setattr(lierinehart, "lr_boundary", counted)
    for lr, top, dims in ((aff, 2, [1, 1, 0]),
                          (abelian_lr(3, QQ), 3, [1, 3, 3, 1])):
        calls.clear()
        assert lie_rinehart_homology(lr, top) == dims
        assert calls == list(range(1, top + 2))


def test_ce_oracle_agrees(aff):
    assert ce_cochain_homology(aff, 2) == lie_rinehart_homology(aff, 2)
    ab = abelian_lr(3, QQ)
    assert ce_cochain_homology(ab, 3) == lie_rinehart_homology(ab, 3)


def test_nonzero_connection_complex():
    f = QQ
    aff = nonabelian_2d(QQ)
    # lambda(e) = 1, lambda(f) = 0 kills the bracket image, so it is flat
    nabla = LinMap(aff.L, Space(1), f, {(0, 0): f.one})
    lr = LieRinehartData(aff.R, aff.L, aff.bracket, aff.anchor, nabla, f)
    assert check_lie_rinehart(lr).ok
    assert check_lr_complex(lr).ok
    assert ce_cochain_homology(lr, 2) == lie_rinehart_homology(lr, 2)


def test_measuring(aff):
    m = derivation_lr_measuring(aff, ad_map(aff, (Fraction(1), Fraction(0))))
    rep = check_lie_rinehart_measuring(m)
    assert rep.ok, rep.failures()


def test_broken_measuring_detected(aff):
    # x acting by a non-derivation of the bracket
    dmat = LinMap(aff.L, aff.L, QQ, {(0, 1): Fraction(1)})
    m = derivation_lr_measuring(aff, dmat)
    assert not check_lie_rinehart_measuring(m).ok


def test_induced_chain_map(aff):
    f = QQ
    m = derivation_lr_measuring(aff, ad_map(aff, (f.one, f.zero)))
    for vec in ((f.one, f.zero), (f.zero, f.one)):
        rep = check_lr_induced_chain_map(m, vec, 2)
        assert rep.ok, (vec, rep.failures())
    # the grouplike induces the identity in every degree
    gmap = induced_lr_chain_map(m, (f.one, f.zero), 2)
    assert gmap == LinMap.identity(Space(1), f)


def test_envelope(aff):
    env = TruncatedEnvelope(aff)
    assert env.space.dim == 1 + 2 + 3 + 4
    rep = check_truncated_envelope(env)
    assert rep.ok, rep.failures()


def _no_jacobi_3d():
    """The antisymmetric bracket on k^3 with [e0,e1] = e0, [e1,e2] = e1 and
    [e0,e2] = e1, which breaks the Jacobi identity on (e0, e1, e2)."""
    from hopfcyclic.hopfalgebroid import scalar_algebra
    f = QQ
    L = Space(3)
    entries = {}
    for i, a, b in ((0, 0, 1), (1, 1, 2), (1, 0, 2)):
        entries[(i, a * 3 + b)] = f.one
        entries[(i, b * 3 + a)] = f.neg(f.one)
    zero = LinMap(L, Space(1), f, {})
    return LieRinehartData(scalar_algebra(f), L,
                           LinMap(Space(9), L, f, entries), zero, zero, f)


def _failures(rep):
    return [(r.name, r.witness) for r in rep.failures()]


@pytest.mark.parametrize("p", [0, 2, 5])
def test_bracket_checks_name_the_least_failing_pair_and_triple(p):
    """bracket_alternating reads each pair once and jacobi each triple up
    to rotation; their witnesses are the least failing i, pair and triple
    over all of them, as a reading of every pair and triple names."""
    from hopfcyclic.hopfalgebroid import scalar_algebra
    f = FieldSpec(p)
    rng = random.Random(p)
    d = 3
    zero = LinMap(Space(d), Space(1), f, {})
    for trial in range(40):
        entries = {(rng.randrange(d), rng.randrange(d * d)):
                   f.of_int(rng.randint(-2, 2))
                   for _ in range(rng.randint(0, 4))}
        lr = LieRinehartData(scalar_algebra(f), Space(d),
                             LinMap(Space(d * d), Space(d), f, entries),
                             zero, zero, f)
        e = [lr.L.basis_vector(i, f) for i in range(d)]
        br = lr.bracket_elements

        def nonzero_sum(*vecs):
            return any(functools.reduce(f.add, xs) for xs in zip(*vecs))

        alternating = []
        for i in range(d):
            if any(br(e[i], e[i])):
                alternating.append(i)
            alternating += [(i, j) for j in range(d)
                            if nonzero_sum(br(e[i], e[j]), br(e[j], e[i]))]
        jacobi = [(i, j, k)
                  for i, j, k in itertools.product(range(d), repeat=3)
                  if nonzero_sum(br(e[i], br(e[j], e[k])),
                                 br(e[j], br(e[k], e[i])),
                                 br(e[k], br(e[i], e[j])))]
        got = dict(_failures(check_lie_rinehart(lr)))
        assert got.get("bracket_alternating") == \
            (alternating[0] if alternating else None), entries
        assert got.get("jacobi") == (jacobi[0] if jacobi else None), entries


def test_envelope_of_a_non_lie_bracket_is_not_associative():
    lr = _no_jacobi_3d()
    assert _failures(check_lie_rinehart(lr)) == [("jacobi", (0, 1, 2))]
    assert _failures(check_truncated_envelope(TruncatedEnvelope(lr))) == [
        ("associative_within_cutoff", ((2,), (1,), (0,)))]


def test_unsigned_antipode_is_not_a_convolution_inverse(aff):
    env = TruncatedEnvelope(aff)
    env.antipode_word = lambda word: env.normal_form(tuple(reversed(word)))
    assert _failures(check_truncated_envelope(env)) == [
        ("antipode_convolution_inverse", (0,))]


def _drop_unit_term_on_length_two(env):
    """The coproduct without its (), w term on words w of length 2."""
    real = env.comul_word
    env.comul_word = lambda word: {
        k: c for k, c in real(word).items()
        if not (len(word) == 2 and k == ((), word))}


def _counit_one_on_generators(env):
    f = env.field
    env.counit_word = lambda word: f.one if len(word) <= 1 else f.zero


@pytest.mark.parametrize("mutate, failing", [
    (_drop_unit_term_on_length_two,
     ["coassociativity", "left_counit", "comul_multiplicative_within_cutoff",
      "antipode_convolution_inverse"]),
    (_counit_one_on_generators,
     ["left_counit", "right_counit", "antipode_convolution_inverse"]),
], ids=["dropped_comul_term", "wrong_counit"])
def test_coalgebra_mutants_of_the_envelope_fail(aff, mutate, failing):
    env = TruncatedEnvelope(aff)
    mutate(env)
    assert [r.name for r in check_truncated_envelope(env).failures()] \
        == failing


def test_envelope_coalgebra_failures_are_named_by_their_word(aff):
    env = TruncatedEnvelope(aff)
    _drop_unit_term_on_length_two(env)
    got = dict(_failures(check_truncated_envelope(env)))
    # the first failing column is 3, the word (0, 0)
    assert env.index[(0, 0)] == 3
    assert got["left_counit"] == got["coassociativity"] == (0, 0)
    env = TruncatedEnvelope(aff)
    _counit_one_on_generators(env)
    got = dict(_failures(check_truncated_envelope(env)))
    assert got["left_counit"] == got["right_counit"] == (0,)


def test_alt_map_antisymmetrizes_generators(aff):
    env = TruncatedEnvelope(aff)
    alt = alt_map(env, 2)
    dv = env.space.dim
    words = {(env.words[i // dv], env.words[i % dv]): v
             for (i, _), v in alt.entries.items()}
    assert alt.dom.dim == 1
    assert words == {((0,), (1,)): 1, ((1,), (0,)): -1}


def test_envelope_rewriting(aff):
    env = TruncatedEnvelope(aff)
    # f e = e f - [e, f] = e f - f
    nf = env.product_words((1,), (0,))
    assert nf == {(0, 1): Fraction(1), (1,): Fraction(-1)}
    with pytest.raises(CutoffExceeded):
        env.product_words((0, 0), (1, 1))


def test_alt_intertwines(aff):
    env = TruncatedEnvelope(aff)
    rep = check_alt_intertwines(aff, env)
    assert rep.ok, rep.failures()
    ab = abelian_lr(3, QQ)
    env2 = TruncatedEnvelope(ab)
    assert check_alt_intertwines(ab, env2).ok


def test_alt_intertwines_forms_the_product_once(aff, monkeypatch):
    # every degree reads one product map; comul, counit and S are unread
    real = lierinehart._envelope_mul
    calls = []

    def counting(env):
        calls.append(env)
        return real(env)

    monkeypatch.setattr(lierinehart, "_envelope_mul", counting)
    monkeypatch.setattr(lierinehart, "_envelope_maps", None)
    env = TruncatedEnvelope(aff)
    rep = check_alt_intertwines(aff, env)
    assert [(r.name, r.passed) for r in rep.results] == \
        [("degree2", True), ("degree3", True)]
    assert calls == [env]


def test_wedge_basis():
    assert wedge_basis(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert lr_boundary(nonabelian_2d(QQ), 2).entries == {(1, 0): Fraction(-1)}


def test_bad_shapes_and_connections_raise_value_errors(aff):
    """These hold under python -O too: none of them rests on an assert."""
    f = QQ
    with pytest.raises(ValueError, match="anchor"):
        LieRinehartData(aff.R, aff.L, aff.bracket,
                        LinMap(Space(3), Space(1), f, {}), aff.nabla, f)
    m = derivation_lr_measuring(aff, ad_map(aff, (f.one, f.zero)))
    with pytest.raises(ValueError, match="PsiL"):
        LieRinehartMeasuringData(m.C, aff, aff, LinMap(Space(3), aff.L, f),
                                 m.psi)
    nabla = LinMap(aff.L, Space(1), f, {(0, 0): f.one})
    lr = LieRinehartData(aff.R, aff.L, aff.bracket, aff.anchor, nabla, f)
    with pytest.raises(ValueError, match="trivial connection"):
        check_alt_intertwines(lr, TruncatedEnvelope(lr))
