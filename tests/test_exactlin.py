from fractions import Fraction
from math import gcd
import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hopfcyclic.algcore import Report
from hopfcyclic import exactlin
from hopfcyclic.exactlin import (
    QQ, FieldSpec, LinMap, Pipe, Space, DescentFailure, NoSolution,
    NotInvertible, QuotientPresentation, combine, descend, descent_witness,
    fix_factor, invert, _reduce, kernel, permute_factors, quotient_by, rank,
    rref, solve, solve_many, tensor_presentation,
)
from hopfcyclic.hopfalgebroid import gallery


def mk(rows, field=QQ):
    rows = [[field.of_int(x) for x in r] for r in rows]
    return LinMap.from_rows(Space(len(rows[0])), Space(len(rows)), field, rows)


def test_rref_small_rational():
    # oracle: eliminated by hand
    m = mk([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    red, pivots, rk = rref(m)
    assert rk == 2
    assert pivots == (0, 1)
    assert red.rows() == [
        [Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(1)],
        [Fraction(0), Fraction(0), Fraction(0)],
    ]


def test_rref_f2_hand_case():
    # oracle: eliminated by hand over F2
    f2 = FieldSpec(2)
    m = mk([[1, 1, 0], [1, 0, 1], [0, 1, 1]], f2)
    red, pivots, rk = rref(m)
    assert rk == 2
    assert pivots == (0, 1)
    assert kernel(m).dom.dim == 1
    assert kernel(m).column(0) == (1, 1, 1)


def test_kernel_columns_die():
    m = mk([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    k = kernel(m)
    assert (m @ k).is_zero()
    assert rank(k) == k.dom.dim == 1


def test_solve_and_no_solution():
    m = mk([[1, 1], [0, 1], [1, 2]])
    v = solve(m, (Fraction(3), Fraction(2), Fraction(5)))
    assert m.apply(v) == (Fraction(3), Fraction(2), Fraction(5))
    with pytest.raises(NoSolution):
        solve(m, (Fraction(1), Fraction(0), Fraction(0)))


def test_invert():
    m = mk([[2, 1], [1, 1]])
    inv = invert(m)
    assert inv @ m == LinMap.identity(m.dom, QQ)
    with pytest.raises(NotInvertible):
        invert(mk([[1, 2], [2, 4]]))


def test_tensor_index_order():
    # (a (x) b)(e_j1 (x) e_j2) with left-major flattening
    a = mk([[0, 1], [1, 0]])
    b = mk([[2, 0], [0, 3]])
    t = a.tensor(b)
    # basis vector e_0 (x) e_1 -> flat index 1
    v = [Fraction(0)] * 4
    v[1] = Fraction(1)
    out = t.apply(tuple(v))
    # a(e_0) = e_1, b(e_1) = 3 e_1 -> 3 * e_{1*2+1}
    assert out == (Fraction(0), Fraction(0), Fraction(0), Fraction(3))


def test_permute_factors_roundtrip():
    perm = [2, 0, 1]
    p = permute_factors([2, 3, 2], perm, QQ)
    # source basis (i0, i1, i2) = (1, 2, 0) -> flat 1*6 + 2*2 + 0 = 10
    src = [Fraction(0)] * 12
    src[10] = Fraction(1)
    out = p.apply(tuple(src))
    # target tuple (i2, i0, i1) = (0, 1, 2) with dims (2, 2, 3): 0*6 + 1*3 + 2
    assert out.index(Fraction(1)) == 5


def test_quotient_presentation_invariants():
    amb = Space(4)
    rel = LinMap.from_columns(Space(2), amb, QQ, [
        [Fraction(1), Fraction(-1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(1)],
    ])
    pres = quotient_by(amb, rel, QQ)
    assert pres.quotient.dim == 2
    ident = LinMap.identity(pres.quotient, QQ)
    assert pres.projection @ pres.section == ident
    assert (pres.projection @ rel).is_zero()
    assert rank(pres.projection) == 2


def test_descend_failure_witness():
    amb = Space(2)
    rel = LinMap.from_columns(Space(1), amb, QQ,
                              [[Fraction(1), Fraction(-1)]])
    pres = quotient_by(amb, rel, QQ)
    ident_pres = quotient_by(amb, LinMap.zero(Space(0), amb, QQ), QQ)
    bad = mk([[1, 0], [0, 2]])
    with pytest.raises(DescentFailure) as exc:
        descend(bad, pres, ident_pres)
    want = descent_witness(bad, pres, ident_pres)
    assert want is not None and exc.value.witness == want
    assert str(exc.value) == \
        "map does not descend (relation column %d)" % want[0]
    good = mk([[1, 1], [0, 0]])
    d = descend(good, pres, ident_pres)
    assert d.dom.dim == 1 and d.cod.dim == 2


def witness_checked(descend_fn, failures):
    """descend_fn, asserting that each DescentFailure it raises carries the
    witness of descent_witness on the same arguments and the message
    naming its column; the witnesses go to `failures`."""
    def checked(f_free, src, dst):
        try:
            return descend_fn(f_free, src, dst)
        except DescentFailure as exc:
            want = descent_witness(f_free, src, dst)
            assert want is not None and exc.witness == want
            assert str(exc) == \
                "map does not descend (relation column %d)" % want[0]
            failures.append(want)
            raise
    return checked


def test_fp_field_arithmetic():
    f5 = FieldSpec(5)
    assert f5.of_int(3, 2) == 4  # 3 * inv(2) = 3 * 3 = 9 = 4
    assert f5.parse("-1/2") == f5.of_int(-1, 2)
    assert f5.add(4, 3) == 2
    assert f5.inv(4) == 4


def test_field_primality_is_exact_and_fast_for_large_moduli():
    # trial division up to sqrt(p) would not finish on these
    assert FieldSpec(10**18 + 3).char == 10**18 + 3
    with pytest.raises(ValueError, match="not a prime"):
        FieldSpec(10**18 + 1)   # (10^6 + 1)(10^12 - 10^6 + 1)
    # strong pseudoprimes to the first 4, 8 and 11 prime bases
    for n in (3215031751, 341550071728321, 3825123056546413051):
        with pytest.raises(ValueError, match="not a prime"):
            FieldSpec(n)
    # 399165290221 * 798330580441, a strong pseudoprime to all twelve bases
    # 2..37 and the bound of the test: it and every larger modulus raise
    for n in (318665857834031151167461, 2**89 - 1):
        with pytest.raises(ValueError, match="decided only below"):
            FieldSpec(n)
    assert FieldSpec(2**61 - 1).char == 2**61 - 1
    small = [n for n in range(2, 3000)
             if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    built = []
    for n in range(-3, 3000):
        try:
            FieldSpec(n)
        except ValueError:
            continue
        built.append(n)
    assert built == [0] + small


def test_witness_column_does_not_depend_on_insertion_order():
    items = [((0, 3), Fraction(1)), ((1, 1), Fraction(2)),
             ((0, 2), Fraction(5))]
    a = LinMap(Space(4), Space(2), QQ, dict(items))
    b = LinMap(Space(4), Space(2), QQ, dict(reversed(items)))
    assert a.nonzero_column_index() == b.nonzero_column_index() == 1
    wa = Report().check_map_zero("m", a).results[0].witness
    wb = Report().check_map_zero("m", b).results[0].witness
    assert wa == wb == (1, (Fraction(0), Fraction(2)))
    assert LinMap.zero(Space(2), Space(2), QQ).nonzero_column_index() is None


# -- the factor-aware builder: Pipe agrees with the matrix formulas ----------

fields = st.sampled_from([QQ, FieldSpec(5), FieldSpec(7)])
factor_dims = st.lists(st.integers(min_value=1, max_value=3),
                       min_size=1, max_size=4)


def _prod(dims):
    out = 1
    for d in dims:
        out *= d
    return out


def _random_map(draw, f, dom, cod, rational=False):
    """A sparse map with entries in -3..3.  With `rational`, Q entries are
    also divided by 2 or 3, and the map holds every entry as a Fraction or
    every entry normalized (an int when integral)."""
    if dom == 0 or cod == 0:
        return LinMap.zero(Space(dom), Space(cod), f)
    keys = st.tuples(st.integers(min_value=0, max_value=cod - 1),
                     st.integers(min_value=0, max_value=dom - 1))
    entries = draw(st.dictionaries(keys, st.integers(min_value=-3,
                                                     max_value=3),
                                   max_size=12))
    if not (rational and f == QQ):
        return LinMap(Space(dom), Space(cod), f,
                      {k: f.of_int(v) for k, v in entries.items()})
    dens = st.sampled_from([1, 2, 3])
    entries = {k: Fraction(v, draw(dens)) for k, v in entries.items()}
    if draw(st.booleans()):
        entries = {k: QQ.of_int(v.numerator, v.denominator)
                   for k, v in entries.items()}
    return LinMap(Space(dom), Space(cod), f, entries)


def _assert_canonical(m):
    """No stored zero; over Q an int exactly when integral, over F_p an int
    in 1..p-1."""
    p = m.field.char
    for v in m.entries.values():
        if p:
            assert type(v) is int and 0 < v < p, v
        else:
            assert v != 0 and (type(v) is int or
                               (type(v) is Fraction and v.denominator > 1)), v


def _dense_product(a, b):
    """a @ b by the textbook triple loop over the rows of a and b, with
    the scalar operations of FieldSpec; the oracle for @ and Pipe."""
    f = a.field
    ra, rb = a.rows(), b.rows()
    rows = []
    for i in range(a.cod.dim):
        row = []
        for j in range(b.dom.dim):
            s = f.zero
            for k in range(a.dom.dim):
                s = f.add(s, f.mul(ra[i][k], rb[k][j]))
            row.append(s)
        rows.append(row)
    return LinMap.from_rows(b.dom, a.cod, f, rows)


@settings(max_examples=200, deadline=None)
@given(fields, st.data())
def test_matmul_matches_dense_product(f, data):
    n, k, m = (data.draw(st.integers(min_value=0, max_value=4))
               for _ in range(3))
    a = _random_map(data.draw, f, k, n, rational=True)
    b = _random_map(data.draw, f, m, k, rational=True)
    got = a @ b
    assert got == _dense_product(a, b)
    assert got.dom is b.dom and got.cod is a.cod
    _assert_canonical(got)


@st.composite
def pipes(draw):
    """A field, factor dims and a map into their tensor product; over Q
    with entries divided by 2 or 3 too (see _random_map)."""
    f = draw(fields)
    dims = draw(factor_dims)
    m = _random_map(draw, f, draw(st.integers(min_value=1, max_value=3)),
                    _prod(dims), rational=True)
    return f, dims, m


def _sandwich(left, op, right, f):
    """id (x) op (x) id, built as Kronecker products."""
    return LinMap.identity(Space(left), f).tensor(op).tensor(
        LinMap.identity(Space(right), f))


@settings(max_examples=80, deadline=None)
@given(pipes(), st.data())
def test_pipe_permute_matches_permutation_matrix(case, data):
    f, dims, m = case
    order = data.draw(st.permutations(range(len(dims))))
    got = Pipe.after(m, dims).permute(list(order))
    assert got.map == _dense_product(_dense_permutation(dims, order, f), m)
    assert got.dims == [dims[k] for k in order]
    _assert_canonical(got.map)


@st.composite
def block_cases(draw):
    """A pipe case (see pipes) with a window [start, start + count) of at
    least one factor, its out_dims and an op on it."""
    f, dims, m = draw(pipes())
    start = draw(st.integers(min_value=0, max_value=len(dims) - 1))
    count = draw(st.integers(min_value=1, max_value=len(dims) - start))
    out_dims = draw(st.lists(st.integers(min_value=1, max_value=3),
                             min_size=1, max_size=2))
    op = _random_map(draw, f, _prod(dims[start:start + count]),
                     _prod(out_dims), rational=True)
    return f, dims, m, start, count, op, out_dims


def _block_case(f, dims, start, count, out_dims):
    """A fixed block case; over Q every entry of m has denominator 2 and
    every entry of op denominator 3, where they are not integral."""
    def fixed(dom, cod, den):
        return LinMap(Space(dom), Space(cod), f, {
            (i, j): f.of_int(i + j + 1, den)
            for i in range(cod) for j in {i % dom, (2 * i + 1) % dom}})
    op = fixed(_prod(dims[start:start + count]), _prod(out_dims), 3)
    return f, dims, fixed(2, _prod(dims), 2), start, count, op, out_dims


# one window of each shape that _stage tells apart, over Q and F_p:
# at the start, at the end, inside the list and covering every factor
_WINDOWS = [([2, 3], 0, 1, [2]), ([2, 3], 1, 1, [2]),
            ([2, 2, 3], 1, 1, [3]), ([2, 3], 0, 2, [2, 2])]


def _with_block_examples(test):
    for f in (QQ, FieldSpec(5)):
        for window in _WINDOWS:
            test = example(_block_case(f, *window))(test)
    return test


@settings(max_examples=80, deadline=None)
@given(block_cases())
@_with_block_examples
def test_pipe_block_matches_kronecker_sandwich(case):
    f, dims, m, start, count, op, out_dims = case
    got = Pipe.after(m, dims).block(start, count, op, out_dims)
    want = _sandwich(_prod(dims[:start]), op, _prod(dims[start + count:]), f)
    assert got.map == _dense_product(want, m)
    assert got.dims == dims[:start] + out_dims + dims[start + count:]
    _assert_canonical(got.map)


def _dense_permutation(dims, order, f):
    """permute_factors(dims, order, f) from its definition: the source
    basis tensor with digits x goes to the target basis tensor with
    digits (x[order[0]], ..., x[order[-1]])."""
    new_dims = [dims[k] for k in order]

    def flat(digits, sizes):
        index = 0
        for x, d in zip(digits, sizes):
            index = index * d + x
        return index

    return LinMap(Space(_prod(dims)), Space(_prod(dims)), f, {
        (flat([x[k] for k in order], new_dims), flat(x, dims)): f.one
        for x in itertools.product(*map(range, dims))})


@pytest.mark.parametrize("f", [QQ, FieldSpec(5)], ids=repr)
@pytest.mark.parametrize("dims", [
    [3], [1], [2, 1], [1, 7, 1, 2], [64, 2], [2] * 8], ids=str)
def test_pipe_permute_matches_the_dense_permutation(f, dims):
    """Each of these cuts the factors for the two digit tables
    differently; a family stage first gives the pipe a wider source."""
    rng = random.Random(len(dims) * 100 + dims[0])
    n = _prod(dims)
    m = LinMap(Space(3), Space(n), f, {
        (rng.randrange(n), rng.randrange(3)): f.of_int(rng.randint(1, 4), 2)
        for _ in range(2 * n)})
    orders = [list(reversed(range(len(dims)))),
              list(range(1, len(dims))) + [0]]
    orders.append(rng.sample(range(len(dims)), len(dims)))
    for order in orders:
        want = _dense_product(_dense_permutation(dims, order, f), m)
        assert Pipe.after(m, dims).permute(order).map == want
        fresh = Pipe(dims, f).permute(order)
        assert fresh.map == _dense_permutation(dims, order, f)
        assert fresh.dims == [dims[k] for k in order]
        # after a family stage over K = 2 on the first factor
        op = LinMap(Space(2 * dims[0]), Space(dims[0]), f, {
            (rng.randrange(dims[0]), c): f.of_int(c + 1, 3)
            for c in range(2 * dims[0])})
        fam = Pipe.after(m, dims).family(0, 1, op, 2)
        before = fam.map
        got = fam.permute(order).map
        assert got == _dense_product(_dense_permutation(dims, order, f),
                                     before)


@pytest.mark.parametrize("f", [QQ, FieldSpec(5)], ids=repr)
@pytest.mark.parametrize("thin", [True, False], ids=["sums", "tables"])
def test_pipe_permute_reads_digits_by_the_number_of_entries(f, thin,
                                                            monkeypatch):
    """[2, 3, 2, 2] is cut into runs of 6 and 4 indices: a pipe with 2
    entries forms each digit sum on its first lookup, one with 24 entries
    reads two full tables, and both agree with the dense permutation."""
    used = []
    for name in ("_digit_table", "_DigitSums"):
        def spy(*args, real=getattr(exactlin, name), name=name):
            used.append(name)
            return real(*args)
        monkeypatch.setattr(exactlin, name, spy)
    dims = [2, 3, 2, 2]
    m = _fixed_map(f, 3, 24, {(5, 0): (1, 2), (19, 2): 3} if thin else
                   {(k, k % 3): (k + 1, 2) for k in range(24)})
    for order in ([3, 2, 1, 0], [1, 3, 0, 2]):
        got = Pipe.after(m, dims).permute(order).map
        assert got == _dense_product(_dense_permutation(dims, order, f), m)
    assert used == ["_DigitSums" if thin else "_digit_table"] * 4


def test_pipe_permute_memory_follows_the_entries():
    """A pipe with 3 entries on 40 factors of dimension 2 is permuted in
    a few times the memory of its entries; two digit tables over 20
    factors each would hold 2**21 ints."""
    dims, n = [2] * 40, 2 ** 40
    m = _fixed_map(QQ, 3, n, {(n - 1, 0): 1, (5 * 2 ** 25 + 3, 1): (2, 3),
                              (7, 2): 3})
    pipe = Pipe.after(m, dims)
    stored = sys.getsizeof(pipe.entries) + sum(
        sys.getsizeof(x) for k, v in pipe.entries.items() for x in (k, *k, v))
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        pipe.permute(list(reversed(range(40))))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 16 * stored, (peak, stored)

    def reversed_digits(x):
        return int(format(x, "040b")[::-1], 2)

    assert pipe.map == LinMap(m.dom, m.cod, QQ, {
        (reversed_digits(i), j): v for (i, j), v in m.entries.items()})


def _fixed_map(f, dom, cod, values):
    """A map dom -> cod with the entries {key: n or (n, d)}, read as n/d
    in f."""
    return LinMap(Space(dom), Space(cod), f, {
        k: f.of_int(*v) if isinstance(v, tuple) else f.of_int(v)
        for k, v in values.items()})


@pytest.mark.parametrize("f", [QQ, FieldSpec(5)], ids=repr)
def test_maps_are_immutable(f):
    """A map from LinMap(), one from @ and one re-coded by a free
    presentation refuse a new `entries` and an edit of it, and still
    multiply as before, also as the op of a Pipe stage."""
    a = _fixed_map(f, 3, 3, {(0, 0): (1, 2), (1, 2): 3, (2, 1): -1})
    b = _fixed_map(f, 2, 3, {(0, 0): 1, (2, 1): 2, (1, 1): (1, 3)})
    m = _fixed_map(f, 2, 6, {(k, k % 2): k + 1 for k in range(6)})
    pres = QuotientPresentation.trivial(Space(3), f)
    for x in (a, a @ a, pres.project(a)):
        before = dict(x.entries)
        want = _dense_product(x, b)
        assert x @ b == want
        with pytest.raises(AttributeError):
            x.entries = {}
        with pytest.raises(TypeError):
            x.entries[(0, 0)] = f.one
        assert x.entries == before and x @ b == want
        assert Pipe.after(m, [2, 3]).block(1, 1, x).map == \
            _dense_product(_sandwich(2, x, 1, f), m)


@pytest.mark.parametrize("f", [QQ, FieldSpec(5)], ids=repr)
def test_a_map_read_through_a_free_presentation_multiplies_as_itself(f):
    pres = QuotientPresentation.trivial(Space(3), f)
    a = _fixed_map(f, 3, 3, {(0, 1): (1, 2), (2, 0): 4, (1, 1): 1})
    b = _fixed_map(f, 2, 3, {(1, 0): (2, 3), (0, 1): 1, (1, 1): 3})
    want = _dense_product(a, b)
    assert pres.project(a) @ b == want     # a not yet indexed
    assert a @ b == want
    recoded = pres.project(a)              # a indexed by now
    assert recoded.cod is pres.quotient
    assert recoded @ b == want and recoded @ b == a @ b


@settings(max_examples=60, deadline=None)
@given(pipes(), st.data())
def test_pipe_block_with_no_factors_inserts_one(case, data):
    f, dims, m = case
    pos = data.draw(st.integers(min_value=0, max_value=len(dims)))
    d = data.draw(st.integers(min_value=1, max_value=3))
    vec = _random_map(data.draw, f, 1, d, rational=True)
    got = Pipe.after(m, dims).block(pos, 0, vec)
    want = _sandwich(_prod(dims[:pos]), vec, _prod(dims[pos:]), f)
    assert got.map == _dense_product(want, m)
    assert got.dims == dims[:pos] + [d] + dims[pos:]
    _assert_canonical(got.map)


@settings(max_examples=80, deadline=None)
@given(pipes(), st.data())
def test_pipe_family_matches_a_leading_parameter_factor(case, data):
    # oracle: K in front from the start, moved next to the run and
    # consumed with it by one block
    f, dims, m = case
    start = data.draw(st.integers(min_value=0, max_value=len(dims)))
    count = data.draw(st.integers(min_value=0, max_value=len(dims) - start))
    size = data.draw(st.integers(min_value=1, max_value=3))
    out_dims = data.draw(st.lists(st.integers(min_value=1, max_value=3),
                                  min_size=1, max_size=2))
    op = _random_map(data.draw, f, size * _prod(dims[start:start + count]),
                     _prod(out_dims), rational=True)
    got = Pipe.after(m, dims).family(start, count, op, size, out_dims)
    want = Pipe.after(LinMap.identity(Space(size), f).tensor(m),
                      [size] + dims)
    want.permute(list(range(1, start + 1)) + [0]
                 + list(range(start + 1, len(dims) + 1)))
    want.block(start, count + 1, op, out_dims)
    assert got.map == want.map
    assert got.dims == want.dims == \
        dims[:start] + out_dims + dims[start + count:]
    _assert_canonical(got.map)


@settings(max_examples=30, deadline=None)
@given(fields, factor_dims)
def test_pipe_starts_as_identity(f, dims):
    pipe = Pipe(dims, f)
    assert pipe.map == LinMap.identity(Space(_prod(dims)), f)


@st.composite
def stage_runs(draw):
    """A field, factor dims and up to three Pipe stages, each valid on the
    dims the stages before it leave: ("block", start, count, op, out_dims),
    ("family", start, count, op, size, out_dims) or ("permute", order)."""
    f = draw(fields)
    dims = draw(factor_dims)
    cur = list(dims)
    stages = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["permute", "block", "family"]))
        if kind == "permute":
            order = list(draw(st.permutations(range(len(cur)))))
            stages.append(("permute", order))
            cur = [cur[k] for k in order]
            continue
        start = draw(st.integers(min_value=0, max_value=len(cur)))
        count = draw(st.integers(min_value=0, max_value=len(cur) - start))
        size = draw(st.integers(min_value=1, max_value=3)) \
            if kind == "family" else 1
        out_dims = draw(st.lists(st.integers(min_value=1, max_value=3),
                                 min_size=1, max_size=2))
        op = _random_map(draw, f, size * _prod(cur[start:start + count]),
                         _prod(out_dims), rational=True)
        stages.append((kind, start, count, op, size, out_dims))
        cur[start:start + count] = out_dims
    return f, dims, stages


@settings(max_examples=120, deadline=None)
@given(stage_runs())
@example((QQ, [2, 3], []))
@example((FieldSpec(5), [2, 3, 2], [("permute", [2, 0, 1])]))
def test_fresh_pipe_agrees_with_a_pipe_after_the_identity(case):
    """A fresh Pipe holds no entries until its first stage, which writes
    id (x) op (x) id directly; every run of stages, none included, gives
    what it gives on a pipe continued from the identity map."""
    f, dims, stages = case
    fresh = Pipe(dims, f)
    after = Pipe.after(LinMap.identity(Space(_prod(dims)), f), dims)
    for stage in stages:
        for pipe in (fresh, after):
            kind, *args = stage
            if kind == "permute":
                pipe.permute(*args)
            elif kind == "block":
                start, count, op, _, out_dims = args
                pipe.block(start, count, op, out_dims)
            else:
                pipe.family(*args)
        assert fresh.dims == after.dims
    assert fresh.map == after.map
    _assert_canonical(fresh.map)


# -- elimination: properties over Q and F_p, and a dense Fraction oracle ----

def _gauss_jordan(rows, ncols, p):
    """Dense Gauss-Jordan on a list of rows, with Fraction arithmetic over
    Q (p = 0) and residues mod p otherwise; pivots only below ncols.
    Returns (reduced rows, pivot columns, rest): the nonzero reduced rows,
    each entry over Q an int where integral, and the nonzero rows left
    with no entry below ncols."""
    def div(x, y):
        return Fraction(x, y) if not p else x * pow(y, p - 2, p) % p

    def clear(r, pr, c):
        return [x - r[c] * y if not p else (x - r[c] * y) % p
                for x, y in zip(r, pr)]

    rows = [[Fraction(x) if not p else x % p for x in r] for r in rows]
    done, pivots = [], []
    for c in range(ncols):
        pr = next((r for r in rows if r[c]), None)
        if pr is None:
            continue
        rows.remove(pr)
        pr = [div(x, pr[c]) for x in pr]
        rows = [clear(r, pr, c) for r in rows]
        done = [clear(r, pr, c) for r in done]
        done.append(pr)
        pivots.append(c)
    norm = [[x.numerator if not p and x.denominator == 1 else x for x in r]
            for r in done]
    return norm, tuple(pivots), [r for r in rows if any(r)]


def _typed(m):
    """The entries of a map with their types, so that 2 and Fraction(2)
    differ."""
    return {k: (type(v), v) for k, v in m.entries.items()}


def _want(entries):
    """The nonzero reference entries, typed as _typed types them."""
    return {k: (type(v), v) for k, v in entries.items() if v}


def _ref_null_basis(red, pivots, n):
    """{(coordinate, k): value} of the kernel basis of kernel()'s docstring
    read off reduced rows, and the free columns."""
    free = [c for c in range(n) if c not in pivots]
    basis = {}
    for k, c in enumerate(free):
        basis[(c, k)] = 1
        for r, pc in enumerate(pivots):
            if red[r][c]:
                basis[(pc, k)] = -red[r][c]
    return basis, free


@st.composite
def field_matrices(draw, square=False, field=fields):
    """A field and a matrix of at most 5 x 5, possibly empty.  Half are
    products through an inner dimension k, so of rank at most k; half of
    the square ones are shifted by a nonzero multiple of the identity, so
    that invertible matrices come up too."""
    f = draw(field)
    nr = draw(st.integers(min_value=0, max_value=5))
    nc = nr if square else draw(st.integers(min_value=0, max_value=5))
    if draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=min(nr, nc)))
        m = _random_map(draw, f, k, nr) @ _random_map(draw, f, nc, k)
    else:
        m = _random_map(draw, f, nc, nr)
    if square and draw(st.booleans()):
        c = f.of_int(draw(st.integers(min_value=1, max_value=4)))
        m = m + LinMap.identity(m.dom, f).scaled(c)
    return f, m


@settings(max_examples=150, deadline=None)
@given(field_matrices())
def test_rref_matches_dense_oracle(case):
    f, m = case
    red, pivots, rk = rref(m)
    rows, want_pivots, _ = _gauss_jordan(m.rows(), m.dom.dim, f.char)
    assert red.rows() == rows + [[0] * m.dom.dim] * (m.cod.dim - len(rows))
    assert pivots == want_pivots and rk == len(pivots)
    assert rank(m) == rk


@settings(max_examples=100, deadline=None)
@given(field_matrices())
def test_rank_nullity(case):
    f, m = case
    k = kernel(m)
    assert rank(m) + k.dom.dim == m.dom.dim
    assert (m @ k).is_zero()
    assert rank(k) == k.dom.dim


@settings(max_examples=100, deadline=None)
@given(field_matrices(), st.data())
def test_solve_consistent_systems(case, data):
    f, m = case
    k = data.draw(st.integers(min_value=0, max_value=3))
    x = _random_map(data.draw, f, k, m.dom.dim)
    targets = m @ x
    sols = solve_many(m, targets)
    assert m @ sols == targets
    for j in range(k):
        t = targets.column(j)
        assert m.apply(solve(m, t)) == t
        assert solve(m, t) == sols.column(j)


@settings(max_examples=100, deadline=None)
@given(field_matrices(), st.data())
def test_solve_refuses_exactly_the_targets_off_the_image(case, data):
    f, m = case
    t = _random_map(data.draw, f, 1, m.cod.dim)
    augmented = dict(m.entries)
    augmented.update({(i, m.dom.dim): v for (i, _), v in t.entries.items()})
    in_image = rank(LinMap(Space(m.dom.dim + 1), m.cod, f, augmented)) \
        == rank(m)
    try:
        sol = solve(m, t.column(0))
    except NoSolution:
        assert not in_image
    else:
        assert in_image and m.apply(sol) == t.column(0)


@settings(max_examples=100, deadline=None)
@given(field_matrices(square=True))
def test_invert_is_two_sided(case):
    f, m = case
    ident = LinMap.identity(m.dom, f)
    if rank(m) < m.dom.dim:
        with pytest.raises(NotInvertible):
            invert(m)
        return
    inv = invert(m)
    assert m @ inv == ident and inv @ m == ident


@settings(max_examples=100, deadline=None)
@given(field_matrices())
def test_quotient_dims(case):
    f, m = case
    pres = quotient_by(m.cod, m, f)
    assert pres.quotient.dim == m.cod.dim - rank(m)
    assert pres.projection @ pres.section == \
        LinMap.identity(pres.quotient, f)
    assert (pres.projection @ m).is_zero()


def _oracle_kernel(m):
    """Kernel basis read off _gauss_jordan: column k is 1 at the k-th
    non-pivot column c and minus each reduced row's entry at c at that
    row's pivot, as kernel() documents."""
    p = m.field.char
    red, pivots, _ = _gauss_jordan(m.rows(), m.dom.dim, p)
    basis, free = _ref_null_basis(red, pivots, m.dom.dim)
    return LinMap(Space(len(free)), m.dom, m.field,
                  {k: v % p if p else v for k, v in basis.items()})


@settings(max_examples=150, deadline=None)
@given(field_matrices())
def test_kernel_basis_matches_the_oracle(case):
    # the basis itself, not only its span: tower relations are compared
    # entry for entry
    f, m = case
    want = _oracle_kernel(m)
    assert kernel(m) == want
    assert kernel(rref(m)[0]) == want


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_tower_relations_are_the_kernel_of_the_projection(field):
    for name, entry in gallery(field).items():
        h = entry.hopf
        for n in (1, 2, 3):
            for pres in (h.ltower(n), h.rtower(n)):
                assert pres.relations == _oracle_kernel(pres.projection), \
                    (name, n)


def _sparse_random_map(rng, f, dom, cod):
    """About two entries per column, values in -2..2."""
    entries = {}
    for _ in range(2 * dom.dim):
        entries[(rng.randrange(cod.dim), rng.randrange(dom.dim))] = \
            f.of_int(rng.randint(-2, 2))
    return LinMap(dom, cod, f, entries)


def _rebased(pres):
    """The presentation of pres's ambient with no relations, through an
    invertible change of basis: no relations, but not free.  The
    projection is diag(2, 1, ..., 1) (1 + N) with N the shift up, the
    section its inverse sum_k (-N)^k diag(1/2, 1, ..., 1)."""
    f = pres.projection.field
    amb = pres.ambient
    up = {(i, i): f.one for i in range(amb.dim)}
    down = dict(up)
    for i in range(amb.dim - 1):
        up[(i, i + 1)] = f.one
        for j in range(i + 1, amb.dim):
            down[(i, j)] = f.of_int((-1) ** (j - i))
    up[(0, 0)] = f.of_int(2)
    if amb.dim > 1:
        up[(0, 1)] = f.of_int(2)
    down[(0, 0)] = f.of_int(1, 2)
    quot = Space(amb.dim)
    return QuotientPresentation(amb, quot, LinMap(amb, quot, f, up),
                                LinMap(quot, amb, f, down))


def _descend_oracle(m, src, dst):
    """What descend must do: ("fail", witness) or ("ok", descended map)."""
    bad = dst.projection @ (m @ src.relations)
    if not bad.is_zero():
        j = bad.nonzero_column_index()
        return "fail", (j, bad.column(j))
    return "ok", dst.projection @ (m @ src.section)


def _descending_map(rng, src, dst):
    """A map of ambients that kills src's relations: a lift of a random map
    of quotients, plus a random map into dst's relations."""
    f = src.projection.field
    g = _sparse_random_map(rng, f, src.quotient, dst.quotient)
    m = dst.section @ (g @ src.projection)
    if dst.relations.dom.dim:
        m = m + dst.relations @ _sparse_random_map(
            rng, f, src.ambient, dst.relations.dom)
    return m


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_descend_matches_the_oracle_on_every_tower(field):
    rng = random.Random(20261018)
    for name, entry in gallery(field).items():
        h = entry.hopf
        towers = [t(n) for n in (1, 2, 3) for t in (h.ltower, h.rtower)]
        for pres in towers:
            ident = (pres.projection == LinMap.identity(pres.ambient, field)
                     and pres.section == LinMap.identity(pres.ambient, field))
            assert pres.free == ident, name
            # the towers of a Hopf algebra have no balancing relations; the
            # pair towers past the bare U (degree 1) do
            if name.startswith("pair") and pres.ambient.dim > h.U.space.dim:
                assert not pres.free, name
            if not name.startswith("pair"):
                assert pres.free, name
        rebased = _rebased(towers[2])
        assert rebased.projection @ rebased.section == \
            LinMap.identity(rebased.quotient, field)
        assert not rebased.free
        press = towers + [rebased]
        outcomes = set()
        for src in press:
            for dst in press:
                for m in (_sparse_random_map(rng, field, src.ambient,
                                             dst.ambient),
                          _descending_map(rng, src, dst)):
                    kind, want = _descend_oracle(m, src, dst)
                    outcomes.add((kind, src.free, dst.free))
                    assert descent_witness(m, src, dst) == \
                        (None if kind == "ok" else want), name
                    if kind == "ok":
                        assert descend(m, src, dst) == want, name
                        continue
                    with pytest.raises(DescentFailure) as exc:
                        descend(m, src, dst)
                    assert exc.value.witness == want, name
        if name.startswith("pair"):
            assert outcomes >= {("ok", s, d) for s in (True, False)
                                for d in (True, False)}
            assert ("fail", False, True) in outcomes
            assert ("fail", False, False) in outcomes


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_tensor_presentation_of_a_family_has_the_slice_relations(field):
    # K (x) pres, the source of a family of K maps on pres's ambient, is
    # trivial where pres is free (no Kronecker product); otherwise its
    # relation column b * n_rel + r is relation r of pres in slice b, so a
    # family's descend witness names a slice's own
    for name, e in gallery(field).items():
        h = e.hopf
        for pres in [t(n) for n in (1, 2, 3) for t in (h.ltower, h.rtower)]:
            for k in (1, 3):
                ident = LinMap.identity(Space(k), field)
                fam = tensor_presentation(
                    QuotientPresentation.trivial(Space(k), field), pres)
                assert fam.ambient.dim == k * pres.ambient.dim, name
                assert fam.free == pres.free, name
                assert fam.projection == ident.tensor(pres.projection)
                assert fam.section == ident.tensor(pres.section)
                assert fam.relations == ident.tensor(pres.relations), name


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_descend_checks_towers_whose_relations_are_unread(field):
    # a tower computes its relation basis when it is read; descend must
    # not take an unread basis for an empty one
    h = gallery(field)["pair_dual"].hopf
    src, dst = h.rtower(2), h.ltower(2)
    m = _sparse_random_map(random.Random(7), field, src.ambient, dst.ambient)
    assert src._relations is None
    with pytest.raises(DescentFailure) as exc:
        descend(m, src, dst)
    kind, want = _descend_oracle(m, src, dst)
    assert kind == "fail" and exc.value.witness == want


# -- Q scalars: an int when integral, a Fraction otherwise -------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-12, max_value=12),
       st.integers(min_value=-4, max_value=4).filter(bool), rationals)
def test_q_scalars_are_ints_exactly_when_integral(n, d, a):
    q = QQ.of_int(n, d)
    assert q == Fraction(n, d)
    assert (type(q) is int) == (n % d == 0)
    assert type(q) in (int, Fraction)
    if a:
        for x in (a, Fraction(a), QQ.of_int(a.numerator, a.denominator)):
            inv = QQ.inv(x)
            assert inv == 1 / Fraction(a)
            assert (type(inv) is int) == (a.numerator in (1, -1))
            assert type(inv) in (int, Fraction)


@st.composite
def q_matrices(draw, square=False):
    """A Q matrix from field_matrices with some entries divided by 2 or 3,
    in two forms: every entry a Fraction, and every entry normalized."""
    f, m = draw(field_matrices(square, st.just(QQ)))
    entries = {k: Fraction(v, draw(st.sampled_from([1, 1, 2, 3])))
               for k, v in m.entries.items()}
    as_fractions = LinMap(m.dom, m.cod, QQ, entries)
    normalized = LinMap(m.dom, m.cod, QQ, {
        k: QQ.of_int(v.numerator, v.denominator) for k, v in entries.items()})
    return as_fractions, normalized


def _no_floats(*maps):
    for m in maps:
        assert all(type(v) in (int, Fraction) for v in m.entries.values())


@settings(max_examples=150, deadline=None)
@given(q_matrices(), st.data())
def test_elimination_ignores_the_q_scalar_representation(case, data):
    a, b = case
    ra, rb = rref(a), rref(b)
    assert ra == rb
    ka, kb = kernel(a), kernel(b)
    assert ka == kb
    x = _random_map(data.draw, QQ, data.draw(st.integers(0, 3)), a.dom.dim)
    sa, sb = solve_many(a, a @ x), solve_many(b, b @ x)
    assert sa == sb
    qa, qb = quotient_by(a.cod, a, QQ), quotient_by(b.cod, b, QQ)
    assert qa.quotient.dim == qb.quotient.dim
    assert qa.projection == qb.projection and qa.section == qb.section
    _no_floats(ra[0], rb[0], ka, kb, sa, sb, qa.projection, qb.projection,
               qa.section, qb.section)
    for m in (ra[0], rb[0], ka, kb, sa, sb, qa.projection, qb.projection,
              qa.section, qb.section):
        _assert_canonical(m)


@settings(max_examples=100, deadline=None)
@given(q_matrices(square=True))
def test_invert_ignores_the_q_scalar_representation(case):
    a, b = case
    try:
        ia = invert(a)
    except NotInvertible:
        with pytest.raises(NotInvertible):
            invert(b)
        return
    ib = invert(b)
    assert ia == ib
    _no_floats(ia, ib)
    _assert_canonical(ia)
    _assert_canonical(ib)


def test_elimination_returns_integral_q_scalars_as_ints():
    # back substitution sums Fractions, which may come out integral
    m = LinMap.from_rows(Space(3), Space(3), QQ, [
        [0, 0, 0], [Fraction(-2, 3), Fraction(-1, 3), -2], [-2, 1, -2]])
    red = rref(m)[0]
    assert red.entries == {(0, 0): 1, (0, 2): 2, (1, 1): 1, (1, 2): 2}
    _assert_canonical(red)
    a = LinMap(Space(1), Space(1), QQ, {(0, 0): Fraction(1, 2)})
    for m in (a + a, a.scaled(2), a.tensor(a).scaled(4)):
        assert m.entries == {(0, 0): 1}
        _assert_canonical(m)


# -- map equality: equal entry dicts exactly when the difference is zero ----

@st.composite
def map_pairs(draw):
    """Two maps of one shape over Q, F5 or F7, the second the first plus a
    map that is zero half of the time.  Over Q some entries are divided by
    2 or 3, and each map holds every entry as a Fraction or every entry
    normalized (an int when integral)."""
    f = draw(fields)
    dom = draw(st.integers(min_value=0, max_value=4))
    cod = draw(st.integers(min_value=0, max_value=4))
    a = _random_map(draw, f, dom, cod)
    d = _random_map(draw, f, dom, cod) if draw(st.booleans()) \
        else LinMap.zero(a.dom, a.cod, f)
    if f == QQ:
        a = LinMap(a.dom, a.cod, f, {
            k: Fraction(v, draw(st.sampled_from([1, 2, 3])))
            for k, v in a.entries.items()})
    b = a + d
    if f == QQ:
        def recoded(m):
            as_fractions = draw(st.booleans())
            return LinMap(m.dom, m.cod, f, {
                k: Fraction(v) if as_fractions
                else QQ.of_int(v.numerator, v.denominator)
                for k, v in m.entries.items()})
        a, b = recoded(a), recoded(b)
    return a, b


@settings(max_examples=200, deadline=None)
@given(map_pairs())
def test_map_equality_is_a_zero_difference(case):
    a, b = case
    diff = a - b
    assert (a == b) == diff.is_zero() == (b == a)
    assert (a != b) == (not diff.is_zero())
    res = Report().check_map_equal("eq", a, b).results[0]
    assert res.passed == diff.is_zero()
    if not res.passed:
        j = diff.nonzero_column_index()
        assert res.witness == (j, diff.column(j))


def test_builder_operators_are_in_canonical_form_over_f5():
    # the compare by entry dicts needs every entry reduced and nonzero
    from hopfcyclic.cyclichom import (
        build_cocyclic_CU, build_cocyclic_with_coeffs, build_cyclic_CU,
        build_cyclic_with_coeffs)
    f5 = FieldSpec(5)
    for name, e in gallery(f5).items():
        for cm in (build_cyclic_CU(e.hopf, 3), build_cocyclic_CU(e.hopf, 3),
                   build_cyclic_with_coeffs(e.hopf, e.sayd, 3),
                   build_cocyclic_with_coeffs(e.hopf, e.sayd, 3)):
            ops = [op for n in cm.faces for op in cm.faces[n]]
            ops += [op for n in cm.degen for op in cm.degen[n]]
            ops += list(cm.cyc.values())
            assert ops, name
            for op in ops:
                assert all(type(v) is int and 1 <= v <= 4
                           for v in op.entries.values()), (name, cm.label)


# -- integer forms: sums, scaling and tensors on one common denominator -----

@settings(max_examples=200, deadline=None)
@given(fields, st.data())
def test_sum_difference_scaling_and_tensor_match_dense_oracles(f, data):
    dims = [data.draw(st.integers(min_value=0, max_value=3))
            for _ in range(4)]
    a = _random_map(data.draw, f, dims[0], dims[1], rational=True)
    b = _random_map(data.draw, f, dims[0], dims[1], rational=True)
    c = _random_map(data.draw, f, dims[2], dims[3], rational=True)
    k = f.of_int(data.draw(st.integers(min_value=-3, max_value=3)),
                 data.draw(st.sampled_from([1, 2, 3])))
    ra, rb, rc = a.rows(), b.rows(), c.rows()
    cases = [
        (a + b, [[f.add(x, y) for x, y in zip(r, s)]
                 for r, s in zip(ra, rb)]),
        (a - b, [[f.sub(x, y) for x, y in zip(r, s)]
                 for r, s in zip(ra, rb)]),
        (a.scaled(k), [[f.mul(k, x) for x in r] for r in ra]),
        (a.tensor(c), [[f.mul(ra[i][j], rc[i2][j2])
                        for j in range(dims[0]) for j2 in range(dims[2])]
                       for i in range(dims[1]) for i2 in range(dims[3])]),
    ]
    for got, rows in cases:
        assert got == LinMap.from_rows(got.dom, got.cod, f, rows)
        assert got.rows() == rows
        _assert_canonical(got)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, FieldSpec(5)]), st.data())
def test_combine_matches_the_dense_linear_combination(f, data):
    """One to five maps with int and Fraction coefficients (ints over F5),
    over Q with entries divided by 2 or 3: combine gives the dense sum,
    in the canonical form that LinMap() gives the same matrix."""
    dom, cod = (data.draw(st.integers(min_value=0, max_value=3))
                for _ in range(2))
    coefficients = st.one_of(st.integers(min_value=-3, max_value=3),
                             rationals) if f == QQ \
        else st.integers(min_value=-4, max_value=4)
    terms = [(data.draw(coefficients),
              _random_map(data.draw, f, dom, cod, rational=True))
             for _ in range(data.draw(st.integers(min_value=1,
                                                  max_value=5)))]
    rows = [[f.zero] * dom for _ in range(cod)]
    for c, m in terms:
        for i, row in enumerate(m.rows()):
            for j, v in enumerate(row):
                rows[i][j] = f.add(rows[i][j], f.mul(f.parse(c), v))
    got = combine(terms)
    assert got.rows() == rows
    assert got == LinMap.from_rows(Space(dom), Space(cod), f, rows)
    _assert_canonical(got)


@settings(max_examples=200, deadline=None)
@given(map_pairs(), st.booleans())
def test_map_equality_agrees_with_the_entry_dicts(case, read_first):
    # maps built by LinMap() and maps born in integer form from @, each
    # compared before or after its entries are read
    a, b = case
    one = LinMap.identity(a.cod, a.field)
    for x, y in ((a, b), (one @ a, one @ b), (a, one @ b)):
        if read_first:
            x.entries, y.entries
        assert (x == y) == (x.entries == y.entries)


@pytest.mark.parametrize("field", [QQ, FieldSpec(5)], ids=repr)
def test_tower_complements_span_the_kernel_of_the_projection(field):
    # descend checks descent on the complement columns e_j - S P e_j;
    # they span ker P exactly when P S = id
    for name, e in gallery(field).items():
        h = e.hopf
        press = [t(n) for n in (1, 2, 3) for t in (h.ltower, h.rtower)]
        press += [t(n) for n in (1, 2)
                  for t in (e.sayd.chain_tower, e.sayd.capped_tower)]
        for pres in press + [_rebased(press[2])]:
            assert pres.projection @ pres.section == \
                LinMap.identity(pres.quotient, field), name
            span = pres._kernel_span()
            assert (pres.projection @ span).is_zero(), name
            assert rank(span) == pres.ambient.dim - pres.quotient.dim, name
        for pres in press:
            assert pres.relations == _oracle_kernel(pres.projection), name


# -- the integer-form eliminator against a dense Fraction reference ---------

def _scalars(p):
    """Over Q n/d with |n|, d <= 9, over F_p residues; zero half of the
    time."""
    if p:
        return st.integers(min_value=0, max_value=p - 1)
    return st.one_of(st.just(0), st.builds(
        Fraction, st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=9)))


@st.composite
def elimination_cases(draw):
    """(p, rows, columns, a dense matrix of at most 6 x 6) over Q, F5, F7
    or F10007 (p = 0, 5, 7, 10007); a row may be zero, repeat an earlier
    row or combine two earlier ones."""
    p = draw(st.sampled_from([0, 5, 7, 10007]))
    nr = draw(st.integers(min_value=0, max_value=6))
    nc = draw(st.integers(min_value=0, max_value=6))
    scalar = _scalars(p)
    rows = []
    for _ in range(nr):
        kind = draw(st.sampled_from(["new", "new", "zero", "repeat",
                                     "combine"])) if rows else "new"
        if kind == "new":
            row = [draw(scalar) for _ in range(nc)]
        elif kind == "zero":
            row = [0] * nc
        elif kind == "repeat":
            row = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(scalar), draw(scalar)
            row = [s * x + t * y if not p else (s * x + t * y) % p
                   for x, y in zip(a, b)]
        rows.append(row)
    return p, nr, nc, rows


def _dense_map(p, nc, rows, as_fractions):
    """The LinMap of dense rows with nc columns; over Q its entries all
    Fractions or all normalized."""
    entries = {(i, j): v if p else Fraction(v) if as_fractions
               else QQ.of_int(v.numerator, v.denominator)
               for i, r in enumerate(rows) for j, v in enumerate(r) if v}
    return LinMap(Space(nc), Space(len(rows)), FieldSpec(p), entries)


def _dense_product_rows(a, b, p):
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
           for row in a]
    return [[v % p for v in r] for r in out] if p else out


@settings(max_examples=300, deadline=None)
@given(elimination_cases(), st.booleans(), st.data())
def test_eliminator_matches_a_dense_fraction_reference(case, as_fr, data):
    p, nr, nc, rows = case
    m = _dense_map(p, nc, rows, as_fr)
    red, pivots, _ = _gauss_jordan(rows, nc, p)
    # rref and rank
    got, got_pivots, rk = rref(m)
    assert _typed(got) == _want(
        {(r, j): v for r, row in enumerate(red) for j, v in enumerate(row)})
    assert got_pivots == pivots and rk == rank(m) == len(pivots)
    # kernel
    basis, free = _ref_null_basis(red, pivots, nc)
    ker = kernel(m)
    assert ker.dom.dim == len(free)
    assert _typed(ker) == _want(
        {k: v % p if p else v for k, v in basis.items()})
    # quotient_by the span of the columns of m
    cred, cpivots, _ = _gauss_jordan([list(c) for c in zip(*rows)], nr, p)
    cbasis, cfree = _ref_null_basis(cred, cpivots, nr)
    pres = quotient_by(m.cod, m, m.field)
    assert pres.quotient.dim == len(cfree)
    assert _typed(pres.projection) == _want(
        {(k, i): v % p if p else v for (i, k), v in cbasis.items()})
    assert _typed(pres.section) == _want(
        {(c, k): 1 for k, c in enumerate(cfree)})
    # solve_many, on targets in the image of m or drawn freely
    k = data.draw(st.integers(min_value=0, max_value=3))
    scalar = _scalars(p)
    if data.draw(st.booleans()):
        x = [[data.draw(scalar) for _ in range(k)] for _ in range(nc)]
        trows = _dense_product_rows(rows, x, p) if nc else [[0] * k] * nr
    else:
        trows = [[data.draw(scalar) for _ in range(k)] for _ in range(nr)]
    targets = _dense_map(p, k, trows, as_fr)
    aug, apivots, rest = _gauss_jordan(
        [r + t for r, t in zip(rows, trows)], nc, p)
    if rest:
        with pytest.raises(NoSolution):
            solve_many(m, targets)
    else:
        assert _typed(solve_many(m, targets)) == _want(
            {(pc, j - nc): v for pc, row in zip(apivots, aug)
             for j, v in enumerate(row) if j >= nc})
    # invert, on the square matrices
    if nr == nc:
        ident = [[int(i == j) for j in range(nc)] for i in range(nc)]
        inv, ipivots, _ = _gauss_jordan(
            [r + e for r, e in zip(rows, ident)], nc, p)
        if len(ipivots) < nc:
            with pytest.raises(NotInvertible):
                invert(m)
        else:
            assert _typed(invert(m)) == _want(
                {(i, j - nc): v for i, row in enumerate(inv)
                 for j, v in enumerate(row) if j >= nc})


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-40, max_value=40),
                          st.integers(min_value=-40, max_value=40)),
                min_size=2, max_size=5))
def test_row_update_clears_the_pivot_and_keeps_rows_primitive(pairs):
    # over Q, row := (pv/g) row - (f/g) pivot_row with g = gcd(pv, f),
    # then divided by its content where pv/g is not +-1
    row, pivot = [list(t) for t in zip(*pairs)]
    assume(row[0] and pivot[0])
    r = {j: v for j, v in enumerate(row) if v}
    _reduce(r, {j: v for j, v in enumerate(pivot) if v}, 0, 0)
    got = [r.get(j, 0) for j in range(len(row))]
    assert got[0] == 0 and 0 not in r.values()
    exact = [x - Fraction(row[0], pivot[0]) * y for x, y in zip(row, pivot)]
    if abs(pivot[0] // gcd(pivot[0], row[0])) == 1:
        assert got == exact
        return
    # a nonzero multiple of the exact update, primitive
    scale = next((Fraction(g, e) for g, e in zip(got, exact) if e), None)
    assert (scale is None) == (not any(got)) == (not any(exact))
    if scale is not None:
        assert all(g == scale * e for g, e in zip(got, exact))
        assert gcd(*got) == 1


_A2, _B3 = LinMap.identity(Space(2), QQ), LinMap.identity(Space(3), QQ)
_FREE2 = QuotientPresentation.trivial(Space(2), QQ)


@pytest.mark.parametrize("call", [
    lambda: Space(-1),
    lambda: _A2.apply((1, 2, 3)),
    lambda: _A2 @ _B3,
    lambda: _A2 + _B3,
    lambda: _A2 - _B3,
    lambda: _A2.scaled(2) - _B3.scaled(2),
    lambda: combine([]),
    lambda: fix_factor(_B3, (1, 0)),
    lambda: Pipe.after(_B3, [2]),
    lambda: Pipe([2, 3], QQ).permute([0, 0]),
    lambda: Pipe([2, 3], QQ).block(0, 1, _B3),
    lambda: Pipe([2, 3], QQ).family(0, 1, _A2, 2),
    lambda: solve_many(_A2, _B3),
    lambda: solve(_A2, (1, 2, 3)),
    lambda: _FREE2.project(_B3),
    lambda: _FREE2.lift(_B3),
    lambda: quotient_by(Space(3), _A2, QQ),
    lambda: descent_witness(_B3, _FREE2, _FREE2),
], ids=["Space", "apply", "matmul", "add", "sub", "scaled", "combine",
        "fix_factor", "after", "permute", "block", "family", "solve_many",
        "solve", "project", "lift", "quotient_by", "descent_witness"])
def test_mis_shaped_arguments_raise_value_errors(call):
    """Each check is a raise, not an assert, so it holds under -O too."""
    with pytest.raises(ValueError):
        call()


def test_matmul_with_a_non_map_is_not_implemented():
    assert _A2.__matmul__(2) is NotImplemented
    with pytest.raises(TypeError):
        _A2 @ 2
