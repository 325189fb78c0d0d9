"""Lie-Rinehart algebras over the ground field, their chain complex on
exterior powers, measurings with induced chain maps, and a width-truncated
universal envelope with a PBW word basis.

The base ring is restricted to the ground field itself, so the anchor and
the flat connection are linear functionals on the Lie algebra and every
exterior power is a plain vector space with an increasing-tuple basis.
"""

import itertools
from math import comb

from .exactlin import (
    LinMap, Pipe, Space, difference_witness, fix_factor, pack_slices, rank,
)
from .algcore import (
    CoalgebraData, Report, basis_slices, check_coalgebra,
    check_sweedler_measuring, require_shape, sweedler_sum,
)


class CutoffExceeded(Exception):
    """A product left the truncated word basis."""


class LieRinehartData:
    """(R, L, bracket, anchor, nabla) with R one dimensional over the field.

    bracket : L (x) L -> L
    anchor  : L (x) R -> R   (a functional on L when R = k)
    nabla   : L (x) R -> R   (the flat connection, again a functional)
    """

    def __init__(self, R, L, bracket, anchor, nabla, field, label=""):
        if R.space.dim != 1:
            raise ValueError("base ring must be the ground field")
        require_shape("bracket", bracket, L.dim * L.dim, L.dim)
        require_shape("anchor", anchor, L.dim, 1)
        require_shape("connection", nabla, L.dim, 1)
        self.R = R
        self.L = L
        self.bracket = bracket
        self.anchor = anchor
        self.nabla = nabla
        self.field = field
        self.label = label

    def bracket_elements(self, zvec, wvec):
        f = self.field
        d = self.L.dim
        out = [f.zero] * d
        for (i, j), v in self.bracket.entries.items():
            a, b = divmod(j, d)
            c = f.mul(v, f.mul(zvec[a], wvec[b]))
            out[i] = f.add(out[i], c)
        return tuple(out)

    def lam(self, zvec):
        """The connection value nabla_Z(1)."""
        return self.nabla.apply(tuple(zvec))[0]


def check_lie_rinehart(lr):
    rep = Report("lie-rinehart %s" % lr.label)
    f = lr.field
    d = lr.L.dim
    basis = [lr.L.basis_vector(i, f) for i in range(d)]

    def br(i, j):
        return lr.bracket_elements(basis[i], basis[j])

    # [e_i, e_j] + [e_j, e_i] is read for j > i only, and the Jacobi sum
    # of (i, j, k), the same three terms for every rotation, for the
    # lexicographically least rotation only: the least failing pair or
    # triple is among those read, so it stays the witness
    def alternating():
        for i in range(d):
            if any(br(i, i)):
                yield i
            for j in range(i + 1, d):
                if any(f.add(a, b) for a, b in zip(br(i, j), br(j, i))):
                    yield (i, j)

    rep.check_family("bracket_alternating", alternating())

    def jacobi():
        for i, j, k in itertools.product(range(d), repeat=3):
            if (i, j, k) > min((j, k, i), (k, i, j)):
                continue
            t1 = lr.bracket_elements(basis[i], br(j, k))
            t2 = lr.bracket_elements(basis[j], br(k, i))
            t3 = lr.bracket_elements(basis[k], br(i, j))
            if any(f.add(a, f.add(b, c)) for a, b, c in zip(t1, t2, t3)):
                yield (i, j, k)

    rep.check_family("jacobi", jacobi())
    # over the ground field both functionals must kill brackets
    for name, fun in (("anchor_bracket", lr.anchor), ("nabla_flat", lr.nabla)):
        rep.check_family(name, (
            (i, j) for i, j in itertools.product(range(d), repeat=2)
            if fun.apply(br(i, j))[0]))
    return rep


# -- exterior powers and the chain complex --------------------------------

def wedge_basis(d, n):
    return list(itertools.combinations(range(d), n))


def wedge_insert(f, j, rest):
    """(sign, sorted tuple) for e_j wedged in front of an increasing tuple,
    or None when j already occurs."""
    if j in rest:
        return None
    smaller = sum(1 for r in rest if r < j)
    out = tuple(sorted(rest + (j,)))
    sign = f.one if smaller % 2 == 0 else f.neg(f.one)
    return sign, out


def wedge_vector_insert(f, vec, rest, acc, coeff):
    for j, v in enumerate(vec):
        if not v:
            continue
        hit = wedge_insert(f, j, rest)
        if hit is None:
            continue
        sign, out = hit
        c = f.mul(coeff, f.mul(sign, v))
        acc[out] = f.add(acc.get(out, f.zero), c)


def lr_boundary(lr, n):
    """The degree-n chain boundary on the n-th exterior power."""
    f = lr.field
    d = lr.L.dim
    dom = wedge_basis(d, n)
    cod = wedge_basis(d, n - 1)
    cod_index = {w: i for i, w in enumerate(cod)}
    entries = {}
    for col, word in enumerate(dom):
        acc = {}
        for k in range(n):
            lamv = lr.lam(lr.L.basis_vector(word[k], f))
            if lamv:
                rest = word[:k] + word[k + 1:]
                sign = f.one if k % 2 == 0 else f.neg(f.one)
                acc[rest] = f.add(acc.get(rest, f.zero), f.mul(sign, lamv))
        for k in range(n):
            for m in range(k + 1, n):
                br = lr.bracket_elements(lr.L.basis_vector(word[k], f),
                                         lr.L.basis_vector(word[m], f))
                if not any(br):
                    continue
                rest = tuple(x for t, x in enumerate(word) if t not in (k, m))
                sign = f.one if (k + m) % 2 == 0 else f.neg(f.one)
                wedge_vector_insert(f, br, rest, acc, sign)
        for w, v in acc.items():
            if v:
                entries[(cod_index[w], col)] = v
    return LinMap(Space(len(dom)), Space(len(cod)), f, entries)


def lie_rinehart_homology(lr, top):
    """Chain homology dims in degrees 0..top (zero beyond dim L)."""
    d = lr.L.dim
    # ranks[n]: rank of the boundary leaving degree n, each ranked once
    ranks = [0] + [rank(lr_boundary(lr, n)) for n in range(1, top + 2)]
    return [len(wedge_basis(d, n)) - ranks[n] - ranks[n + 1]
            for n in range(top + 1)]


def check_lr_complex(lr):
    rep = Report("lr complex %s" % lr.label)
    for n in range(2, lr.L.dim + 1):
        rep.check_map_zero("dd@%d" % n, lr_boundary(lr, n - 1)
                           @ lr_boundary(lr, n))
    return rep


def ce_cochain_homology(lr, top):
    """Cochain-side homology oracle, built by direct evaluation on tuples
    with explicit omissions (an independent code path from lr_boundary)."""
    f = lr.field
    d = lr.L.dim
    diffs = {}
    for n in range(top + 1):
        dom = wedge_basis(d, n)
        cod = wedge_basis(d, n + 1)
        entries = {}
        for row, J in enumerate(cod):
            for col, K in enumerate(dom):
                total = f.zero
                for i in range(n + 1):
                    omitted = J[:i] + J[i + 1:]
                    if omitted == K:
                        lamv = lr.lam(lr.L.basis_vector(J[i], f))
                        sgn = f.one if i % 2 == 0 else f.neg(f.one)
                        total = f.add(total, f.mul(sgn, lamv))
                for i in range(n + 1):
                    for m in range(i + 1, n + 1):
                        br = lr.bracket_elements(
                            lr.L.basis_vector(J[i], f),
                            lr.L.basis_vector(J[m], f))
                        rest = tuple(x for t, x in enumerate(J)
                                     if t not in (i, m))
                        acc = {}
                        wedge_vector_insert(f, br, rest, acc, f.one)
                        v = acc.get(K, f.zero)
                        if v:
                            sgn = f.one if (i + m) % 2 == 0 \
                                else f.neg(f.one)
                            total = f.add(total, f.mul(sgn, v))
                if total:
                    entries[(row, col)] = total
        diffs[n] = LinMap(Space(len(dom)), Space(len(cod)), f, entries)
    dims = []
    for n in range(top + 1):
        cn = diffs[n].dom.dim
        dim_ker = cn - rank(diffs[n])
        dim_im = rank(diffs[n - 1]) if n >= 1 else 0
        dims.append(dim_ker - dim_im)
    return dims


# -- measurings of Lie-Rinehart algebras ----------------------------------

class LieRinehartMeasuringData:
    """(C, PsiL : C (x) L -> L', psi : C (x) R -> R')."""

    def __init__(self, C, src, dst, PsiL, psi, label=""):
        require_shape("PsiL", PsiL, C.space.dim * src.L.dim, dst.L.dim)
        require_shape("psi", psi, C.space.dim * src.R.space.dim,
                       dst.R.space.dim)
        self.C = C
        self.src = src
        self.dst = dst
        self.PsiL = PsiL
        self.psi = psi
        self.label = label

    def psi_of(self, xvec):
        return fix_factor(self.psi, xvec)

    def psi_scalar(self, xvec):
        return self.psi_of(xvec).apply((self.C.field.one,))[0]


def check_lie_rinehart_measuring(m):
    rep = Report("lr measuring %s" % m.label)
    f = m.C.field
    rep.extend(check_sweedler_measuring(m.C, m.src.R, m.dst.R, m.psi),
               "base.")
    dc = m.C.space.dim
    Ls, ps = basis_slices(m.PsiL, dc), basis_slices(m.psi, dc)
    for c in range(dc):
        xv = m.C.space.basis_vector(c, f)
        terms = m.C.iterated_comul_vector(xv, 2)
        rep.check_map_equal("bracket_compatible@%d" % c,
                            Ls[c] @ m.src.bracket,
                            m.dst.bracket @ sweedler_sum(terms, [Ls, Ls]))
        # R = k, so x_(2) acts through the scalar psi(x_(2))
        twisted = sweedler_sum(terms, [Ls, ps])
        qx = m.psi_scalar(xv)
        rep.check_map_equal("anchor_compatible@%d" % c,
                            m.src.anchor.scaled(qx), m.dst.anchor @ twisted)
        rep.check_map_equal("nabla_compatible@%d" % c,
                            m.src.nabla.scaled(qx), m.dst.nabla @ twisted)
    return rep


def _wedge_sorting(f, d, n):
    """For dim L = d: the inclusion of the increasing tuples, wedge^n L ->
    L^{(x)n}, and the sorting projection L^{(x)n} -> wedge^n L, which
    sends a tuple to the sign of its sorting permutation times the sorted
    tuple, and a tuple with a repeated index to zero."""
    index = {w: i for i, w in enumerate(wedge_basis(d, n))}
    inc, proj = {}, {}
    for flat, combo in enumerate(itertools.product(range(d), repeat=n)):
        if len(set(combo)) < n:
            continue
        w = tuple(sorted(combo))
        if combo == w:
            inc[(flat, index[w])] = f.one
        inv = sum(1 for a in range(n) for b in range(a + 1, n)
                  if combo[a] > combo[b])
        proj[(index[w], flat)] = f.neg(f.one) if inv % 2 else f.one
    wedge, power = Space(len(index)), Space(d ** n)
    return LinMap(wedge, power, f, inc), LinMap(power, wedge, f, proj)


def induced_lr_chain_map(m, xvec, n):
    """Slotwise induced map on the n-th exterior power: x_(0) acts on the
    coefficient leg through psi and x_(1), ..., x_(n) on the slots of
    L^{(x)n}, between the inclusion of the increasing tuples and the
    sorting projection."""
    f = m.C.field
    dc = m.C.space.dim
    terms = m.C.iterated_comul_vector(tuple(xvec), n + 1)
    free = sweedler_sum(terms, [basis_slices(m.psi, dc)]
                        + [basis_slices(m.PsiL, dc)] * n)
    inc, _ = _wedge_sorting(f, m.src.L.dim, n)
    _, proj = _wedge_sorting(f, m.dst.L.dim, n)
    return proj @ free @ inc


def check_lr_induced_chain_map(m, xvec, top):
    rep = Report("lr induced chain map")
    maps = [induced_lr_chain_map(m, xvec, n) for n in range(top + 1)]
    for n in range(1, top + 1):
        rep.check_map_equal("boundary@%d" % n,
                            maps[n - 1] @ lr_boundary(m.src, n),
                            lr_boundary(m.dst, n) @ maps[n])
    return rep


# -- truncated universal envelope -----------------------------------------

class TruncatedEnvelope:
    """PBW word basis of the universal envelope up to word length 3.

    Words are nondecreasing tuples of generator indices.  Products are
    normal ordered with the rewriting Z_b Z_a = Z_a Z_b + [Z_b, Z_a]; a
    product whose normal form needs longer words raises CutoffExceeded.
    """

    cutoff = 3

    def __init__(self, lr):
        self.lr = lr
        self.field = lr.field
        d = lr.L.dim
        self.words = [()]
        for k in range(1, self.cutoff + 1):
            self.words += list(
                itertools.combinations_with_replacement(range(d), k))
        self.index = {w: i for i, w in enumerate(self.words)}
        self.space = Space(len(self.words), "V")

    def normal_form(self, word, coeff=None):
        f = self.field
        coeff = f.one if coeff is None else coeff
        if len(word) > self.cutoff:
            raise CutoffExceeded(word)
        for k in range(len(word) - 1):
            if word[k] > word[k + 1]:
                swapped = word[:k] + (word[k + 1], word[k]) + word[k + 2:]
                out = self.normal_form(swapped, coeff)
                br = self.lr.bracket_elements(
                    self.lr.L.basis_vector(word[k], f),
                    self.lr.L.basis_vector(word[k + 1], f))
                for j, v in enumerate(br):
                    if not v:
                        continue
                    sub = word[:k] + (j,) + word[k + 2:]
                    for w, c in self.normal_form(sub, f.mul(coeff, v)).items():
                        out[w] = f.add(out.get(w, f.zero), c)
                return out
        return {word: coeff}

    def product_words(self, w1, w2):
        return self.normal_form(w1 + w2)

    def comul_word(self, word):
        """{(left word, right word): coeff}; generators are primitive."""
        f = self.field
        out = {}
        for k in range(len(word) + 1):
            for picks in itertools.combinations(range(len(word)), k):
                left = tuple(word[i] for i in picks)
                right = tuple(word[i] for i in range(len(word))
                              if i not in picks)
                key = (left, right)
                out[key] = f.add(out.get(key, f.zero), f.one)
        return out

    def counit_word(self, word):
        return self.field.one if word == () else self.field.zero

    def antipode_word(self, word):
        f = self.field
        sgn = f.one if len(word) % 2 == 0 else f.neg(f.one)
        return self.normal_form(tuple(reversed(word)), sgn)


def _envelope_mul(env):
    """The product of words as a map mul : V (x) V -> V on V =
    span(words), zero on word pairs longer together than the cutoff."""
    dv, index = env.space.dim, env.index
    mul = {}
    for j, w in enumerate(env.words):
        for k, w2 in enumerate(env.words):
            if len(w) + len(w2) <= env.cutoff:
                for w3, c in env.product_words(w, w2).items():
                    mul[(index[w3], j * dv + k)] = c
    return LinMap(Space(dv * dv), env.space, env.field, mul)


def _envelope_maps(env):
    """The word formulas as maps on V = span(words): mul (see
    _envelope_mul), comul : V -> V (x) V, counit : V -> k and the antipode
    S : V -> V."""
    f = env.field
    V, dv, index = env.space, env.space.dim, env.index
    comul, counit, S = {}, {}, {}
    for j, w in enumerate(env.words):
        for (a, b), c in env.comul_word(w).items():
            comul[(index[a] * dv + index[b], j)] = c
        counit[(0, j)] = env.counit_word(w)
        for w2, c in env.antipode_word(w).items():
            S[(index[w2], j)] = c
    return (_envelope_mul(env), LinMap(V, Space(dv * dv), f, comul),
            LinMap(V, Space(1), f, counit), LinMap(V, V, f, S))


def _within_cutoff(env, k):
    """The k-tuples of words no longer together than the cutoff, in
    itertools.product order (a single word stands for itself), and their
    inclusion into V^{(x)k}."""
    f = env.field
    tuples, incl = [], {}
    for flat, t in enumerate(itertools.product(env.words, repeat=k)):
        if sum(map(len, t)) <= env.cutoff:
            incl[(flat, len(tuples))] = f.one
            tuples.append(t if k > 1 else t[0])
    return tuples, LinMap(Space(len(tuples)), Space(env.space.dim ** k), f,
                          incl)


def check_truncated_envelope(env):
    """The Hopf axioms of the truncated envelope, on the maps that its word
    formulas give: each axiom is one identity of Pipes on the inclusion of
    the tuples within the cutoff, named on failure by its first failing
    tuple; coassociativity and the counit are check_coalgebra's, named by
    the word of their first failing column."""
    rep = Report("envelope W=%d" % env.cutoff)
    f = env.field
    # words of length <= W in d letters: binomial(d + W, W)
    rep.add("pbw_dimension",
            len(env.words) == comb(env.lr.L.dim + env.cutoff, env.cutoff))
    mul, comul, counit, S = _envelope_maps(env)
    dv = env.space.dim
    two = [dv, dv]
    unit = LinMap(Space(1), env.space, f, {(env.index[()], 0): f.one})

    def axiom(name, k, lhs, rhs):
        """lhs == rhs on the k-tuples within the cutoff, each side a
        function that adds stages to a Pipe; returns how many k-tuples the
        cutoff skips."""
        tuples, incl = _within_cutoff(env, k)
        w = difference_witness(lhs(Pipe.after(incl, [dv] * k)).map,
                               rhs(Pipe.after(incl, [dv] * k)).map)
        rep.add(name, w is None, None if w is None else tuples[w[0]])
        return dv ** k - len(tuples)

    skipped = axiom("associative_within_cutoff", 3,
                    lambda p: p.block(0, 2, mul).block(0, 2, mul),
                    lambda p: p.block(1, 2, mul).block(0, 2, mul))
    rep.add("associativity_skipped_triples", True, witness=skipped)
    axiom("unital", 1, lambda p: p.block(0, 0, unit).block(0, 2, mul),
          lambda p: p)
    # check_coalgebra names a failing column; the envelope names its word
    for r in check_coalgebra(CoalgebraData(env.space, comul, counit, f)) \
            .results:
        rep.add(r.name, r.passed,
                None if r.passed else env.words[r.witness[0]])
    skipped = axiom(
        "comul_multiplicative_within_cutoff", 2,
        lambda p: p.block(0, 2, mul).block(0, 1, comul, two),
        lambda p: p.block(0, 1, comul, two).block(2, 1, comul, two)
        .permute([0, 2, 1, 3]).block(0, 2, mul).block(1, 2, mul))
    rep.add("comul_skipped_pairs", True, witness=skipped)
    axiom("antipode_convolution_inverse", 1,
          lambda p: p.block(0, 1, comul, two).block(0, 1, S)
          .block(0, 2, mul),
          lambda p: p.block(0, 1, counit).block(0, 1, unit))
    return rep


# -- antisymmetrization into envelope chains ------------------------------

def alt_map(env, n):
    """Signed sum over permutations, landing in the n-fold tensor power of
    the truncated envelope (each slot a length-one word): the transpose of
    the sorting projection, then the generators in every slot."""
    f = env.field
    d = env.lr.L.dim
    _, proj = _wedge_sorting(f, d, n)
    gens = LinMap(Space(d), env.space, f,
                  {(env.index[(i,)], i): f.one for i in range(d)})
    alt = Pipe.after(LinMap(proj.cod, proj.dom, f, {
        (j, i): v for (i, j), v in proj.entries.items()}), [d] * n)
    for k in range(n):
        alt.block(k, 1, gens)
    return alt.map


def envelope_b_on_alt(env, n, mul):
    """b composed with the antisymmetrization, given the product mul of
    _envelope_mul.

    The end faces use the counit (and the antipode on the last slot) and
    vanish on length-one words, so only the merge faces contribute and the
    result stays inside the cutoff.
    """
    dv = env.space.dim
    alt = alt_map(env, n)
    out = LinMap.zero(alt.dom, Space(dv ** max(n - 1, 0)), env.field)
    for i in range(1, n):
        face = Pipe.after(alt, [dv] * n).block(i - 1, 2, mul).map
        out = out - face if i % 2 else out + face
    return out


def check_alt_intertwines(lr, env):
    """b . alt_n = alt_{n-1} . boundary on the trivial-coefficient complex,
    in degrees 2..env.cutoff."""
    rep = Report("alt intertwines")
    if lr.nabla.entries:
        raise ValueError("alt intertwines on the trivial connection only")
    mul = _envelope_mul(env)
    for n in range(2, env.cutoff + 1):
        lhs = envelope_b_on_alt(env, n, mul)
        rhs = alt_map(env, n - 1) @ lr_boundary(lr, n)
        rep.check_map_equal("degree%d" % n, lhs, rhs)
    return rep


# -- stock examples -------------------------------------------------------

def nonabelian_2d(field):
    """L = span(e, f) with [e, f] = f, trivial anchor and connection."""
    from .hopfalgebroid import scalar_algebra
    f = field
    L = Space(2, "L")
    bracket = LinMap(Space(4), L, f, {(1, 1): f.one, (1, 2): f.neg(f.one)})
    zero = LinMap(L, Space(1), f, {})
    return LieRinehartData(scalar_algebra(f), L, bracket, zero, zero, f,
                           "aff1")


def abelian_lr(dim, field):
    from .hopfalgebroid import scalar_algebra
    f = field
    L = Space(dim, "L")
    bracket = LinMap(Space(dim * dim), L, f, {})
    zero = LinMap(L, Space(1), f, {})
    return LieRinehartData(scalar_algebra(f), L, bracket, zero, zero, f,
                           "ab%d" % dim)


def derivation_lr_measuring(lr, dmat):
    """(g, x) measuring with x acting by a bracket derivation and killing
    the base ring."""
    from .measuring import primitive_pair_coalgebra
    f = lr.field
    C = primitive_pair_coalgebra(f)
    PsiL = pack_slices([LinMap.identity(lr.L, f), dmat], f)
    psi = LinMap(Space(2), Space(1), f, {(0, 0): f.one})
    return LieRinehartMeasuringData(C, lr, lr, PsiL, psi, "derivation")


def ad_map(lr, zvec):
    """The inner derivation [z, -] as a matrix."""
    f = lr.field
    d = lr.L.dim
    cols = [list(lr.bracket_elements(zvec, lr.L.basis_vector(j, f)))
            for j in range(d)]
    return LinMap(lr.L, lr.L, f,
                  {(i, j): col[i] for j, col in enumerate(cols)
                   for i in range(d) if col[i]})
