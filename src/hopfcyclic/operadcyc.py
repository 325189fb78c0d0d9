"""Non-symmetric operads with multiplication, cyclic unital comp modules,
their measurings, and the constructions attached to Yetter-Drinfeld algebra
and anti-Yetter-Drinfeld coefficients over a Hopf algebroid.

Operad arities are truncated at a cutoff; identities that would need data
above the cutoff are skipped and counted rather than silently assumed.
"""

from collections import namedtuple

from .exactlin import (
    LinMap, Pipe, Space, QuotientPresentation, descend, difference_witness,
    fix_factor, kernel, solve_many, tensor_presentation,
)
from .algcore import (
    ComoduleData, Report, balanced_tensor, basis_slices, check_comodule,
    sweedler_sum,
)
from .hopfalgebroid import SaydModuleData, translation_lift
from .cyclichom import (
    CyclicModuleData, chain_coeff_cyclic, check_chain_map, check_t_order,
)


class StabilityFailure(Exception):
    pass


class CertificateFailure(Exception):
    pass


# -- operads and comp modules ---------------------------------------------

class OperadData:
    """Arity spaces O(0..N), partial compositions, identity, multiplication
    and unit; comp[(p, q, i)] : O(p) (x) O(q) -> O(p+q-1), 1 <= i <= p."""

    def __init__(self, spaces, comp, one, m, e, field, label="", h=None,
                 z=None, hom_data=None):
        self.spaces = spaces
        self.N = len(spaces) - 1
        self.comp = comp
        self.one = tuple(one)
        self.m = tuple(m)
        self.e = tuple(e)
        self.field = field
        self.label = label
        # set for the operad of a Yetter-Drinfeld algebra (build_yd_operad)
        self.h = h
        self.z = z
        self.hom_data = hom_data


class CompModuleData:
    """Spaces L(0..N), bullet[(p, n, i)] : O(p) (x) L(n) -> L(n-p+1), and
    cyclic operators t[n]."""

    def __init__(self, operad, spaces, bullet, t, field, label="",
                 msayd=None):
        self.operad = operad
        self.spaces = spaces
        self.N = len(spaces) - 1
        self.bullet = bullet
        self.t = t
        self.field = field
        self.label = label
        # the coefficient module of a Yetter-Drinfeld comp module
        self.msayd = msayd


def check_operad(od):
    """The operad axioms up to arity od.N.  Associativity is read on the
    cases left_of (j < i) and inside (i <= j < i + q) of
    (f o_i g) o_j h with f, g, h in O(p), O(q), O(r): the right_of case
    (p, q, r, i, j), j >= i + q, is the left_of case (p, r, q, j - q + 1, i)
    with the factors O(q) and O(r) swapped, on the same four maps and
    cutoffs, so it is not evaluated again."""
    rep = Report("operad %s" % od.label)
    f = od.field
    N = od.N
    skipped = 0

    def associativity():
        nonlocal skipped
        for p in range(1, N + 1):
            for q in range(0, N + 1):
                for r in range(0, N + 1):
                    n2 = p + q - 1
                    final = p + q + r - 2
                    if n2 > N or final > N or final < 0:
                        skipped += 1
                        continue
                    yield from associativity_at(p, q, r, n2)

    def associativity_at(p, q, r, n2):
        nonlocal skipped
        dims = [od.spaces[p].dim, od.spaces[q].dim, od.spaces[r].dim]
        # O(p) (x) O(r) (x) O(q), the stage of every left_of case, built
        # on first use
        swapped = None
        for i in range(1, p + 1):
            lhs_inner = od.comp.get((p, q, i))
            first = None  # comp_i (x) id
            for j in range(1, min(n2, i + q - 1) + 1):
                lhs_outer = od.comp.get((n2, r, j))
                if lhs_inner is None or lhs_outer is None:
                    skipped += 1
                    continue
                if j < i:
                    case, inner = "left_of", od.comp.get((p, r, j))
                    outer = od.comp.get((p + r - 1, q, i + r - 1)) \
                        if p + r - 1 <= N else None
                else:
                    case, inner = "inside", od.comp.get((q, r, j - i + 1))
                    outer = od.comp.get((p, q + r - 1, i)) \
                        if q + r - 1 <= N else None
                if inner is None or outer is None:
                    skipped += 1
                    continue
                if case == "inside":
                    rhs = Pipe(dims, f).block(1, 2, inner)
                else:
                    if swapped is None:
                        swapped = Pipe(dims, f).permute([0, 2, 1]).map
                    rhs = Pipe.after(swapped, [dims[0], dims[2], dims[1]])
                    rhs.block(0, 2, inner)
                if first is None:
                    first = Pipe(dims, f).block(0, 2, lhs_inner).map
                yield None if lhs_outer @ first == outer @ rhs.map \
                    else (case, p, q, r, i, j)

    rep.check_family("associativity", associativity())
    rep.add("associativity_skipped", True, witness=skipped)

    def identity():
        for p in range(0, N + 1):
            ident = LinMap.identity(od.spaces[p], f)
            for i in range(1, p + 1):
                c = od.comp.get((p, 1, i))
                if c is not None and \
                        fix_factor(c, od.one, od.spaces[p].dim) != ident:
                    yield ("right_unit", p, i)
            c = od.comp.get((1, p, 1))
            if c is not None and fix_factor(c, od.one) != ident:
                yield ("left_unit", p)

    rep.check_family("operad_identity", identity())
    if N >= 3:
        m1 = fix_factor(od.comp[(2, 2, 1)], od.m).apply(od.m)
        m2 = fix_factor(od.comp[(2, 2, 2)], od.m).apply(od.m)
        rep.add("m_comp_associative", m1 == m2,
                witness=None if m1 == m2 else (m1, m2))
    for i in (1, 2):
        c = od.comp.get((2, 0, i))
        if c is None:
            continue
        val = fix_factor(c, od.m).apply(od.e)
        rep.add("m_unit_%d" % i, val == od.one,
                witness=None if val == od.one else val)
    return rep


def check_comp_module(cm):
    """The comp-module axioms up to degree cm.N.  f bullet_i (g bullet_j x)
    with f, g, x in O(p), O(q), L(n) is read where j < i and where
    j - p < i <= j; the other instances live on O(q) (x) O(p) (x) L(n) and
    are j < i instances with the factors O(p) and O(q) swapped, on the
    same four maps and cutoffs: (p, q, n, i, j) with p > 0 and i <= j - p
    is (q, p, n, j - p + 1, i), and with p = 0 and i <= j it is
    (q, 0, n, j + 1, i).  They are not evaluated again."""
    od = cm.operad
    rep = Report("comp module %s" % cm.label)
    f = cm.field
    N = cm.N
    skipped = 0

    def compatibility():
        for p in range(0, od.N + 1):
            for q in range(0, od.N + 1):
                for n in range(0, N + 1):
                    yield from compatibility_at(p, q, n)

    def compatibility_at(p, q, n):
        nonlocal skipped
        dims = [od.spaces[p].dim, od.spaces[q].dim, cm.spaces[n].dim]
        # the stages shared by several (i, j), built on first use:
        # O(q) (x) O(p) (x) L(n) where O(p) moves past O(q), and the
        # right-hand stages by the key of their inner map
        swapped = None
        stages = {}
        for j in range(0, n + 2 - q):
            bj = cm.bullet.get((q, n, j))
            n1 = n - q + 1
            if bj is None or n1 < 0 or n1 > N:
                continue
            first = None  # id (x) bullet_j
            for i in range(max(0, j - p + 1), n1 + 2 - p):
                bi = cm.bullet.get((p, n1, i))
                if bi is None:
                    skipped += 1
                    continue
                # the operad-operad step, or O(p) moved past O(q); ikey
                # names the inner map
                on_operads = i <= j
                if on_operads:
                    ikey = (p, q, j - i + 1)
                    outer = cm.bullet.get((p + q - 1, n, i))
                else:
                    ikey = (p, n, i + q - 1)
                    outer = cm.bullet.get((q, n - p + 1, j)) \
                        if 0 <= n - p + 1 <= N else None
                maps = od.comp if on_operads else cm.bullet
                inner = maps.get(ikey)
                if inner is None or outer is None:
                    skipped += 1
                    continue
                rhs = stages.get((on_operads, ikey))
                if rhs is None:
                    if on_operads:
                        rhs = Pipe(dims, f).block(0, 2, inner).map
                    else:
                        if swapped is None:
                            swapped = Pipe(dims, f).permute([1, 0, 2]).map
                        rhs = Pipe.after(swapped,
                                         [dims[1], dims[0], dims[2]]) \
                            .block(1, 2, inner).map
                    stages[(on_operads, ikey)] = rhs
                if first is None:
                    first = Pipe(dims, f).block(1, 2, bj).map
                yield None if bi @ first == outer @ rhs \
                    else ("bullet", p, q, n, i, j)

    rep.check_family("comp_compatibility", compatibility())
    rep.add("comp_skipped", True, witness=skipped)

    def unital():
        for n in range(0, N + 1):
            ident = LinMap.identity(cm.spaces[n], f)
            for i in range(0, n + 1):
                b = cm.bullet.get((1, n, i))
                if b is not None and fix_factor(b, od.one) != ident:
                    yield ("unit", n, i)

    rep.check_family("module_unital", unital())

    def cyclic_compatibility():
        for p in range(0, od.N + 1):
            for n in range(0, N + 1):
                if n - p + 1 < 0 or n - p + 1 > N:
                    continue
                # id (x) t on O(p) (x) L(n)
                after_t = Pipe([od.spaces[p].dim, cm.spaces[n].dim], f) \
                    .block(1, 1, cm.t[n]).map
                for i in range(0, n - p + 1):
                    b1 = cm.bullet.get((p, n, i))
                    b2 = cm.bullet.get((p, n, i + 1))
                    if b1 is not None and b2 is not None and \
                            cm.t[n - p + 1] @ b1 != b2 @ after_t:
                        yield ("cyclic_compat", p, n, i)

    rep.check_family("cyclic_compatibility", cyclic_compatibility())
    check_t_order(rep, cm.t, cm.spaces, f)
    return rep


def comp_cyclic_module(cm):
    """The cyclic module of a cyclic unital comp module, up to its top
    degree cm.N."""
    od = cm.operad
    N = cm.N
    faces = {}
    degen = {}
    cyc = {}
    for n in range(1, N + 1):
        ops = []
        for i in range(0, n):
            ops.append(fix_factor(cm.bullet[(2, n, i)], od.m))
        ops.append(fix_factor(cm.bullet[(2, n, 0)], od.m) @ cm.t[n])
        faces[n] = ops
    for n in range(0, N):
        ops = []
        for j in range(0, n + 1):
            ops.append(fix_factor(cm.bullet[(0, n, j + 1)], od.e))
        degen[n] = ops
    for n in range(0, N + 1):
        cyc[n] = cm.t[n]
    return CyclicModuleData("cyclic", N, list(cm.spaces), faces, degen, cyc,
                            cm.field, "C_(%s)" % cm.label)


# -- measurings -----------------------------------------------------------

class OperadMeasuringData:
    """Psi[n] : C (x) O(n) -> O'(n)."""

    def __init__(self, C, src, dst, Psi, label=""):
        self.C = C
        self.src = src
        self.dst = dst
        self.Psi = Psi
        self.label = label

    def Psi_of(self, n, xvec):
        return fix_factor(self.Psi[n], xvec)


def check_operad_measuring(om):
    rep = Report("operad measuring %s" % om.label)
    f = om.C.field
    rep.add("coalgebra_cocommutative", om.C.is_cocommutative())
    N = min(om.src.N, om.dst.N)
    dc = om.C.space.dim
    psis = {n: basis_slices(op, dc) for n, op in om.Psi.items()}
    skipped = 0

    def comp_measuring():
        nonlocal skipped
        for c in range(dc):
            terms = om.C.iterated_comul_vector(om.C.space.basis_vector(c, f),
                                               2)
            for (p, q, i), comp in om.src.comp.items():
                comp2 = om.dst.comp.get((p, q, i))
                if comp2 is None or p + q - 1 > N:
                    skipped += 1
                    continue
                lhs = psis[p + q - 1][c] @ comp
                if lhs != comp2 @ sweedler_sum(terms, [psis[p], psis[q]]):
                    yield (c, p, q, i)

    rep.check_family("comp_measuring", comp_measuring())
    rep.add("comp_measuring_skipped", True, witness=skipped)

    def m_and_e():
        for c in range(dc):
            xv = om.C.space.basis_vector(c, f)
            eps = om.C.counit.apply(xv)[0]
            if any(om.Psi_of(n, xv).apply(src)
                   != tuple(f.mul(eps, v) for v in dst)
                   for n, src, dst in ((2, om.src.m, om.dst.m),
                                       (0, om.src.e, om.dst.e))):
                yield c

    rep.check_family("m_and_e_preserved", m_and_e())
    return rep


class CompComoduleMeasuringData:
    """Left C-comodule D with Omega[n] : D (x) L(n) -> L'(n)."""

    def __init__(self, base, D, src, dst, Omega, label=""):
        self.base = base
        self.D = D
        self.src = src
        self.dst = dst
        self.Omega = Omega
        self.label = label

    def Omega_of(self, n, yvec):
        return fix_factor(self.Omega[n], yvec)


def check_comp_comodule_measuring(ccm):
    rep = Report("comp comodule measuring %s" % ccm.label)
    om = ccm.base
    f = om.C.field
    rep.extend(check_comodule(ccm.D), "comodule.")
    N = min(ccm.src.N, ccm.dst.N)
    dd = ccm.D.space.dim
    psis = {n: basis_slices(op, om.C.space.dim) for n, op in om.Psi.items()}
    omegas = {n: basis_slices(op, dd) for n, op in ccm.Omega.items()}
    skipped = 0

    def bullet_measuring():
        nonlocal skipped
        for c in range(dd):
            # D is a left comodule, y -> y_(-1) (x) y_(0), keyed
            # (y_(0), y_(-1))
            coact = ccm.D.iterated_coaction_vector(
                ccm.D.space.basis_vector(c, f), 1)
            terms = {(ci, mi): v for (mi, ci), v in coact.items()}
            for (p, n, i), b in ccm.src.bullet.items():
                b2 = ccm.dst.bullet.get((p, n, i))
                if b2 is None or n - p + 1 > N or n - p + 1 < 0:
                    skipped += 1
                    continue
                lhs = omegas[n - p + 1][c] @ b
                if lhs != b2 @ sweedler_sum(terms, [psis[p], omegas[n]]):
                    yield (c, p, n, i)

    rep.check_family("bullet_measuring", bullet_measuring())
    rep.add("bullet_measuring_skipped", True, witness=skipped)
    rep.check_family("cyclic_commutes", (
        (c, n) for c in range(dd) for n in range(N + 1)
        if omegas[n][c] @ ccm.src.t[n] != ccm.dst.t[n] @ omegas[n][c]))
    return rep


def induced_comp_map(ccm, yvec):
    """Chain maps on the associated cyclic modules in degrees up to the
    lower of the two top degrees, plus the certificate."""
    maps = [ccm.Omega_of(n, yvec)
            for n in range(min(ccm.src.N, ccm.dst.N) + 1)]
    cert = check_chain_map(comp_cyclic_module(ccm.src),
                           comp_cyclic_module(ccm.dst), maps)
    return maps, cert


# -- Yetter-Drinfeld operads ----------------------------------------------
#
# The operad and comp-module maps are built per index triple, not per pair of
# basis maps: the whole basis of an arity space, packed as one map (see
# pack_slices), enters a Pipe as a family (Pipe.family) at the stage that
# applies it, and the result carries the basis as a leading source factor.

class HomBasis(namedtuple("HomBasis", "space pres pack coords")):
    """The arity-n space O(n) of a Yetter-Drinfeld operad: the space, the
    tower presentation W_n of U^{(x)n} (None for n = 0), the basis of
    ambient-level hom maps U^{(x)n} -> Z packed as one map
    O(n) (x) U^{(x)n} -> Z, and the coordinate inclusion O(n) -> Z (x) W_n.
    """
    __slots__ = ()


def _family(m, pres):
    """K (x) pres, the source presentation of a family of maps packed as
    m : K (x) pres.ambient -> W (see pack_slices)."""
    size = Space(m.dom.dim // pres.ambient.dim)
    return tensor_presentation(QuotientPresentation.trivial(size, m.field),
                               pres)


def _hom_data(h, z, N):
    """The HomBasis of every arity 0..N."""
    f = h.field
    dz = z.Z.space.dim
    da = h.A.space.dim
    du = h.U.space.dim
    space = Space(dz, "O0")
    ident = LinMap(space, z.Z.space, f, {(i, i): f.one for i in range(dz)})
    out = {0: HomBasis(space, None, ident, ident)}
    for n in range(1, N + 1):
        pres = h.rtower(n)
        w = pres.quotient.dim
        entries = {}
        for a in range(da):
            avec = h.A.space.basis_vector(a, f)
            free = Pipe([du] * n, f).block(0, 1, h.rmul(h.t_of(avec))).map
            Ra = descend(free, pres, pres)
            Sa = z.act_by(h.s_of(avec))
            # rows of vec(f Ra - Sa f) = 0, one block per base element
            for (wj, wp), v in Ra.entries.items():
                for zi in range(dz):
                    key = (a * dz * w + zi * w + wp, zi * w + wj)
                    entries[key] = f.add(entries.get(key, f.zero), v)
            for (zi, zp), v in Sa.entries.items():
                for wj in range(w):
                    key = (a * dz * w + zi * w + wj, zp * w + wj)
                    entries[key] = f.sub(entries.get(key, f.zero), v)
        B = LinMap(Space(dz * w), Space(da * dz * w), f,
                   {k: v for k, v in entries.items() if v})
        K = kernel(B)
        space = Space(K.dom.dim, "O%d" % n)
        # basis map j is column j of K read as a map W_n -> Z, pulled back
        # to the ambient
        pack = LinMap(Space(space.dim * w), z.Z.space, f,
                      {(zi, j * w + wj): v for (r, j), v in K.entries.items()
                       for zi, wj in [divmod(r, w)]})
        if not pres.free:
            pack = pack @ Pipe([space.dim, pres.ambient.dim], f) \
                .block(1, 1, pres.projection).map
        out[n] = HomBasis(space, pres, pack,
                          LinMap(space, K.cod, f, K.entries))
    return out


def _hom_coords(hom_data, n, amb):
    """Coordinates in the arity-n basis of a family of ambient-level hom
    maps, packed as amb : k^b (x) U^{(x)n} -> Z: the map k^b -> O(n) whose
    column j holds the coordinates of map j.  A family that does not
    factor through the tower raises descend's DescentFailure."""
    space, pres, _pack, K = hom_data[n]
    f = amb.field
    if pres is None:
        return LinMap(Space(amb.dom.dim), space, f, amb.entries)
    fq = descend(amb, _family(amb, pres),
                 QuotientPresentation.trivial(amb.cod, f))
    w = pres.quotient.dim
    vecs = {(zi * w + wj, b): v for (zi, col), v in fq.entries.items()
            for b, wj in [divmod(col, w)]}
    return solve_many(K, LinMap(Space(fq.dom.dim // w), K.cod, f, vecs))


def _yd_circ(h, z, hom_data, p, q, i):
    """Ambient-level partial composition F o_i G of every basis map F of
    O(p) with every basis map G of O(q), as one map
    O(p) (x) O(q) (x) U^{(x)(p+q-1)} -> Z."""
    f = h.field
    du = h.U.space.dim
    dz = z.Z.space.dim
    fs, gs = hom_data[p], hom_data[q]
    nout = p + q - 1
    a = p + q - i       # slots expanded by the coproduct
    tails = nout - a    # = i - 1 untouched slots
    c = p - i
    pipe = Pipe([du] * nout, f)
    for k in range(a):
        pipe.block(2 * k, 1, h.delta_lift, [du, du])
    # layout: (u^j_1, u^j_2) for j in 1..a, then tails
    gargs = [2 * (j - 1) for j in range(c + 1, a + 1)]
    gsecs = [2 * j - 1 for j in range(c + 1, a + 1)]
    fargs = [2 * (j - 1) for j in range(1, c + 1)]
    fsecs = [2 * j - 1 for j in range(1, c + 1)]
    tidx = [2 * a + k for k in range(tails)]
    pipe.permute(gargs + gsecs + fargs + tidx + fsecs)
    pipe.family(0, q, z.coact_lift @ gs.pack, gs.space.dim, [du, dz])
    # layout: g_-1, g_0, gsecs(q), fargs(c), tails, fsecs(c)
    pipe.permute(list(range(2 + q, 2 + q + c))
                 + [0] + list(range(2, 2 + q))
                 + list(range(2 + q + c, 2 + q + c + tails))
                 + list(range(2 + q + c + tails, 2 + q + 2 * c + tails))
                 + [1])
    pipe.block(c, q + 1, h.U.mul_n(q + 1), [du])
    # layout: fargs(c), merged, tails, fsecs(c), g_0
    pipe.family(0, p, fs.pack, fs.space.dim, [dz])
    # layout: f_val, fsecs(c), g_0
    if c:
        pipe.block(1, c, h.U.mul_n(c)).block(1, 2, z.action)
    return pipe.block(0, 2, z.Z.mul).map


def build_yd_operad(h, z, N):
    """The endomorphism-style operad of a braided commutative
    Yetter-Drinfeld algebra, truncated at arity N."""
    f = h.field
    hom_data = _hom_data(h, z, N)
    spaces = [hom_data[n].space for n in range(N + 1)]
    comp = {}
    for p in range(1, N + 1):
        for q in range(0, N + 1):
            nout = p + q - 1
            if nout > N:
                continue
            for i in range(1, p + 1):
                comp[(p, q, i)] = _hom_coords(
                    hom_data, nout, _yd_circ(h, z, hom_data, p, q, i))
    # u -> s(eps(u)) . 1_Z, and u (x) v -> s(eps(uv)) . 1_Z
    du = h.U.space.dim
    unit_z = z.Z.unit_map()
    one_amb = Pipe([du], f).block(0, 1, h.s_L @ h.eps_L) \
        .block(1, 0, unit_z).block(0, 2, z.action).map
    one = _hom_coords(hom_data, 1, one_amb).column(0)
    m_amb = Pipe([du, du], f).block(0, 2, h.s_L @ (h.eps_L @ h.U.mul)) \
        .block(1, 0, unit_z).block(0, 2, z.action).map
    m = _hom_coords(hom_data, 2, m_amb).column(0)
    return OperadData(spaces, comp, one, m, tuple(z.Z.unit), f,
                      "C^(%s,%s)" % (h.label, z.label), h=h, z=z,
                      hom_data=hom_data)


# -- Yetter-Drinfeld comp modules -----------------------------------------

def build_ayd_coefficient(h, l, z):
    """The anti-Yetter-Drinfeld structure on L (x)_{A^op} Z, packaged with
    the same interface as the other coefficient modules.  Raises
    StabilityFailure when the composite of coaction and action is not the
    identity."""
    f = h.field
    du = h.U.space.dim
    dl = l.space.dim
    dz = z.Z.space.dim
    trivL = QuotientPresentation.trivial(l.space, f)
    trivZ = QuotientPresentation.trivial(z.Z.space, f)
    # a . z = t(a) z as A (x) Z -> Z
    lactz = Pipe([h.A.space.dim, dz], f).block(0, 1, h.t_L) \
        .block(0, 2, z.action).map
    mpres = balanced_tensor(trivL, trivZ, l.right_arrow_action(), lactz, f,
                            label="LZ")
    triv_u = QuotientPresentation.trivial(h.U.space, f)
    # action: (l (x) z) u = l u_+ (x) u_- z
    pipe = Pipe([dl, dz, du], f).block(2, 1, translation_lift(h), [du, du])
    pipe.permute([0, 2, 3, 1]).block(0, 2, l.action).block(1, 2, z.action)
    act = descend(pipe.map, tensor_presentation(mpres, triv_u), mpres)
    # coaction: l (x) z -> z_-1 l_-1 (x) (l_0 (x) z_0)
    pipe = Pipe([dl, dz], f)
    pipe.block(0, 1, l.coact_lift, [du, dl])
    pipe.block(2, 1, z.coact_lift, [du, dz])
    pipe.permute([2, 0, 1, 3])
    pipe.block(0, 2, h.U.mul)
    coact = descend(pipe.map, mpres, tensor_presentation(triv_u, mpres))
    mspace = Space(mpres.quotient.dim, "LZ")
    msayd = SaydModuleData(h, mspace, act, coact, "LZ", presentation=mpres)
    stab = Pipe.after(coact, [du, mspace.dim]).permute([1, 0]) \
        .block(0, 2, act).map
    witness = difference_witness(stab, LinMap.identity(mspace, f))
    if witness is not None:
        raise StabilityFailure(witness)
    return msayd


def _m_lift(h, msayd, dl, k):
    """Pipe on M (x) U^k, M = L (x)_A Z with dim L = dl, that first lifts M
    to L (x) Z."""
    mpres = msayd.presentation
    lz = [dl, mpres.ambient.dim // dl]
    us = [h.U.space.dim] * k
    if mpres.free:
        return Pipe(lz + us, h.field)
    pipe = Pipe([mpres.quotient.dim] + us, h.field)
    return pipe.block(0, 1, mpres.section, lz)


def _m_descend(pipe, src, dst, k):
    """Project the leading L (x) Z factors of a pipe started by _m_lift
    (for src, on U^k) to dst's M and descend to the coefficient towers,
    from K (x) src's tower for a family of size K the pipe took in."""
    kout = len(pipe.dims) - 2
    if not dst.presentation.free:
        pipe.block(0, 2, dst.presentation.projection)
    m = pipe.map
    return descend(m, _family(m, src.chain_tower(k)), dst.chain_tower(kout))


def _yd_bullet_pos(h, l, z, msayd, fs, p, k, i):
    """f bullet_i for i > 0 and every basis map f of O(p) (the HomBasis
    fs), on the free level, then descended: one map O(p) (x) L(k) ->
    L(k-p+1)."""
    du = h.U.space.dim
    dz = z.Z.space.dim
    c = k - p - i + 1
    tails = i - 1
    pipe = _m_lift(h, msayd, l.space.dim, k)
    for j in range(c + p):
        pipe.block(2 + 2 * j, 1, h.delta_lift, [du, du])
    # layout: l, z, (u^j_1, u^j_2) j = 1..c+p, tails
    fb1 = [2 + 2 * j for j in range(c, c + p)]
    fb2 = [3 + 2 * j for j in range(c, c + p)]
    c1 = [2 + 2 * j for j in range(c)]
    c2 = [3 + 2 * j for j in range(c)]
    tidx = [2 + 2 * (c + p) + j for j in range(tails)]
    pipe.permute(fb1 + [0] + c2 + [1] + c1 + fb2 + tidx)
    pipe.family(0, p, z.coact_lift @ fs.pack, fs.space.dim, [du, dz])
    # layout: fv_-1, fv_0, l, c2(c), z, c1(c), fb2(p), tails
    pipe.permute([2] + list(range(3, 3 + c)) + [1, 3 + c]
                 + list(range(4 + c, 4 + 2 * c))
                 + [0] + list(range(4 + 2 * c, 4 + 2 * c + p))
                 + list(range(4 + 2 * c + p, 4 + 2 * c + p + tails)))
    # layout: l, c2(c), fv_0, z, c1(c), fv_-1, fb2(p), tails
    if c:
        pipe.block(1, c, h.U.mul_n(c)).block(1, 2, z.action)
    pipe.block(1, 2, z.Z.mul)
    # layout: l, z', c1(c), fv_-1, fb2(p), tails
    pipe.block(2 + c, p + 1, h.U.mul_n(p + 1))
    return _m_descend(pipe, msayd, msayd, k)


def _yd_bullet_zero(h, l, z, msayd, fs, p, k):
    """f bullet_0 for every basis map f of O(p) (the HomBasis fs), on the
    free level, then descended: one map O(p) (x) L(k) -> L(k-p+1)."""
    du = h.U.space.dim
    dl = l.space.dim
    dz = z.Z.space.dim
    c = k - p + 1
    trans = translation_lift(h)
    pipe = _m_lift(h, msayd, dl, k)
    for j in range(k):
        pipe.block(2 + 2 * j, 1, trans, [du, du])
    for j in range(c):
        pipe.block(2 + 3 * j, 1, h.delta_lift, [du, du])
    # layout: l, z, (u^j_+1, u^j_+2, u^j_-) j <= c, (u^j_+, u^j_-) j > c
    pipe.block(0, 1, l.coact_lift, [du, dl])
    pipe.block(2, 1, z.coact_lift, [du, dz])
    # layout: l_-1, l_0, z_-1, z_0, blocks shifted by 4
    p1 = [4 + 3 * j for j in range(c)]
    p2 = [5 + 3 * j for j in range(c)]
    mn = [6 + 3 * j for j in range(c)]
    rest_plus = [4 + 3 * c + 2 * j for j in range(k - c)]
    rest_minus = [5 + 3 * c + 2 * j for j in range(k - c)]
    down = list(reversed(rest_minus)) + list(reversed(mn)) + [2, 0]
    pipe.permute(rest_plus + down + [1] + p2 + [3] + p1)
    # layout: u^j_+ (j > c), u^k_- .. u^1_-, z_-1, l_-1, l_0, p2(c), z_0,
    # p1(c)
    pipe.block(len(rest_plus), len(down), h.U.mul_n(len(down)))
    pipe.family(0, p, fs.pack, fs.space.dim, [dz])
    # layout: f_val, l_0, p2(c), z_0, p1(c)
    pipe.permute([1] + list(range(2, 2 + c)) + [0, 2 + c]
                 + list(range(3 + c, 3 + 2 * c)))
    # layout: l_0, p2(c), f_val, z_0, p1(c)
    if c:
        pipe.block(1, c, h.U.mul_n(c)).block(1, 2, z.action)
    pipe.block(1, 2, z.Z.mul)
    return _m_descend(pipe, msayd, msayd, k)


def build_yd_comp_module(h, l, z, od, N):
    """The comp module of chains with coefficients in L (x) Z over the
    operad of a braided commutative Yetter-Drinfeld algebra."""
    f = h.field
    msayd = build_ayd_coefficient(h, l, z)
    spaces = [msayd.chain_tower(k).quotient for k in range(N + 1)]
    bullet = {}
    # the cyclic operator of the Hopf-cyclic chains with coefficients in M
    t = {k: chain_coeff_cyclic(h, msayd, k) for k in range(N + 1)}
    for p in range(0, od.N + 1):
        fs = od.hom_data[p]
        for k in range(N + 1):
            if k - p + 1 < 0 or k - p + 1 > N:
                continue
            for i in range(0, k + 2 - p):
                if i == 0 and p == 0:
                    continue  # outside the stated index ranges
                if i == 0:
                    mm = _yd_bullet_zero(h, l, z, msayd, fs, p, k)
                else:
                    mm = _yd_bullet_pos(h, l, z, msayd, fs, p, k, i)
                bullet[(p, k, i)] = mm
    return CompModuleData(od, spaces, bullet, t, f, "%s,LZ" % h.label,
                          msayd=msayd)


# -- induced measurings from Yetter-Drinfeld data -------------------------

def check_ayd_morphism(l_src, l_dst, hmat):
    rep = Report("ayd morphism")
    f = hmat.field
    du = l_src.h.U.space.dim
    dl = l_src.space.dim
    rep.check_map_equal(
        "action_intertwines", hmat @ l_src.action,
        Pipe([dl, du], f).block(0, 1, hmat).block(0, 2, l_dst.action).map)
    rep.check_map_equal(
        "coaction_intertwines",
        Pipe.after(l_src.coact_lift, [du, dl]).block(1, 1, hmat).map,
        l_dst.coact_lift @ hmat)
    return rep


def induce_from_yd(ym, l_src, l_dst, hmat, od_src, od_dst, cm_src, cm_dst,
                   N):
    """The operad measuring f -> psi(x) . f and the comodule measuring
    (h, psi) on coefficient chains, from an algebra measuring and a module
    morphism.  Raises CertificateFailure when hmat does not intertwine the
    module and comodule structures."""
    f = ym.C.field
    rep = check_ayd_morphism(l_src, l_dst, hmat)
    if not rep.ok:
        raise CertificateFailure(rep.failures())
    h = od_src.h
    dc = ym.C.space.dim
    Psi = {}
    for n in range(N + 1):
        # psi(x) . f for every x of C and every basis map f of O_src(n)
        fs = od_src.hom_data[n]
        amb = Pipe.after(fs.pack, [fs.pack.cod.dim]) \
            .family(0, 1, ym.psi, dc).map
        Psi[n] = _hom_coords(od_dst.hom_data, n, amb)
    om = OperadMeasuringData(ym.C, od_src, od_dst, Psi, "yd")
    D = ComoduleData(ym.C, ym.C.space, ym.C.comul, "left", "D=C")
    Omega = {}
    msrc = cm_src.msayd
    mdst = cm_dst.msayd
    for k in range(N + 1):
        pipe = _m_lift(h, msrc, l_src.space.dim, k)
        pipe.block(0, 1, hmat).family(1, 1, ym.psi, dc)
        Omega[k] = _m_descend(pipe, msrc, mdst, k)
    ccm = CompComoduleMeasuringData(om, D, cm_src, cm_dst, Omega, "yd")
    return om, ccm


# -- stock examples -------------------------------------------------------

def one_dimensional_operad(field, N):
    """O(n) = k with every composition the product of scalars."""
    f = field
    spaces = [Space(1, "O%d" % n) for n in range(N + 1)]
    comp = {}
    for p in range(1, N + 1):
        for q in range(0, N + 1):
            if p + q - 1 > N:
                continue
            for i in range(1, p + 1):
                comp[(p, q, i)] = LinMap(Space(1), Space(1), f,
                                         {(0, 0): f.one})
    return OperadData(spaces, comp, (f.one,), (f.one,), (f.one,), f, "pt")


def one_dimensional_comp_module(od, N):
    f = od.field
    spaces = [Space(1, "L%d" % n) for n in range(N + 1)]
    bullet = {}
    for p in range(0, od.N + 1):
        for n in range(N + 1):
            if n - p + 1 < 0 or n - p + 1 > N:
                continue
            for i in range(0, n + 2 - p):
                if p == 0 and i == 0:
                    continue
                bullet[(p, n, i)] = LinMap(Space(od.spaces[p].dim), Space(1),
                                           f, {(0, 0): f.one})
    t = {n: LinMap.identity(spaces[n], f) for n in range(N + 1)}
    return CompModuleData(od, spaces, bullet, t, f, "pt")
