"""(Co)cyclic modules attached to a Hopf algebroid, with and without
coefficients, their homologies, and the chain maps induced by measurings.

Operators are defined by explicit formulas on section lifts into free tensor
powers and pushed to the quotients, so every construction doubles as a
proof that the formula respects the balancing relations.  Faces and
degeneracies act on a window of adjacent slots and carry a local
certificate (see `_window_ops`); cyclic operators permute every slot and
go through the global `descend`.
"""

from functools import partial
from math import lcm

from .exactlin import (
    DescentFailure, LinMap, Pipe, Space, QuotientPresentation, _sum_map,
    descend, descent_witness, difference_witness, invert, kernel,
    permute_factors, quotient_by, rank, solve_many, tensor_presentation,
)
from .algcore import Report, sweedler_sum
from .hopfalgebroid import require_own_algebroid, translation_lift
from .measuring import ComoduleMeasuringData


class CharNotZero(Exception):
    """Cyclic homology through the lambda-complex needs characteristic 0."""


def _family(name):
    """A family of operators, read as a plain dict; a callable given in its
    place is evaluated on the first read and then dropped."""
    def read(self):
        fam = self._families[name]
        if callable(fam):
            fam = self._families[name] = fam()
        return fam
    return property(read)


class CyclicModuleData:
    """A cyclic ("chain") or cocyclic ("cochain") module up to degree N.

    For variant "cyclic": faces[n][i] : C_n -> C_{n-1} (1 <= n <= N),
    degeneracies degen[n][i] : C_n -> C_{n+1} (0 <= n < N), cyclic
    operators cyc[n] : C_n -> C_n.  For variant "cocyclic" the faces raise
    degree and the degeneracies lower it.

    Each family may be given as a dict or as a zero-argument callable that
    returns one, evaluated on its first read.  The builders pass callables
    on every tower (see `_module`), so each reader pays only for what it
    reads: unnormalized Hochschild homology evaluates the faces, cyclic
    homology the faces and cyclic operators, the normalized complex the
    faces and degeneracies, and the checkers all three.  The builder call
    runs every certificate of the faces and degeneracies and raises where
    one fails; a failure of the cyclic operators, whose certificate is
    their evaluation, raises on the first read of `cyc`.  `field` is the
    field of every operator, known without reading any family.
    """

    def __init__(self, variant, N, spaces, faces, degen, cyc, field,
                 label=""):
        if variant not in ("cyclic", "cocyclic"):
            raise ValueError("unknown variant %r: cyclic or cocyclic"
                             % (variant,))
        self.variant = variant
        self.N = N
        self.spaces = spaces
        self._families = {"faces": faces, "degen": degen, "cyc": cyc}
        self.field = field
        self.label = label
        self._boundaries = None

    faces = _family("faces")
    degen = _family("degen")
    cyc = _family("cyc")

    def dims(self):
        return [sp.dim for sp in self.spaces]

    def boundaries(self):
        """Hochschild (co)boundaries: alternating sums of the faces,
        {n: map leaving degree n}, each accumulated in one pass over the
        lcm of the face denominators, computed on first use."""
        if self._boundaries is None:
            out = {}
            for n, ops in self.faces.items():
                forms = [d._nums() for d in ops]
                den = lcm(*(dd for _, dd in forms))
                sums = {}
                get = sums.get
                for i, (nums, dd) in enumerate(forms):
                    scale = den // dd * (-1) ** i
                    for k, v in nums.items():
                        sums[k] = get(k, 0) + v * scale
                d = ops[0]
                out[n] = _sum_map(d.dom, d.cod, d.field, sums, den)
            self._boundaries = out
        return self._boundaries


def _window_family(evaluate, ops):
    """{n: [op]} with each op a LinMap or the arguments of a window op,
    evaluated through `evaluate`."""
    return {n: [evaluate(*op) if isinstance(op, tuple) else op for op in row]
            for n, row in ops.items()}


def _towers(h, p, variant, N):
    """The presentations of degrees 0..N of the (co)cyclic module of h,
    with coefficients in p (or None): the R tower on the chain side and
    the L tower on the cochain side, after A in degree 0; with
    coefficients, p.chain_tower (P first) and p.capped_tower (P last)."""
    if p is not None:
        tower = p.chain_tower if variant == "cyclic" else p.capped_tower
        return [tower(n) for n in range(N + 1)]
    tower = h.rtower if variant == "cyclic" else h.ltower
    return [QuotientPresentation.trivial(h.A.space, h.field)] \
        + [tower(n) for n in range(1, N + 1)]


def _module(variant, N, h, p, faces, degen, cyc, label):
    """The CyclicModuleData of one builder call on h (with coefficients in
    p, or None).

    A builder gives only formulas: `faces` and `degen` as {n: [op]}, n the
    source degree and op a LinMap (a map between A and U) or a window op
    (st, k_in, s), and `cyc(pres)`, the cyclic operators on the towers
    `pres` of `_towers`.  Each window op is placed here by one rule: its
    towers are those of its source and target degrees, its slot dims those
    of U^n with P first on the chain side and last on the cochain side,
    and its side (see `_window_ops`) is that of P iff its window is not
    empty and covers the slot of P.  The certificate of every face and
    degeneracy runs now, and the three families are handed over
    unevaluated.  The cyclic operators have no certificate apart from
    their global `descend`, so a failure of theirs raises on the first
    read of `cyc`.
    """
    chain = variant == "cyclic"
    pres = _towers(h, p, variant, N)
    own, coeff = ("R", "chain") if chain else ("L", "cochain")
    certify, evaluate = _window_ops(h, p)

    def place(n, m, op):
        """op from degree n to degree m, placed and certified."""
        if not isinstance(op, tuple):
            return op
        st, k_in, s = op
        dims, side = [h.U.space.dim] * n, own
        if p is not None:
            at = 0 if chain else n      # the slot of P
            dims.insert(at, p.space.dim)
            side = coeff if s <= at < s + k_in else own
        op = (side, st, k_in, s, pres[n], pres[m], dims)
        certify(*op)
        return op

    step = -1 if chain else 1       # the degree a face moves
    faces, degen = (partial(_window_family, evaluate, {
        n: [place(n, n + d, op) for op in row] for n, row in ops.items()})
        for ops, d in ((faces, step), (degen, -step)))
    return CyclicModuleData(variant, N, [pr.quotient for pr in pres], faces,
                            degen, partial(cyc, pres), h.field, label)


# -- faces and degeneracies as certified window ops -----------------------

def _window_ops(h, p=None):
    """(certify, evaluate) for the faces and degeneracies of one builder
    call.

    A face or degeneracy is a window op `st(pipe, s)`: Pipe stages that
    act on the slots [s, s + k_in) of a pipe and leave some k_out slots
    there.  (x)_A is a functor on A-bimodule maps (Boehm, "Hopf
    algebroids", Handbook of Algebra 6, 2009, sec. 2), and the relations
    of a tower are spanned by the balancing relations of adjacent slots
    with the other slots free.  So id (x) phi (x) id descends on every
    tower that contains the window once phi
      - descends from the local tower on its k_in slots to the one on
        its k_out slots, and
      - is A-linear, into the local target quotient, at each boundary of
        the window that is not a tower edge: phi(a.w) = a.phi(w) on the
        left, phi(w.a) = phi(w).a on the right, with the actions of the
        end slots; an empty window between two slots (a unit insertion)
        needs a.phi(1) = phi(1).a instead.
    `certify` checks each part of this certificate once per window op, on
    a source tower with relations, and raises DescentFailure on a failed
    part; `evaluate` forms the operator on the section columns of the
    source only, as one Pipe stage that applies the window map phi =
    st(Pipe(wd), 0) to the slots of the window (on the identity of the
    ambient where the source is free).  Both take the arguments of a
    window op, and phi is formed once per op and window dims.  `side` names
    the towers: "R" (rtower) and "L" (ltower) for windows of U slots,
    "chain" and "cochain" for windows at the coefficient slot of
    p.chain_tower (P first) and p.capped_tower (P last).
    """
    f = h.field
    da = h.A.space.dim
    done = set()
    p_actions = {}
    windows = {}
    # the local tower on k window slots
    tower = {"R": h.rtower, "L": h.ltower,
             "chain": lambda k: p.chain_tower(k - 1),
             "cochain": lambda k: p.capped_tower(k - 1)}

    def action(side, k, end):
        """The A-action on the first ("left", A (x) X -> X) or last
        ("right", X (x) A -> X) slot of a window of k slots; built once."""
        if k == 1 and side in ("chain", "cochain"):    # p t(a)
            if end not in p_actions:
                p_actions[end] = p.left_a_action() if end == "left" \
                    else p.right_arrow_action()
            return p_actions[end]
        # the factor actions of the towers: t(a) u and u t(a) on the R
        # side, s(a) u and t(a) u on the L side
        grower = h._grower("R" if side in ("R", "chain") else "L")
        return grower.factor_lact if end == "left" else grower.factor_ract

    def window(st, wd):
        """(phi, its target dims): st on a window of the slot dims wd."""
        key = (st, tuple(wd))
        if key not in windows:
            phi = st(Pipe(wd, f), 0)
            windows[key] = phi.map, phi.dims
        return windows[key]

    def witness(side, st, wd, part):
        """The failure of one part of the certificate, or None."""
        k_in = len(wd)
        phi, out_dims = window(st, wd)
        k_out = len(out_dims)
        dst = tower[side](k_out)
        if part == "descent":
            return descent_witness(phi, tower[side](k_in), dst)
        if part == "left":      # phi(a.w) against a.phi(w)
            lhs = st(Pipe([da] + wd, f)
                     .block(0, 2, action(side, k_in, "left")), 0)
            rhs = st(Pipe([da] + wd, f), 1) \
                .block(0, 2, action(side, k_out, "left"))
        elif part == "right":   # phi(w.a) against phi(w).a
            lhs = st(Pipe(wd + [da], f)
                     .block(k_in - 1, 2, action(side, k_in, "right")), 0)
            rhs = st(Pipe(wd + [da], f), 0) \
                .block(k_out - 1, 2, action(side, k_out, "right"))
        else:                   # empty window: a.phi(1) against phi(1).a
            lhs = st(Pipe([da], f), 1) \
                .block(0, 2, action(side, k_out, "left"))
            rhs = st(Pipe([da], f), 0) \
                .block(k_out - 1, 2, action(side, k_out, "right"))
        return difference_witness(dst.project(lhs.map), dst.project(rhs.map))

    def certify(side, st, k_in, s, src, dst, dims):
        if src.quotient.dim == src.ambient.dim:
            return
        left, right = s > 0, s + k_in < len(dims)
        if k_in:
            parts = ["descent"] + ["left"] * left + ["right"] * right
        else:
            parts = ["empty"] * (left and right)
        for part in parts:
            if (side, st, part) in done:
                continue
            w = witness(side, st, dims[s:s + k_in], part)
            if w is not None:
                raise DescentFailure(
                    ("window op %s does not descend on its local towers "
                     "(relation column %d)" % (st.__name__, w[0]))
                    if part == "descent" else
                    ("window op %s is not A-linear at its %s boundary "
                     "(column %d)" % (st.__name__, part, w[0])), witness=w)
            done.add((side, st, part))

    def evaluate(side, st, k_in, s, src, dst, dims):
        """dst.project of id (x) phi (x) id on the section columns of src,
        whose ambient splits into `dims`."""
        phi, out_dims = window(st, dims[s:s + k_in])
        pipe = Pipe(dims, f) if src.free else Pipe.after(src.section, dims)
        return dst.project(pipe.block(s, k_in, phi, out_dims).map)

    return certify, evaluate


def _shared_ops(h):
    """The window ops of more than one builder, as (unit_in, coproduct,
    product, counit_left)."""
    du = h.U.space.dim
    unit = h.U.unit_map()
    sc_eps = h.s_L @ h.eps_L

    def unit_in(pipe, s):
        return pipe.block(s, 0, unit)

    def coproduct(pipe, s):
        return pipe.block(s, 1, h.delta_lift, [du, du])

    def product(pipe, s):
        return pipe.block(s, 2, h.U.mul)

    def counit_left(pipe, s):
        # u (x) v -> s(eps(u)) v
        return pipe.block(s, 1, sc_eps).block(s, 2, h.U.mul)

    return unit_in, coproduct, product, counit_left


# -- the coproduct-side cocyclic module ----------------------------------

def build_cocyclic_CU(h, N):
    f = h.field
    du = h.U.space.dim
    unit_in, coproduct, _, counit_left = _shared_ops(h)
    tc_eps = h.t_L @ h.eps_L
    # u (x) v -> vu
    mul_op = Pipe([du, du], f).permute([1, 0]).block(0, 2, h.U.mul).map

    def counit_right(pipe, s):
        # u (x) v -> t(eps(v)) u
        return pipe.block(s + 1, 1, tc_eps).block(s, 2, mul_op)

    faces = {0: [h.t_L, h.s_L]} if N else {}
    degen = {1: [h.eps_L]} if N else {}
    for n in range(1, N):
        faces[n] = [(unit_in, 0, 0)] \
            + [(coproduct, 1, i) for i in range(n)] + [(unit_in, 0, n)]
    for n in range(2, N + 1):
        degen[n] = [(counit_left, 2, i) for i in range(n - 1)] \
            + [(counit_right, 2, n - 2)]

    def cyc(pres):
        cyc = {0: LinMap.identity(h.A.space, f)}
        for n in range(1, N + 1):
            pipe = Pipe([du] * n, f).block(0, 1, h.S)
            pipe.block(0, 1, h.iterated_delta_lift(n), [du] * n)
            order = []
            for k in range(n - 1):
                order += [k, n + k]
            pipe.permute(order + [n - 1])
            for k in range(n - 1):
                pipe.block(k, 2, h.U.mul)
            cyc[n] = descend(pipe.map, pres[n], pres[n])
        return cyc
    return _module("cocyclic", N, h, None, faces, degen, cyc,
                   "C^(%s)" % h.label)


# -- the chain-side cyclic module ----------------------------------------

def build_cyclic_CU(h, N):
    f = h.field
    du = h.U.space.dim
    unit_in, _, product, _ = _shared_ops(h)
    eps_R = h.eps_R
    t_eps = h.t_L @ eps_R
    t_eps_S = h.t_L @ (eps_R @ h.S)

    def counit_first(pipe, s):
        # u (x) v -> t(eps_R(u)) v
        return pipe.block(s, 1, t_eps).block(s, 2, h.U.mul)

    def counit_last(pipe, s):
        # u (x) v -> u t(eps_R(S(v)))
        return pipe.block(s + 1, 1, t_eps_S).block(s, 2, h.U.mul)

    faces = {1: [eps_R, h.eps_L]} if N else {}
    degen = {0: [h.t_L]} if N else {}
    for n in range(2, N + 1):
        faces[n] = [(counit_first, 2, 0)] \
            + [(product, 2, i) for i in range(n - 1)] \
            + [(counit_last, 2, n - 2)]
    for n in range(1, N):
        degen[n] = [(unit_in, 0, i) for i in range(n + 1)]

    def cyc(pres):
        cyc = {0: LinMap.identity(h.A.space, f)}
        for n in range(1, N + 1):
            pipe = Pipe([du] * n, f)
            for k in range(n - 1):
                pipe.block(2 * k, 1, h.delta_lift, [du, du])
            pipe.permute([2 * k + 1 for k in range(n - 1)] + [2 * n - 2]
                         + [2 * k for k in range(n - 1)])
            for _ in range(n - 1):
                pipe.block(0, 2, h.U.mul)
            pipe.block(0, 1, h.S)
            cyc[n] = descend(pipe.map, pres[n], pres[n])
        return cyc
    return _module("cyclic", N, h, None, faces, degen, cyc,
                   "C_(%s)" % h.label)


# -- coefficient towers ---------------------------------------------------

def chain_coeff_cyclic(h, p, n):
    """The cyclic operator on P (x)_A U (x)_A ... (x)_A U, n copies of U:
    p (x) u1 (x) ... (x) un -> p_0 u1+ (x) u2+ (x) ... (x) un+ (x)
    un- ... u1- p_-1, with u -> u+ (x) u- the translation map and
    p -> p_-1 (x) p_0 the coaction; the identity for n = 0."""
    f = h.field
    if n == 0:
        return LinMap.identity(p.space, f)
    du = h.U.space.dim
    dp = p.space.dim
    trans = translation_lift(h)
    pipe = Pipe([dp] + [du] * n, f)
    for k in range(n):
        pipe.block(1 + 2 * k, 1, trans, [du, du])
    pipe.block(0, 1, p.coact_lift, [du, dp])
    # layout now (p_-1, p_0, u1+, u1-, ..., un+, un-)
    pipe.permute([1] + [2 * k for k in range(1, n + 1)]
                 + [2 * k + 1 for k in range(n, 0, -1)] + [0])
    pipe.block(0, 2, p.action)
    for _ in range(n):
        pipe.block(n, 2, h.U.mul)
    pres = p.chain_tower(n)
    return descend(pipe.map, pres, pres)


def build_cyclic_with_coeffs(h, p, N):
    require_own_algebroid(h, p)
    if N:   # the cyclic operators need it: raise here where it fails
        translation_lift(h)
    unit_in, _, product, _ = _shared_ops(h)
    t_eps = h.t_L @ h.eps_L

    def counit_last(pipe, s):
        # u (x) v -> u t(eps(v))
        return pipe.block(s + 1, 1, t_eps).block(s, 2, h.U.mul)

    def counit_coeff(pipe, s):
        # p (x) u -> p t(eps(u))
        return pipe.block(s + 1, 1, t_eps).block(s, 2, p.action)

    def action(pipe, s):
        return pipe.block(s, 2, p.action)

    faces = {}
    degen = {}
    # layout (p, u_1, ..., u_n)
    for n in range(1, N + 1):
        first = (counit_coeff, 2, 0) if n == 1 else (counit_last, 2, n - 1)
        faces[n] = [first] + [(product, 2, n - i) for i in range(1, n)] \
            + [(action, 2, 0)]
    for n in range(0, N):
        degen[n] = [(unit_in, 0, 1 + n - i) for i in range(n + 1)]

    def cyc(pres):
        return {n: chain_coeff_cyclic(h, p, n) for n in range(N + 1)}
    return _module("cyclic", N, h, p, faces, degen, cyc,
                   "C_(%s;%s)" % (h.label, p.label))


def build_cocyclic_with_coeffs(h, p, N):
    require_own_algebroid(h, p)
    trans = translation_lift(h)     # raises here where it fails
    f = h.field
    du = h.U.space.dim
    dp = p.space.dim
    unit_in, coproduct, _, counit_left = _shared_ops(h)
    t_eps = h.t_L @ h.eps_L
    # u (x) p -> p u
    act_op = Pipe([du, dp], f).permute([1, 0]).block(0, 2, p.action).map

    def coaction(pipe, s):
        return pipe.block(s, 1, p.coact_lift, [du, dp])

    def counit_coeff(pipe, s):
        # u (x) p -> p t(eps(u))
        return pipe.block(s, 1, t_eps).block(s, 2, act_op)

    faces = {}
    degen = {}
    # layout (u_1, ..., u_n, p)
    for n in range(0, N):
        faces[n] = [(unit_in, 0, 0)] \
            + [(coproduct, 1, i) for i in range(n)] + [(coaction, 1, n)]
    for n in range(1, N + 1):
        degen[n] = [(counit_left, 2, i) for i in range(n - 1)] \
            + [(counit_coeff, 2, n - 1)]

    def cyc(pres):
        cyc = {0: LinMap.identity(p.space, f)}
        for n in range(1, N + 1):
            pipe = Pipe([du] * n + [dp], f)
            pipe.block(0, 1, trans, [du, du])
            pipe.block(1, 1, h.iterated_delta_lift(n), [du] * n)
            pipe.block(2 * n, 1, p.coact_lift, [du, dp])
            # layout (u1+, w1..wn, u2..un, p_-1, p_0)
            order = []
            for k in range(1, n):
                order += [k, n + k]
            pipe.permute(order + [n, 2 * n, 2 * n + 1, 0])
            for k in range(n):
                pipe.block(k, 2, h.U.mul)
            pipe.block(n, 2, p.action)
            cyc[n] = descend(pipe.map, pres[n], pres[n])
        return cyc
    return _module("cocyclic", N, h, p, faces, degen, cyc,
                   "C^(%s;%s)" % (h.label, p.label))


# -- generic cyclic/cocyclic axiom checker --------------------------------

def check_t_order(rep, t, spaces, field):
    """t_n^(n+1) = id on spaces[n] for every degree n of t, into rep."""
    for n in range(len(t)):
        power = t[n]
        for _ in range(n):
            power = t[n] @ power
        rep.check_map_equal("t_order@%d" % n, power,
                            LinMap.identity(spaces[n], field))


def check_cyclic_module(cm):
    """Connes' identities of the cyclic category on a cyclic or cocyclic
    module, written once in cyclic form.

    A cyclic module is a contravariant functor on the cyclic category and
    a cocyclic module a covariant one, so a cocyclic module satisfies the
    same identities with every composite read in the opposite order.  The
    identities read D[n][i], the face between degrees n and n-1 (faces[n][i]
    on a cyclic module, faces[n-1][i] on a cocyclic one), S[n][j], the
    degeneracy between degrees n and n+1 (degen[n][j], resp.
    degen[n+1][j]), and T[n] = cyc[n]; comp(a, b) is a @ b on a cyclic
    module and b @ a on a cocyclic one.  A check is named after the
    composite on its left side as the module composes it: the outer map
    first, at its source degree, e.g. d0_t@n on a cyclic module and t_d0@n
    on a cocyclic one.
    """
    rep = Report("%s module %s" % (cm.variant, cm.label))
    co = cm.variant == "cocyclic"
    N = cm.N
    # each operator as (name, source degree, map), indexed in cyclic form;
    # its source degree is its key in the module's family
    D = {n + co: [("d%d" % i, n, d) for i, d in enumerate(row)]
         for n, row in cm.faces.items()}
    S = {n - co: [("s%d" % j, n, s) for j, s in enumerate(row)]
         for n, row in cm.degen.items()}
    cyc = cm.cyc
    T = {n: ("t", n, t) for n, t in cyc.items()}

    def comp(a, b):
        """The composite (outer, inner, map) of a after b in cyclic form."""
        if co:
            a, b = b, a
        return a, b, a[2] @ b[2]

    def check(lhs, rhs):
        outer, inner, lmap = lhs
        rep.check_map_equal("%s_%s@%d" % (outer[0], inner[0], inner[1]),
                            lmap, rhs[2])

    for n in range(2, N + 1):
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                check(comp(D[n - 1][i], D[n][j]),
                      comp(D[n - 1][j - 1], D[n][i]))
    for n in range(N - 1):
        for i in range(n + 1):
            for j in range(i, n + 1):
                check(comp(S[n + 1][i], S[n][j]),
                      comp(S[n + 1][j + 1], S[n][i]))
    for n in range(N):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = comp(D[n + 1][i], S[n][j])
                if i < j:
                    rhs = comp(S[n - 1][j - 1], D[n][i])
                elif i > j + 1:
                    rhs = comp(S[n - 1][j], D[n][i - 1])
                else:
                    rhs = None, None, LinMap.identity(cm.spaces[n], cm.field)
                check(lhs, rhs)
    check_t_order(rep, cyc, cm.spaces, cm.field)
    for n in range(1, N + 1):
        check(comp(D[n][0], T[n]), D[n][n])
        for i in range(1, n + 1):
            check(comp(D[n][i], T[n]), comp(T[n - 1], D[n][i - 1]))
    for n in range(N):
        check(comp(S[n][0], T[n]), comp(comp(T[n + 1], T[n + 1]), S[n][n]))
        for i in range(1, n + 1):
            check(comp(S[n][i], T[n]), comp(T[n + 1], S[n][i - 1]))
    return rep


# -- Hopf-Galois chain maps ----------------------------------------------

def _xi_core_free(h, n):
    """Free lift of the degree-n Hopf-Galois map on the bare tensor power."""
    f = h.field
    du = h.U.space.dim
    if n == 0:
        return LinMap.identity(h.A.space, f)
    pipe = Pipe([du] * n, f)
    # slot i (1-based) expands into n - i + 1 factors starting at offsets[i]
    offsets = []
    total = 0
    for i in range(1, n + 1):
        offsets.append(total)
        pipe.block(total, 1, h.iterated_delta_lift(n - i + 1),
                   [du] * (n - i + 1))
        total += n - i + 1
    order = []
    for j in range(1, n + 1):
        order += [offsets[i - 1] + (j - i) for i in range(1, j + 1)]
    pipe.permute(order)
    for j in range(1, n + 1):
        pipe.block(j - 1, j, h.U.mul_n(j))
    return pipe.map


def hopf_galois_chain_map(h, N, p=None):
    """The degreewise isomorphisms from the chain-side to the cochain-side
    (co)cyclic module; with coefficients when p is given.  Each degree is
    computed once per algebroid (per SAYD module with coefficients, which
    must be over h: ValueError otherwise)."""
    if p is not None:
        require_own_algebroid(h, p)
    cache = h._xi if p is None else p._xi
    for n in range(N + 1):
        if n not in cache:
            cache[n] = _xi(h, n, p)
    return [cache[n] for n in range(N + 1)]


def _xi(h, n, p):
    """The degree-n map of hopf_galois_chain_map."""
    if p is not None and n == 0:
        return LinMap.identity(p.space, h.field)
    core = _xi_core_free(h, n)
    if p is None:
        return core if n <= 1 else descend(core, h.rtower(n), h.ltower(n))
    du = h.U.space.dim
    pipe = Pipe([p.space.dim] + [du] * n, h.field)
    pipe.permute(list(range(1, n + 1)) + [0])
    pipe.block(0, n, core, [du] * n)
    return descend(pipe.map, p.chain_tower(n), p.capped_tower(n))


def check_hopf_galois_chain_map(h, N, p=None):
    rep = Report("xi(%s)" % h.label)
    try:
        xs = hopf_galois_chain_map(h, N, p)
    except DescentFailure as exc:
        return rep.add("xi_descends", False, witness=repr(exc))
    rep.add("xi_descends", True)
    for n, xi in enumerate(xs):
        rep.add("xi_bijective@%d" % n,
                xi.dom.dim == xi.cod.dim and rank(xi) == xi.dom.dim)
    return rep


# -- homology -------------------------------------------------------------

def _lam(cm, n):
    """The signed cyclic operator lambda = (-1)^n t_n of degree n."""
    t = cm.cyc[n]
    return t if n % 2 == 0 else t.scaled(t.field.neg(t.field.one))


def _carry(f, src, dst):
    """The map f of modules carried to the complexes whose degrees at its
    source and target are presented by src and dst: f itself where they
    are the whole modules (None), its descent between quotient
    presentations, its restriction between kernel inclusions.  So each
    carry certifies that f maps the relations (DescentFailure otherwise),
    resp. the kernel (NoSolution otherwise), of src into those of dst."""
    if dst is None:
        return f
    if isinstance(dst, QuotientPresentation):
        return descend(f, src, dst)
    return solve_many(dst, f @ src)


class _Homology:
    """The homology in degrees 0..N-1 of a finite complex: degree n is
    spaces[n], presented by pres[n] on the module (see `_carry`), and
    diffs[n] leaves degree n, down where `homological` and up otherwise.

    `dims` are read off the ranks of the differentials, each rank once;
    `presentation(n)` is formed on its first read."""

    def __init__(self, spaces, diffs, homological, pres, field):
        self.N = len(spaces) - 1
        self.spaces = spaces
        self.diffs = diffs
        self.pres = pres
        self.field = field
        # diffs[n + self._into] enters degree n; a missing map has rank 0
        self._into = 1 if homological else -1
        ranks = {n: rank(d) for n, d in diffs.items()}
        self.dims = [spaces[n].dim - ranks.get(n, 0)
                     - ranks.get(n + self._into, 0) for n in range(self.N)]
        self._presentations = {}

    def presentation(self, n):
        """(cycle inclusion K, quotient presentation of the homology on
        K.dom) in degree n; ValueError for a degree outside 0..N-1."""
        if not 0 <= n < self.N:
            raise ValueError("degree %r outside the homology degrees 0..%d"
                             % (n, self.N - 1))
        if n not in self._presentations:
            f = self.field
            out, into = self.diffs.get(n), self.diffs.get(n + self._into)
            K = LinMap.identity(self.spaces[n], f) if out is None \
                else kernel(out)
            rel = LinMap.zero(Space(0), K.dom, f) if into is None \
                else solve_many(K, into)
            self._presentations[n] = K, quotient_by(K.dom, rel, f)
        return self._presentations[n]


def homology(cm, theory="HH", normalized=False):
    """Hochschild ("HH") or cyclic ("HC") (co)homology of a (co)cyclic
    module in degrees 0..N-1.  Degree n of its complex is
      - C_n (HH);
      - C_n divided by the images of the degeneracies (normalized HH,
        chain side only);
      - C_n divided by the image of 1 - lambda (HC, chain side);
      - the kernel of 1 - lambda (HC, cochain side);
    and every boundary passes to it by `_carry`.  HC over F_p raises
    CharNotZero before any operator is read."""
    f = cm.field
    chain = cm.variant == "cyclic"
    if theory not in ("HH", "HC"):
        raise ValueError("unknown theory %r: HH or HC" % (theory,))
    if normalized and not (theory == "HH" and chain):
        raise ValueError("normalized homology is HH of the chain side")
    if theory == "HC":
        if f.char != 0:
            raise CharNotZero("lambda-complex needs characteristic zero")
        rels = [LinMap.identity(sp, f) - _lam(cm, n)
                for n, sp in enumerate(cm.spaces)]
        pres = [quotient_by(sp, r, f) if chain else kernel(r)
                for sp, r in zip(cm.spaces, rels)]
    elif normalized:
        # degree n divided by the columns of every degeneracy into it, side
        # by side; each has C_{n-1}, of dimension d, as its domain
        pres = [QuotientPresentation.trivial(cm.spaces[0], f)]
        for n in range(1, cm.N + 1):
            ss, d = cm.degen[n - 1], cm.spaces[n - 1].dim
            cols = {(i, k * d + j): v for k, s in enumerate(ss)
                    for (i, j), v in s.entries.items()}
            pres.append(quotient_by(cm.spaces[n], LinMap(
                Space(len(ss) * d), cm.spaces[n], f, cols), f))
    else:
        pres = [None] * (cm.N + 1)
    return _Homology(
        [sp if p is None else p.quotient if chain else p.dom
         for sp, p in zip(cm.spaces, pres)],
        {n: _carry(d, pres[n], pres[n - 1 if chain else n + 1])
         for n, d in cm.boundaries().items()}, chain, pres, f)


def hochschild_homology(cm, normalized=False):
    """Hochschild (co)homology, see `homology`."""
    return homology(cm, "HH", normalized)


def cyclic_homology_char0(cm):
    """Cyclic (co)homology through the lambda-complex, see `homology`."""
    return homology(cm, "HC")


def transported_homology(cm_chain, xs):
    """Hochschild homology of the chain complex conjugated through the
    degreewise isomorphisms xs (an internal consistency oracle)."""
    return _Homology(
        [x.cod for x in xs[:cm_chain.N + 1]],
        {n: xs[n - 1] @ (d @ invert(xs[n]))
         for n, d in cm_chain.boundaries().items()},
        True, [None] * (cm_chain.N + 1), cm_chain.field)


# -- induced chain maps and certificates ----------------------------------

def measured_ends(m):
    """The source and target of a measuring, or of a comodule measuring,
    as (algebroid, coefficients or None): the (co)cyclic modules between
    which it induces chain maps."""
    if isinstance(m, ComoduleMeasuringData):
        return (m.base.src, m.src_p), (m.base.dst, m.dst_p)
    return (m.src, None), (m.dst, None)


def induced_cyclic_map(m, xvec, N, variant):
    """Chain maps induced by an element of the coalgebra of a measuring on
    the plain (co)cyclic modules, or by an element of the comodule of a
    comodule measuring on the modules with coefficients.  Degree n is the
    Sweedler sum of the slotwise actions through the n-fold coproduct
    (coaction) of the element on the free tensor power, the coefficient
    slot first on the chain side and last on the cochain side, descended
    to the degree-n towers of the two ends."""
    src, dst = measured_ends(m)
    if src[1] is None:
        free = partial(m.induced_free, xvec)
    else:
        free = partial(m.induced_coeff_free, xvec,
                       p_position="front" if variant == "cyclic" else "back")
    return [descend(free(n), s, d) for n, (s, d) in enumerate(zip(
        _towers(*src, variant, N), _towers(*dst, variant, N)))]


def check_chain_map(src_cm, dst_cm, maps):
    """Certificate that `maps` commutes with faces, degeneracies and the
    cyclic operators of two parallel (co)cyclic modules."""
    rep = Report("chain map")
    N = min(src_cm.N, dst_cm.N, len(maps) - 1)
    step = -1 if src_cm.variant == "cyclic" else 1   # the degree a face moves
    for n in range(N + 1):
        for kind, m, ops, dst_ops in (
                ("d", n + step, src_cm.faces, dst_cm.faces),
                ("s", n - step, src_cm.degen, dst_cm.degen)):
            if n in ops and 0 <= m <= N:
                for i, (a, b) in enumerate(zip(ops[n], dst_ops[n])):
                    rep.check_map_equal("%s%d@%d" % (kind, i, n),
                                        maps[m] @ a, b @ maps[n])
        rep.check_map_equal("t@%d" % n,
                            maps[n] @ src_cm.cyc[n], dst_cm.cyc[n] @ maps[n])
    return rep


def hopf_galois_square(m, xvec, N):
    """Commutation of the maps induced by a measuring, or by a comodule
    measuring, with the Hopf-Galois isomorphisms."""
    rep = Report("hopf galois square")
    xs_src, xs_dst = (hopf_galois_chain_map(h, N, p)
                      for h, p in measured_ends(m))
    f_chain = induced_cyclic_map(m, xvec, N, "cyclic")
    f_cochain = induced_cyclic_map(m, xvec, N, "cocyclic")
    for n in range(N + 1):
        rep.check_map_equal("square@%d" % n,
                            xs_dst[n] @ f_chain[n], f_cochain[n] @ xs_src[n])
    return rep


def induced_on_homology(src, dst, maps, n):
    """Matrix of the map on degree-n homology induced by the chain maps
    `maps` between the modules of two homologies of one theory; maps[n]
    is carried to their complexes first (see `_carry`)."""
    Ks, ps = src.presentation(n)
    Kd, pd = dst.presentation(n)
    X = solve_many(Kd, _carry(maps[n], src.pres[n], dst.pres[n]) @ Ks)
    return pd.project(ps.lift(X))


# -- shuffle products -----------------------------------------------------

def _shuffles(p, q):
    """(p, q)-shuffles as (sign, perm) with perm[k] = source slot feeding
    target slot k."""
    import itertools
    out = []
    for positions in itertools.combinations(range(p + q), p):
        # sigma[source] = target
        sigma = list(positions) + [k for k in range(p + q)
                                   if k not in positions]
        inv = sum(x > y for a, x in enumerate(sigma) for y in sigma[a + 1:])
        perm = [0] * (p + q)
        for src, tgt in enumerate(sigma):
            perm[tgt] = src
        out.append((inv % 2, perm))
    return out


def shuffle_product(h, p, q):
    """sh_{p,q} : C_p (x) C_q -> C_{p+q} on the chain side (commutative
    total algebra)."""
    f = h.field
    du = h.U.space.dim
    da = h.A.space.dim
    triv = QuotientPresentation.trivial(h.A.space, f)
    if p == 0 and q == 0:
        return h.A.mul
    if q == 0:
        # (u1 ... up) (x) a -> t(a) u1 (x) ... (x) up
        pipe = Pipe([du] * p + [da], f).permute([p] + list(range(p)))
        pipe.block(0, 1, h.t_L).block(0, 2, h.U.mul)
        src = tensor_presentation(h.rtower(p), triv)
        return descend(pipe.map, src, h.rtower(p))
    if p == 0:
        # a (x) (u1 ... uq) -> u1 (x) ... (x) uq t(a)
        pipe = Pipe([da] + [du] * q, f).permute(list(range(1, q + 1)) + [0])
        pipe.block(q, 1, h.t_L).block(q - 1, 2, h.U.mul)
        src = tensor_presentation(triv, h.rtower(q))
        return descend(pipe.map, src, h.rtower(q))
    f_neg = f.neg(f.one)
    total = None
    for parity, perm in _shuffles(p, q):
        m = permute_factors([du] * (p + q), perm, f)
        if parity:
            m = m.scaled(f_neg)
        total = m if total is None else total + m
    src = tensor_presentation(h.rtower(p), h.rtower(q))
    return descend(total, src, h.rtower(p + q))


def check_shuffle_measuring(m, xvec, p, q):
    """Leibniz-type compatibility of the induced maps with sh_{p,q}."""
    rep = Report("shuffle measuring @(%d,%d)" % (p, q))
    f = m.C.field
    sh_src = shuffle_product(m.src, p, q)
    sh_dst = shuffle_product(m.dst, p, q)
    chain_src = induced_cyclic_map(m, xvec, max(p + q, 1), "cyclic")
    lhs_map = chain_src[p + q] @ sh_src
    basis = [m.C.space.basis_vector(i, f) for i in range(m.C.space.dim)]
    slots = [[induced_cyclic_map(m, e, k, "cyclic")[k] for e in basis]
             for k in (p, q)]
    terms = m.C.iterated_comul_vector(tuple(xvec), 2)
    rep.check_map_equal("leibniz", lhs_map,
                        sh_dst @ sweedler_sum(terms, slots))
    return rep


def check_shuffle_unital(h, p):
    """sh_{p,0}(alpha (x) 1) = alpha and sh_{0,p}(1 (x) alpha) = alpha."""
    rep = Report("shuffle unit @%d" % p)
    f = h.field
    sh1 = shuffle_product(h, p, 0)
    sh2 = shuffle_product(h, 0, p)
    cp = h.rtower(p).quotient if p >= 1 else h.A.space
    ident = LinMap.identity(cp, f)
    unit = h.A.unit_map()
    rep.check_map_equal("right_unit",
                        sh1 @ Pipe([cp.dim], f).block(1, 0, unit).map, ident)
    rep.check_map_equal("left_unit",
                        sh2 @ Pipe([cp.dim], f).block(0, 0, unit).map, ident)
    return rep


class MixedComplexData:
    """(b, B) operators extracted from a chain-side cyclic module."""

    def __init__(self, spaces, b, B, label=""):
        self.spaces = spaces
        self.b = b
        self.B = B
        self.label = label


def mixed_complex(cm):
    """Connes' (b, B) bicomplex data from a cyclic module; ValueError for
    a cocyclic one."""
    if cm.variant != "cyclic":
        raise ValueError("mixed complexes implemented on the chain side")
    diffs = cm.boundaries()
    f = cm.field
    B = {}
    for n in range(0, cm.N):
        lam = _lam(cm, n)
        norm = power = LinMap.identity(cm.spaces[n], f)
        for _ in range(n):
            power = lam @ power
            norm = norm + power
        extra = cm.cyc[n + 1] @ cm.degen[n][n]
        one_minus = LinMap.identity(cm.spaces[n + 1], f) - _lam(cm, n + 1)
        B[n] = one_minus @ (extra @ norm)
    return MixedComplexData(cm.spaces, diffs, B, cm.label)


def check_mixed_complex(mx):
    rep = Report("mixed complex %s" % mx.label)
    for n in sorted(mx.b):
        if n + 1 in mx.b:
            rep.check_map_zero("bb@%d" % (n + 1), mx.b[n] @ mx.b[n + 1])
    for n in sorted(mx.B):
        if n + 1 in mx.B:
            rep.check_map_zero("BB@%d" % n, mx.B[n + 1] @ mx.B[n])
        if n + 1 in mx.b:
            anti = mx.b[n + 1] @ mx.B[n]
            if n >= 1 and n - 1 in mx.B:
                anti = anti + (mx.B[n - 1] @ mx.b[n])
            rep.check_map_zero("bB_Bb@%d" % n, anti)
    return rep
