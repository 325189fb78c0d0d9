"""Left bialgebroids, Hopf algebroids with involutive antipode, and their
stable anti-Yetter-Drinfeld coefficients.

Conventions, fixed once and used everywhere downstream:

* the "L" tensor tower quotients U (x) ... (x) U by
  t(a) u (x) v  -  u (x) s(a) v        (comultiplication target),
* the "R" tower quotients by
  u t(a) (x) v  -  u (x) t(a) v        (chain side and the arrow-style
                                        actions, which coincide here),
* comultiplications and coactions are supplied as lifts into the free tensor
  square; quotient classes are recovered through the tower projections, and
  every operator built from lifts is pushed through `descend`, which verifies
  representative independence.
"""

from .exactlin import (
    LinMap, Pipe, Space, QuotientPresentation, DescentFailure, NoSolution,
    column_witness, descend, descent_witness, difference_witness, fix_factor,
    kron_vec, rank, solve_many, tensor_presentation, tensor_space,
)
from .algcore import (
    AlgebraData, BalancedTower, ModuleActionData, Report, check_algebra,
    check_module, keyed, require_shape, swap_map,
)


class LeftBialgebroidData:
    """A left bialgebroid (total algebra, base algebra, source, target,
    coproduct lift, counit)."""

    def __init__(self, U, A, s_L, t_L, delta_lift, eps_L, label=""):
        self.U = U
        self.A = A
        self.field = U.field
        du, da = U.space.dim, A.space.dim
        require_shape("s_L", s_L, da, du)
        require_shape("t_L", t_L, da, du)
        require_shape("delta_lift", delta_lift, du, du * du)
        require_shape("eps_L", eps_L, du, da)
        self.s_L = s_L
        self.t_L = t_L
        self.delta_lift = delta_lift
        self.eps_L = eps_L
        self.label = label or U.label
        self._growers = {}
        self._delta_lifts = {}

    # -- element helpers -------------------------------------------------

    def s_of(self, avec):
        return self.s_L.apply(tuple(avec))

    def t_of(self, avec):
        return self.t_L.apply(tuple(avec))

    def lmul(self, uvec):
        return self.U.left_mult(uvec)

    def rmul(self, uvec):
        return self.U.right_mult(uvec)

    def iterated_delta_lift(self, n):
        """Lift of the (n-1)-fold coproduct, expanding the last slot
        (cached)."""
        if n < 1:
            raise ValueError("the coproduct lift needs n >= 1, not %d" % n)
        if n not in self._delta_lifts:
            du = self.U.space.dim
            pipe = Pipe([du], self.field)
            for k in range(1, n):
                pipe.block(k - 1, 1, self.delta_lift, [du, du])
            self._delta_lifts[n] = pipe.map
        return self._delta_lifts[n]

    # -- tensor towers ---------------------------------------------------

    def _actions(self, side):
        """The actions (U (x) A -> U, A (x) U -> U) on a factor of the L
        tower, u . a = t(a) u and a . u = s(a) u, or of the R tower,
        u . a = u t(a) and a . u = t(a) u."""
        f, mul = self.field, self.U.mul
        du, da = self.U.space.dim, self.A.space.dim
        ract = Pipe([du, da], f).block(1, 1, self.t_L)
        if side == "L":
            ract.permute([1, 0])
        along = self.s_L if side == "L" else self.t_L
        lact = Pipe([da, du], f).block(0, 1, along).block(0, 2, mul)
        return ract.block(0, 2, mul).map, lact.map

    def _grower(self, side):
        """The L or R tower as a BalancedTower, made on first use; its
        level n is the tower on n + 1 factors."""
        if side not in self._growers:
            f = self.field
            ract, lact = self._actions(side)
            self._growers[side] = BalancedTower(
                QuotientPresentation.trivial(self.U.space, f), ract,
                self.U.space, ract, lact, self.A.space, f,
                "%s.%s" % (self.label, side))
        return self._growers[side]

    def ltower(self, n):
        """Presentation of the n-fold coproduct-side tensor power (n >= 1)."""
        if n < 1:
            raise ValueError("the L tower starts at degree 1, not %d" % n)
        return self._grower("L")[n - 1]

    def rtower(self, n):
        """Presentation of the n-fold chain-side tensor power (n >= 1)."""
        if n < 1:
            raise ValueError("the R tower starts at degree 1, not %d" % n)
        return self._grower("R")[n - 1]

    @property
    def Delta_L(self):
        """Coproduct as a map into the degree-2 quotient."""
        return self.ltower(2).project(self.delta_lift)


class HopfAlgebroidData(LeftBialgebroidData):
    """A left bialgebroid with an involutive antipode."""

    def __init__(self, U, A, s_L, t_L, delta_lift, eps_L, S, label=""):
        super().__init__(U, A, s_L, t_L, delta_lift, eps_L, label)
        require_shape("S", S, U.space.dim, U.space.dim)
        self.S = S
        self._beta = None
        self._translation = None
        self._xi = {}   # Hopf-Galois chain maps, see cyclichom

    @property
    def eps_R(self):
        return self.eps_L @ self.S


def _report_descend(rep, name, free, src, dst):
    try:
        return descend(free, src, dst)
    except DescentFailure as exc:
        rep.add(name, False, witness=exc.witness)
        return None


def check_left_bialgebroid(b):
    rep = Report("left bialgebroid %s" % b.label)
    f = b.field
    U, A = b.U, b.A
    du, da = U.space.dim, A.space.dim
    idu = LinMap.identity(U.space, f)
    rep.extend(check_algebra(A), "base.")
    rep.extend(check_algebra(U), "total.")

    def mul_of(first, second, swapped=False):
        """x (x) y -> first(x) second(y), or first(y) second(x) if swapped."""
        pipe = Pipe([first.dom.dim, second.dom.dim], f)
        if swapped:
            pipe.permute([1, 0])
        return pipe.block(0, 1, first).block(1, 1, second) \
            .block(0, 2, U.mul).map

    def after_delta(slot, op, out_dims=None):
        return Pipe.after(b.delta_lift, [du, du]) \
            .block(slot, 1, op, out_dims).map

    # source is a unital algebra map, target a unital anti-algebra map
    rep.check_map_equal("source_multiplicative",
                        b.s_L @ A.mul, mul_of(b.s_L, b.s_L))
    rep.check_map_equal("target_antimultiplicative",
                        b.t_L @ A.mul, mul_of(b.t_L, b.t_L, swapped=True))
    rep.add("source_unital", b.s_L.apply(A.unit) == U.unit)
    rep.add("target_unital", b.t_L.apply(A.unit) == U.unit)
    rep.check_map_equal("source_target_commute", mul_of(b.s_L, b.t_L),
                        mul_of(b.t_L, b.s_L, swapped=True))
    lt2, lt3 = b.ltower(2), b.ltower(3)

    def takeuchi_defect(a):
        """u_(1) t(a) (x) u_(2) - u_(1) (x) u_(2) s(a) in U (x)_A U."""
        av = A.space.basis_vector(a, f)
        return lt2.project(after_delta(0, b.rmul(b.t_of(av)))
                           - after_delta(1, b.rmul(b.s_of(av))))

    # coproduct lands in the Takeuchi product
    rep.check_family("takeuchi_image", (
        keyed((a,), column_witness(takeuchi_defect(a))) for a in range(da)))
    rep.check_map_equal(
        "coassociativity",
        lt3.project(after_delta(0, b.delta_lift, [du, du])),
        lt3.project(after_delta(1, b.delta_lift, [du, du])))
    triv_u = QuotientPresentation.trivial(U.space, f)
    s_eps = b.s_L @ b.eps_L
    t_eps = b.t_L @ b.eps_L
    cu1_free = mul_of(s_eps, idu)
    cu1 = _report_descend(rep, "counit_left_descent", cu1_free, lt2, triv_u)
    if cu1 is not None:
        rep.check_map_equal("counit_left", cu1 @ b.Delta_L, idu)
    cu2_free = mul_of(t_eps, idu, swapped=True)
    cu2 = _report_descend(rep, "counit_right_descent", cu2_free, lt2, triv_u)
    if cu2 is not None:
        rep.check_map_equal("counit_right", cu2 @ b.Delta_L, idu)
    # coproduct is multiplicative on the Takeuchi product
    mul2_free = Pipe([du] * 4, f).permute([0, 2, 1, 3]) \
        .block(0, 2, U.mul).block(1, 2, U.mul).map
    rep.check_map_equal(
        "coproduct_multiplicative",
        lt2.project(mul2_free @ (b.delta_lift.tensor(b.delta_lift))),
        b.Delta_L @ U.mul)
    # ... and well defined there: u (x) (v (x) w) -> u_(1) v (x) u_(2) w
    # descends from U (x) (U (x)_A U)
    delta_mul2 = Pipe([du] * 3, f).block(0, 1, b.delta_lift, [du, du]) \
        .permute([0, 2, 1, 3]).block(0, 2, U.mul).block(1, 2, U.mul).map
    witness = descent_witness(delta_mul2, tensor_presentation(triv_u, lt2),
                              lt2)
    rep.add("coproduct_multiplication_well_defined", witness is None,
            witness)
    rep.add("coproduct_unital",
            b.Delta_L.apply(U.unit)
            == lt2.projection.apply(kron_vec(U.unit, U.unit, f)))
    rep.add("counit_unital", b.eps_L.apply(U.unit) == A.unit)
    rep.check_map_equal("counit_source", b.eps_L @ b.s_L,
                        LinMap.identity(A.space, f))
    rep.check_map_equal("counit_target", b.eps_L @ b.t_L,
                        LinMap.identity(A.space, f))
    e_mul = b.eps_L @ U.mul
    rep.check_map_equal("counit_source_absorb",
                        b.eps_L @ mul_of(idu, s_eps), e_mul)
    rep.check_map_equal("counit_target_absorb",
                        b.eps_L @ mul_of(idu, t_eps), e_mul)
    return rep


def check_hopf_algebroid(h):
    rep = check_left_bialgebroid(h)
    rep.subject = "hopf algebroid %s" % h.label
    return rep.extend(check_antipode(h))


def check_antipode(h):
    """The antipode checks of check_hopf_algebroid, which runs them after
    the bialgebroid checks of check_left_bialgebroid."""
    rep = Report("antipode %s" % h.label)
    f = h.field
    U = h.U
    idu = LinMap.identity(U.space, f)
    du = U.space.dim
    rep.check_map_equal(
        "antipode_antimultiplicative", h.S @ U.mul,
        Pipe([du, du], f).permute([1, 0]).block(0, 1, h.S).block(1, 1, h.S)
        .block(0, 2, U.mul).map)
    rep.add("antipode_unital", h.S.apply(U.unit) == U.unit)
    rep.check_map_equal("antipode_involutive", h.S @ h.S, idu)
    rep.check_map_equal("antipode_target_source", h.S @ h.t_L, h.s_L)
    lt2 = h.ltower(2)
    # S(u_(1))_(1) u_(2) (x) S(u_(1))_(2)  =  1 (x) S(u)
    delta_S = h.delta_lift @ h.S
    left1 = Pipe([du, du], f).block(0, 1, delta_S, [du, du]) \
        .permute([0, 2, 1]).block(0, 2, U.mul).map
    unit = U.unit_map()
    rhs1 = Pipe.after(h.S, [du]).block(0, 0, unit).map
    rep.check_map_equal("antipode_left_galois",
                        lt2.project(left1 @ h.delta_lift),
                        lt2.project(rhs1))
    witness = descent_witness(left1, lt2, lt2)
    rep.add("antipode_left_galois_well_defined", witness is None, witness)
    # S(u_(2))_(1) (x) S(u_(2))_(2) u_(1)  =  S(u) (x) 1
    left2 = Pipe([du, du], f).permute([1, 0]) \
        .block(0, 1, delta_S, [du, du]).block(1, 2, U.mul).map
    rhs2 = Pipe.after(h.S, [du]).block(1, 0, unit).map
    rep.check_map_equal("antipode_right_galois",
                        lt2.project(left2 @ h.delta_lift),
                        lt2.project(rhs2))
    witness = descent_witness(left2, lt2, lt2)
    rep.add("antipode_right_galois_well_defined", witness is None, witness)
    return rep


# -- Hopf-Galois map and the translation map -----------------------------

def hopf_galois_beta(h):
    """beta(u (x) v) = u_(1) (x) u_(2) v, from the chain-side square to the
    coproduct-side square."""
    if h._beta is not None:
        return h._beta
    du = h.U.space.dim
    free = Pipe([du, du], h.field).block(0, 1, h.delta_lift, [du, du]) \
        .block(1, 2, h.U.mul).map
    h._beta = descend(free, h.rtower(2), h.ltower(2))
    return h._beta


def translation_lift(h):
    """u -> u+ (x) u-, a lift into the free tensor square of the
    translation map u -> beta^{-1}(u (x) 1); computed once per algebroid."""
    if h._translation is None:
        beta = hopf_galois_beta(h)
        u_one = Pipe([h.U.space.dim], h.field) \
            .block(1, 0, h.U.unit_map()).map
        h._translation = h.rtower(2).section @ solve_many(
            beta, h.ltower(2).project(u_one))
    return h._translation


def check_hopf_galois(h):
    """beta bijective and inverse to the translation map."""
    rep = Report("hopf galois %s" % h.label)
    f = h.field
    try:
        beta = hopf_galois_beta(h)
    except DescentFailure as exc:
        return rep.add("beta_descends", False, witness=exc.witness)
    rep.add("beta_descends", True)
    lt2, rt2 = h.ltower(2), h.rtower(2)
    rep.add("square_dims_match", lt2.quotient.dim == rt2.quotient.dim)
    try:
        trans = rt2.project(translation_lift(h))
    except NoSolution:
        return rep.add("beta_surjective", False)
    rep.add("beta_surjective", True)
    # beta(translation(u)) = u (x) 1
    u_one = Pipe([h.U.space.dim], f).block(1, 0, h.U.unit_map()).map
    rep.check_map_equal("beta_translation_section", beta @ trans,
                        lt2.project(u_one))
    # injectivity: beta has full column rank since dims match and it is onto
    rep.add("beta_injective", rank(beta) == rt2.quotient.dim)
    return rep


# -- stable anti-Yetter-Drinfeld coefficients -----------------------------

def require_own_algebroid(h, p):
    """Coefficients live on the towers of their own algebroid: ValueError
    unless p is over h."""
    if p.h is not h:
        raise ValueError("the SAYD module %s is over %s, not over %s"
                         % (p.label, p.h.label, h.label))


class _Coefficients:
    """Coefficients X over `h` with a left A-action (`left_a_action`) and a
    left coaction lift X -> U (x) X (`coact_lift`), and the capped towers
    U (x)_A ... (x)_A U (x)_A X they live on."""

    def capped_tower(self, n):
        """Presentation of ltower(n) (x)_A X, X itself for n = 0 (cached).
        Level 1 is the coaction target U (x)_A X."""
        if n not in self._capped:
            x = QuotientPresentation.trivial(self.space, self.h.field)
            self._capped[n] = x if n == 0 else self.h._grower("L").cap(
                n - 1, x, self.left_a_action(),
                label="U%d_A_%s" % (n, self.label))
        return self._capped[n]

    def mixed2(self):
        """Presentation of U (x)_A X (coaction target)."""
        return self.capped_tower(1)


class SaydModuleData(_Coefficients):
    """Right module / left comodule coefficients for the cyclic theories.

    `presentation` is set when the space is itself a quotient of a free
    tensor product (see operadcyc.build_ayd_coefficient).
    """

    def __init__(self, h, space, action, coact_lift, label="",
                 presentation=None):
        self.h = h
        self.space = space
        du, dp = h.U.space.dim, space.dim
        require_shape("action", action, dp * du, dp)
        require_shape("coact_lift", coact_lift, dp, du * dp)
        self.action = action
        self.coact_lift = coact_lift
        self.label = label
        self.presentation = presentation
        self._capped = {}
        self._chain = None
        self._xi = {}   # Hopf-Galois chain maps with these coefficients

    def act_by(self, uvec):
        """p -> p u for a fixed element of the total algebra."""
        return fix_factor(self.action, uvec, self.space.dim)

    def left_a_action(self):
        """a . p = p t(a), as A (x) P -> P."""
        h = self.h
        return Pipe([h.A.space.dim, self.space.dim], h.field) \
            .block(0, 1, h.t_L).permute([1, 0]).block(0, 2, self.action).map

    def right_arrow_action(self):
        """a > p = p t(a), as P (x) A -> P (left slot of chain towers)."""
        h = self.h
        return Pipe([self.space.dim, h.A.space.dim], h.field) \
            .block(1, 1, h.t_L).block(0, 2, self.action).map

    def chain_tower(self, n):
        """Presentation of P (x)_A U (x)_A ... (x)_A U with n copies of U,
        balanced as the R tower (cached)."""
        if self._chain is None:
            h = self.h
            r = h._grower("R")
            self._chain = BalancedTower(
                QuotientPresentation.trivial(self.space, h.field),
                self.right_arrow_action(), h.U.space, r.factor_ract,
                r.factor_lact, h.A.space, h.field, h.label + ".P")
        return self._chain[n]


def check_sayd(p):
    h = p.h
    f = h.field
    rep = Report("sayd %s" % p.label)
    idp = LinMap.identity(p.space, f)
    rep.extend(check_module(ModuleActionData(h.U, p.space, p.action, "right",
                                             p.label)), "module.")
    m2 = p.mixed2()
    _check_coaction(rep, p)
    da = h.A.space.dim

    def compatible(a, bidx):
        """p s(a) t(b) against b eps(p_(-1) s(a)) p_(0)."""
        av = h.A.space.basis_vector(a, f)
        bv = h.A.space.basis_vector(bidx, f)
        lhs = p.act_by(h.t_of(bv)) @ p.act_by(h.s_of(av))
        scal = h.A.left_mult(bv) @ (h.eps_L @ h.rmul(h.s_of(av)))
        rhs = _apply_scalar_action(p, scal) @ p.coact_lift
        return keyed((a, bidx), difference_witness(lhs, rhs))

    rep.check_family("module_comodule_compatible", (
        compatible(a, bidx) for a in range(da) for bidx in range(da)))
    # anti-Yetter-Drinfeld condition; it needs the translation map, which
    # exists only where beta descends and is onto (check_hopf_galois)
    du, dp = h.U.space.dim, p.space.dim
    try:
        trans = translation_lift(h)
    except (DescentFailure, NoSolution) as exc:
        rep.add("anti_yetter_drinfeld", False,
                witness=getattr(exc, "witness", None))
    else:
        lhs = m2.project(p.coact_lift @ p.action)
        pipe = Pipe([dp, du], f).block(1, 1, trans, [du, du])
        pipe.block(1, 1, h.delta_lift, [du, du])
        pipe.block(0, 1, p.coact_lift, [du, dp])
        pipe.permute([4, 0, 2, 1, 3]).block(0, 3, h.U.mul_n(3))
        pipe.block(1, 2, p.action)
        rep.check_map_equal("anti_yetter_drinfeld", lhs,
                            m2.project(pipe.map))
    # stability
    stab = Pipe.after(p.coact_lift, [du, dp]).permute([1, 0])
    rep.check_map_equal("stability", stab.block(0, 2, p.action).map, idp)
    return rep


def _check_coaction(rep, x):
    """The counit law of the left coaction lift X -> U (x) X of x,
    eps(x_(-1)) . x_(0) = x with the A-action of `left_a_action`, and its
    coassociativity, checked in U (x)_A U (x)_A X."""
    h = x.h
    du, dx = h.U.space.dim, x.space.dim
    rep.check_map_equal(
        "comodule_counit",
        _apply_scalar_action(x, h.eps_L) @ x.coact_lift,
        LinMap.identity(x.space, h.field))
    pres3 = x.capped_tower(2)

    def expand(slot, op, out_dims):
        return pres3.project(Pipe.after(x.coact_lift, [du, dx])
                             .block(slot, 1, op, out_dims).map)

    rep.check_map_equal("comodule_coassociative",
                        expand(0, h.delta_lift, [du, du]),
                        expand(1, x.coact_lift, [du, dx]))


def _apply_scalar_action(x, scal):
    """From scal : U -> A build U (x) X -> X, (u, q) -> scal(u) . q with the
    A-action of `left_a_action`."""
    return Pipe([scal.dom.dim, x.space.dim], scal.field) \
        .block(0, 1, scal).block(0, 2, x.left_a_action()).map


# -- Yetter-Drinfeld module algebras --------------------------------------

class YdAlgebraData(_Coefficients):
    """A braided commutative algebra in the category of Yetter-Drinfeld
    modules (left action, left coaction given by a lift)."""

    def __init__(self, h, Z, action, coact_lift, label=""):
        self.h = h
        self.Z = Z
        self.space = Z.space
        du, dz = h.U.space.dim, Z.space.dim
        require_shape("action", action, du * dz, dz)
        require_shape("coact_lift", coact_lift, dz, du * dz)
        self.action = action
        self.coact_lift = coact_lift
        self.label = label
        self._capped = {}

    def act_by(self, uvec):
        return fix_factor(self.action, uvec)

    def left_a_action(self):
        """a . z = s(a) z, as A (x) Z -> Z."""
        h = self.h
        return Pipe([h.A.space.dim, self.space.dim], h.field) \
            .block(0, 1, h.s_L).block(0, 2, self.action).map


def check_yd_algebra(y):
    h = y.h
    f = h.field
    rep = Report("yd algebra %s" % y.label)
    rep.extend(check_algebra(y.Z), "algebra.")
    rep.extend(check_module(ModuleActionData(h.U, y.Z.space, y.action, "left",
                                             y.label)), "module.")
    m2 = y.mixed2()
    _check_coaction(rep, y)
    du, dz = h.U.space.dim, y.Z.space.dim
    # u (z z') = (u_(1) z)(u_(2) z')
    lhs = Pipe([du, dz, dz], f).block(1, 2, y.Z.mul).block(0, 2, y.action)
    rhs = Pipe([du, dz, dz], f).block(0, 1, h.delta_lift, [du, du])
    rhs.permute([0, 2, 1, 3]).block(0, 2, y.action).block(1, 2, y.action)
    rep.check_map_equal("module_algebra", lhs.map,
                        rhs.block(0, 2, y.Z.mul).map)
    unit_line = Pipe([du], f).block(1, 0, y.Z.unit_map()).block(0, 2, y.action)
    cols = [y.act_by(h.s_of(h.eps_L.column(j))).apply(y.Z.unit)
            for j in range(du)]
    rep.check_map_equal("unit_invariant", unit_line.map,
                        LinMap.from_columns(Space(du), y.Z.space, f, cols))
    unit_coact = m2.projection.apply(
        kron_vec(h.U.unit, y.Z.unit, f))
    rep.add("unit_coinvariant",
            m2.projection.apply(y.coact_lift.apply(y.Z.unit)) == unit_coact)
    step = Pipe([dz, dz], f).block(1, 1, y.coact_lift, [du, dz])
    step.permute([1, 0, 2]).block(0, 2, y.action).block(0, 2, y.Z.mul)
    rep.check_map_equal("braided_commutative", y.Z.mul, step.map)
    return rep


# -- gallery --------------------------------------------------------------

class GalleryEntry:
    def __init__(self, hopf, sayd):
        self.hopf = hopf
        self.sayd = sayd


def scalar_algebra(field, label="k"):
    sp = Space(1, label)
    return AlgebraData(sp, LinMap(Space(1), sp, field, {(0, 0): field.one}),
                       (field.one,), field, label)


def group_algebra(n, field, label=None):
    """The group algebra of Z/n over the base field."""
    sp = Space(n, label or "k[C%d]" % n)
    entries = {}
    for i in range(n):
        for j in range(n):
            entries[((i + j) % n, i * n + j)] = field.one
    mul = LinMap(tensor_space(sp, sp), sp, field, entries)
    unit = tuple(field.one if i == 0 else field.zero for i in range(n))
    return AlgebraData(sp, mul, unit, field, label or "k[C%d]" % n)


def dual_numbers(field):
    """k[e]/(e^2), basis (1, e)."""
    sp = Space(2, "k[e]/(e2)")
    f = field
    entries = {(0, 0): f.one, (1, 1): f.one, (1, 2): f.one}
    mul = LinMap(tensor_space(sp, sp), sp, f, entries)
    return AlgebraData(sp, mul, (f.one, f.zero), f, "k[e]/(e2)")


def split_pair_algebra(field):
    """k x k with idempotent basis."""
    sp = Space(2, "kxk")
    f = field
    entries = {(0, 0): f.one, (1, 3): f.one}
    mul = LinMap(tensor_space(sp, sp), sp, f, entries)
    return AlgebraData(sp, mul, (f.one, f.one), f, "kxk")


def trivial_hopf_algebroid(field):
    A = scalar_algebra(field)
    one = LinMap.identity(A.space, field)
    delta = LinMap(A.space, Space(1), field, {(0, 0): field.one})
    return HopfAlgebroidData(A, A, one, one, delta, one, one, label="trivial")


def group_hopf_algebroid(n, field):
    U = group_algebra(n, field)
    A = scalar_algebra(field)
    f = field
    s = LinMap.from_columns(A.space, U.space, f, [U.unit])
    delta = LinMap(U.space, Space(n * n), f,
                   {(i * n + i, i): f.one for i in range(n)})
    eps = LinMap(U.space, A.space, f, {(0, i): f.one for i in range(n)})
    S = LinMap(U.space, U.space, f,
               {((n - i) % n, i): f.one for i in range(n)})
    return HopfAlgebroidData(U, A, s, s, delta, eps, S,
                             label="k[C%d]" % n)


def pair_hopf_algebroid(A, label=""):
    """The pair construction on a commutative base algebra."""
    f = A.field
    d = A.space.dim
    U = A.tensor_with(A, label=(label or "pair(%s)" % A.label))
    s_cols = []
    t_cols = []
    for i in range(d):
        ei = A.space.basis_vector(i, f)
        s_cols.append(kron_vec(ei, A.unit, f))
        t_cols.append(kron_vec(A.unit, ei, f))
    s_L = LinMap.from_columns(A.space, U.space, f, s_cols)
    t_L = LinMap.from_columns(A.space, U.space, f, t_cols)
    delta_cols = []
    for i in range(d):
        for j in range(d):
            u1 = kron_vec(A.space.basis_vector(i, f), A.unit, f)
            u2 = kron_vec(A.unit, A.space.basis_vector(j, f), f)
            delta_cols.append(kron_vec(u1, u2, f))
    delta = LinMap.from_columns(U.space, Space(d ** 4), f, delta_cols)
    eps = A.mul
    S = swap_map(A.space, A.space, f)
    return HopfAlgebroidData(U, A, s_L, t_L, delta, eps, S,
                             label=label or "pair(%s)" % A.label)


class NotScalarBase(ValueError):
    """A scalar coefficient preset over a Hopf algebroid whose base algebra
    is not the ground field."""


def _require_scalar_base(h, what):
    if h.A.space.dim != 1:
        raise NotScalarBase(
            "the scalar %s needs a one-dimensional base algebra; %s has "
            "base dimension %d" % (what, h.label, h.A.space.dim))


class NotTheBase(ValueError):
    """A base-algebra coefficient preset given an algebra that is not the
    base of its Hopf algebroid."""


def base_sayd(h, label=""):
    """The base algebra A as a SAYD module: P = A, p u = eps_L(s(p) u),
    coaction p -> s(p) (x) 1 (Kowalzig-Kraehmer, HHA 13, 2011)."""
    f = h.field
    da, du = h.A.space.dim, h.U.space.dim
    P = Space(da, "P")
    action = Pipe([da, du], f).block(0, 1, h.s_L).block(0, 2, h.U.mul) \
        .block(0, 1, h.eps_L).map
    coact = Pipe([da], f).block(0, 1, h.s_L).block(1, 0, h.A.unit_map()).map
    return SaydModuleData(h, P, action, coact, label or h.label + ".sayd")


def scalar_sayd(h, label=""):
    """P = k with counit action and trivial coaction (scalar base only;
    NotScalarBase otherwise)."""
    _require_scalar_base(h, "SAYD module")
    return base_sayd(h, label)


def base_sayd_for_pair(h, A):
    """base_sayd(h) for the base algebra A of h: the same multiplication and
    unit (NotTheBase otherwise).  On a pair algebroid p (a (x) b) = a p b."""
    B = h.A
    if A is not B and not (A.space.dim == B.space.dim and A.mul == B.mul
                           and tuple(A.unit) == tuple(B.unit)):
        raise NotTheBase("the algebra %s is not the base algebra of %s"
                         % (A.label, h.label))
    return base_sayd(h)


def scalar_yd_algebra(h):
    """Z = k with counit action and trivial coaction (scalar base only;
    NotScalarBase otherwise): the maps of base_sayd(h), whose P is k."""
    _require_scalar_base(h, "YD algebra")
    k = base_sayd(h)
    return YdAlgebraData(h, scalar_algebra(h.field, "Z"), k.action,
                         k.coact_lift, label=h.label + ".Z")


def gallery(field=None):
    """The standing examples used throughout the test suite."""
    from .exactlin import QQ
    f = field or QQ
    out = {}
    triv = trivial_hopf_algebroid(f)
    out["trivial"] = GalleryEntry(triv, scalar_sayd(triv))
    c2 = group_hopf_algebroid(2, f)
    out["group_c2"] = GalleryEntry(c2, scalar_sayd(c2))
    c3 = group_hopf_algebroid(3, f)
    out["group_c3"] = GalleryEntry(c3, scalar_sayd(c3))
    dn = dual_numbers(f)
    pd = pair_hopf_algebroid(dn, "pair(k[e])")
    out["pair_dual"] = GalleryEntry(pd, base_sayd_for_pair(pd, dn))
    sp = split_pair_algebra(f)
    ps = pair_hopf_algebroid(sp, "pair(kxk)")
    out["pair_split"] = GalleryEntry(ps, base_sayd_for_pair(ps, sp))
    return out
