"""Measurings between Hopf algebroids and between their coefficients.

A measuring is a coalgebra C together with compatible actions on the total
and base algebras of the source, valued in the target.  Comodule measurings
add a C-comodule D acting between SAYD coefficients; YD measurings act
between Yetter-Drinfeld module algebras over a fixed Hopf algebroid.
"""

from .exactlin import (
    LinMap, Pipe, Space, descent_witness, difference_witness, fix_factor,
    pack_slices, tensor_space,
)
from .algcore import (
    CoalgebraData, ComoduleData, Report, basis_slices, check_comodule,
    check_sweedler_measuring, keyed, sweedler_sum,
)
from .hopfalgebroid import YdAlgebraData, require_own_algebroid


class MeasuringData:
    """(C, Psi, psi): C measures the source Hopf algebroid into the target.

    Psi : C (x) U -> U',  psi : C (x) A -> A'.
    """

    def __init__(self, C, src, dst, Psi, psi, label=""):
        self.C = C
        self.src = src
        self.dst = dst
        dc = C.space.dim
        assert Psi.dom.dim == dc * src.U.space.dim
        assert Psi.cod.dim == dst.U.space.dim
        assert psi.dom.dim == dc * src.A.space.dim
        assert psi.cod.dim == dst.A.space.dim
        self.Psi = Psi
        self.psi = psi
        self.label = label

    def Psi_of(self, xvec):
        return fix_factor(self.Psi, xvec)

    def psi_of(self, xvec):
        return fix_factor(self.psi, xvec)

    def induced_free(self, xvec, n):
        """Slotwise action through the iterated coproduct of x, on the free
        tensor power.  n = 0 gives the base-algebra action."""
        if n == 0:
            return self.psi_of(xvec)
        terms = self.C.iterated_comul_vector(tuple(xvec), n)
        return sweedler_sum(terms,
                            [basis_slices(self.Psi, self.C.space.dim)] * n)


def check_hopf_algebroid_measuring(m):
    rep = Report("measuring %s" % m.label)
    f = m.C.field
    src, dst = m.src, m.dst
    rep.extend(check_sweedler_measuring(m.C, src.U, dst.U, m.Psi), "total.")
    rep.extend(check_sweedler_measuring(m.C, src.A, dst.A, m.psi), "base.")

    def acting(outer, op):
        """x (x) v -> outer(x (x) op(v))."""
        return Pipe([m.C.space.dim, op.dom.dim], f).block(1, 1, op) \
            .block(0, 2, outer).map

    rep.check_map_equal("source_compatible",
                        acting(m.Psi, src.s_L), dst.s_L @ m.psi)
    rep.check_map_equal("target_compatible",
                        acting(m.Psi, src.t_L), dst.t_L @ m.psi)
    rep.check_map_equal("antipode_compatible",
                        acting(m.Psi, src.S), dst.S @ m.Psi)
    rep.check_map_equal("counit_compatible",
                        acting(m.psi, src.eps_L), dst.eps_L @ m.Psi)
    rep.check_map_equal("right_counit_compatible",
                        acting(m.psi, src.eps_R), dst.eps_R @ m.Psi)
    lt2s, lt2d = src.ltower(2), dst.ltower(2)
    rt2s, rt2d = src.rtower(2), dst.rtower(2)
    xs = [m.C.space.basis_vector(x, f) for x in range(m.C.space.dim)]
    free2 = [m.induced_free(xv, 2) for xv in xs]
    rep.check_family("coproduct_compatible", (
        keyed((x,), difference_witness(
            lt2d.project(dst.delta_lift @ m.Psi_of(xv)),
            lt2d.project(free2[x] @ src.delta_lift)))
        for x, xv in enumerate(xs)))
    rep.check_family("relations_preserved", (
        keyed((x, name), descent_witness(free2[x], s_pres, d_pres))
        for x in range(len(xs))
        for name, s_pres, d_pres in (("L", lt2s, lt2d), ("R", rt2s, rt2d))))
    return rep


def compose_measurings(m1, m2, label=""):
    """Measuring on C1 (x) C2 from source of m1 to target of m2:
    (x (x) x')(u) = x'(x(u))."""
    assert m1.dst is m2.src or (
        m1.dst.U.space.dim == m2.src.U.space.dim
        and m1.dst.A.space.dim == m2.src.A.space.dim)
    f = m1.C.field
    C = m1.C.tensor_with(m2.C)
    pairs = [(m1.C.space.basis_vector(i, f), m2.C.space.basis_vector(j, f))
             for i in range(m1.C.space.dim) for j in range(m2.C.space.dim)]
    Psi = pack_slices([m2.Psi_of(y) @ m1.Psi_of(x) for x, y in pairs], f)
    psi = pack_slices([m2.psi_of(y) @ m1.psi_of(x) for x, y in pairs], f)
    return MeasuringData(C, m1.src, m2.dst, Psi, psi,
                         label or "%s;%s" % (m1.label, m2.label))


class EnvelopingMeasuring:
    def __init__(self, C, Ae_src, Ae_dst, psi_e):
        self.C = C
        self.Ae_src = Ae_src
        self.Ae_dst = Ae_dst
        self.psi_e = psi_e


def enveloping_measuring(C, src_A, dst_A, psi):
    """psi^e(x)(a (x) b) = psi(x_(1))(a) (x) psi(x_(2))(b).

    Requires C cocommutative; raises ValueError otherwise.
    """
    if not C.is_cocommutative():
        raise ValueError("enveloping measuring needs a cocommutative coalgebra")
    f = C.field
    Ae_src = src_A.tensor_with(src_A.opposite())
    Ae_dst = dst_A.tensor_with(dst_A.opposite())
    da = src_A.space.dim
    dc = C.space.dim
    psi_e = Pipe([dc, da, da], f).block(0, 1, C.comul, [dc, dc])
    psi_e.permute([0, 2, 1, 3]).block(0, 2, psi).block(1, 2, psi)
    return EnvelopingMeasuring(C, Ae_src, Ae_dst, psi_e.map)


def check_enveloping_measuring(env):
    return check_sweedler_measuring(env.C, env.Ae_src, env.Ae_dst, env.psi_e)


class ComoduleMeasuringData:
    """A comodule D over the measuring coalgebra acting between SAYD
    coefficients: Omega : D (x) P -> P'."""

    def __init__(self, base, D, src_p, dst_p, Omega, label=""):
        assert isinstance(base, MeasuringData)
        assert D.coalgebra is base.C or D.coalgebra.space.dim == base.C.space.dim
        assert D.side == "right"
        require_own_algebroid(base.src, src_p)
        require_own_algebroid(base.dst, dst_p)
        self.base = base
        self.D = D
        self.src_p = src_p
        self.dst_p = dst_p
        dd = D.space.dim
        assert Omega.dom.dim == dd * src_p.space.dim
        assert Omega.cod.dim == dst_p.space.dim
        self.Omega = Omega
        self.label = label

    def Omega_of(self, yvec):
        return fix_factor(self.Omega, yvec)

    def induced_coeff_free(self, yvec, n, p_position):
        """Slotwise action Omega(y_(0)) (x) Psi(y_(1)) ... (x) Psi(y_(n)) on
        the free space, with the coefficient slot first ("front") or last
        ("back")."""
        terms = self.D.iterated_coaction_vector(tuple(yvec), n)
        omegas = basis_slices(self.Omega, self.D.space.dim)
        psis = [basis_slices(self.base.Psi, self.base.C.space.dim)] * n
        if p_position == "front":
            return sweedler_sum(terms, [omegas] + psis)
        return sweedler_sum({k[1:] + k[:1]: c for k, c in terms.items()},
                            psis + [omegas])


def check_sayd_comodule_measuring(cm):
    rep = Report("comodule measuring %s" % cm.label)
    f = cm.base.C.field
    rep.extend(check_hopf_algebroid_measuring(cm.base), "base.")
    rep.extend(check_comodule(cm.D), "comodule.")
    rep.add("coalgebra_cocommutative", cm.base.C.is_cocommutative())
    src, dst = cm.base.src, cm.base.dst
    sp, dp = cm.src_p, cm.dst_p
    dd = cm.D.space.dim
    dpp = sp.space.dim
    du = src.U.space.dim
    dc = cm.base.C.space.dim
    # Omega(y)(p u) = Omega(y_(0))(p) Psi(y_(1))(u)
    lhs = Pipe([dd, dpp, du], f).block(1, 2, sp.action).block(0, 2, cm.Omega)
    rhs = Pipe([dd, dpp, du], f).block(0, 1, cm.D.coaction, [dd, dc])
    rhs.permute([0, 2, 1, 3]).block(0, 2, cm.Omega).block(1, 2, cm.base.Psi)
    rep.check_map_equal("module_measuring", lhs.map,
                        rhs.block(0, 2, dp.action).map)
    # enveloping-action measuring: Omega(y)(p s(a) t(b)) factors through psi^e
    da = src.A.space.dim
    lhs2 = Pipe([dd, dpp, da, da], f)
    rhs2 = Pipe([dd, dpp, da, da], f).block(0, 1, cm.D.coaction, [dd, dc])
    rhs2.block(1, 1, cm.base.C.comul, [dc, dc]).permute([0, 3, 1, 4, 2, 5])
    rhs2.block(0, 2, cm.Omega).block(1, 2, cm.base.psi)
    rhs2.block(2, 2, cm.base.psi)
    for s_or_t, s_or_t2 in ((src.s_L, dst.s_L), (src.t_L, dst.t_L)):
        lhs2.block(2, 1, s_or_t).block(1, 2, sp.action)
        rhs2.block(1, 1, s_or_t2).block(0, 2, dp.action)
    rep.check_map_equal("enveloping_measuring",
                        lhs2.block(0, 2, cm.Omega).map, rhs2.map)
    # coaction compatibility through the mixed map
    m2s, m2d = sp.mixed2(), dp.mixed2()
    ys = [cm.D.space.basis_vector(y, f) for y in range(dd)]
    mixed = [cm.induced_coeff_free(yv, 1, "back") for yv in ys]
    rep.check_family("coaction_compatible", (
        keyed((y,), difference_witness(
            m2d.project(dp.coact_lift @ cm.Omega_of(yv)),
            m2d.project(mixed[y] @ sp.coact_lift)))
        for y, yv in enumerate(ys)))
    rep.check_family("mixed_map_well_defined", (
        keyed((y,), descent_witness(mf, m2s, m2d))
        for y, mf in enumerate(mixed)))
    return rep


def compose_comodule_measurings(cm1, cm2, label=""):
    base = compose_measurings(cm1.base, cm2.base)
    f = base.C.field
    D1, D2 = cm1.D, cm2.D
    dd1, dd2 = D1.space.dim, D2.space.dim
    dc1, dc2 = cm1.base.C.space.dim, cm2.base.C.space.dim
    coaction = Pipe([dd1, dd2], f).block(0, 1, D1.coaction, [dd1, dc1])
    coaction.block(2, 1, D2.coaction, [dd2, dc2]).permute([0, 2, 1, 3])
    D = ComoduleData(base.C, tensor_space(D1.space, D2.space), coaction.map,
                     "right", label="%sx%s" % (D1.label, D2.label))
    Omega = pack_slices([cm2.Omega_of(D2.space.basis_vector(j, f))
                         @ cm1.Omega_of(D1.space.basis_vector(i, f))
                         for i in range(dd1) for j in range(dd2)], f)
    return ComoduleMeasuringData(base, D, cm1.src_p, cm2.dst_p, Omega,
                                 label or "%s;%s" % (cm1.label, cm2.label))


class YdMeasuringData:
    """C-measuring between Yetter-Drinfeld module algebras over one fixed
    Hopf algebroid: psi : C (x) Z -> Z'."""

    def __init__(self, C, src_z, dst_z, psi, label=""):
        assert isinstance(src_z, YdAlgebraData)
        assert isinstance(dst_z, YdAlgebraData)
        assert src_z.h is dst_z.h
        self.C = C
        self.src_z = src_z
        self.dst_z = dst_z
        assert psi.dom.dim == C.space.dim * src_z.Z.space.dim
        assert psi.cod.dim == dst_z.Z.space.dim
        self.psi = psi
        self.label = label

    def psi_of(self, xvec):
        return fix_factor(self.psi, xvec)


def check_yd_measuring(ym):
    rep = Report("yd measuring %s" % ym.label)
    f = ym.C.field
    h = ym.src_z.h
    rep.extend(check_sweedler_measuring(ym.C, ym.src_z.Z, ym.dst_z.Z, ym.psi),
               "algebra.")
    dc, du = ym.C.space.dim, h.U.space.dim
    dz = ym.src_z.Z.space.dim
    # x(u z) = u x(z)
    lhs = Pipe([dc, du, dz], f).block(1, 2, ym.src_z.action) \
        .block(0, 2, ym.psi).map
    rhs = Pipe([dc, du, dz], f).permute([1, 0, 2]).block(1, 2, ym.psi) \
        .block(0, 2, ym.dst_z.action).map
    rep.check_map_equal("equivariance", lhs, rhs)
    # coaction: x(z)_(-1) (x) x(z)_(0) = z_(-1) (x) x(z_(0))
    m2s, m2d = ym.src_z.mixed2(), ym.dst_z.mixed2()
    pxs = [ym.psi_of(ym.C.space.basis_vector(x, f)) for x in range(dc)]
    rep.check_family("coaction_compatible", (
        keyed((x,), difference_witness(
            m2d.project(ym.dst_z.coact_lift @ px),
            m2d.project(Pipe.after(ym.src_z.coact_lift, [du, dz])
                        .block(1, 1, px).map)))
        for x, px in enumerate(pxs)))
    rep.check_family("coaction_map_well_defined", (
        keyed((x,), descent_witness(Pipe([du, dz], f).block(1, 1, px).map,
                                    m2s, m2d))
        for x, px in enumerate(pxs)))
    return rep


# -- stock coalgebras and measurings used across the test suite ----------

def point_coalgebra(field, label="k"):
    sp = Space(1, label)
    return CoalgebraData(sp, LinMap(sp, Space(1), field, {(0, 0): field.one}),
                         LinMap(sp, Space(1), field, {(0, 0): field.one}),
                         field, label)


def primitive_pair_coalgebra(field, label="C(g,x)"):
    """span(g, x): g grouplike, x primitive over g; cocommutative."""
    sp = Space(2, label)
    comul = LinMap(sp, Space(4), field, {
        (0, 0): field.one,
        (1, 1): field.one,
        (2, 1): field.one,
    })
    counit = LinMap(sp, Space(1), field, {(0, 0): field.one})
    return CoalgebraData(sp, comul, counit, field, label)


def identity_measuring(h):
    """The point coalgebra acting by the identity."""
    f = h.field
    C = point_coalgebra(f)
    Psi = LinMap.identity(h.U.space, f)
    psi = LinMap.identity(h.A.space, f)
    return MeasuringData(C, h, h, Psi, psi, label="id(%s)" % h.label)


def derivation_pair_measuring(h, delta, label=""):
    """(g, x)-measuring of a pair algebroid by a base derivation:
    g acts as the identity, x as delta (x) 1 + 1 (x) delta."""
    f = h.field
    C = primitive_pair_coalgebra(f)
    psi = pack_slices([LinMap.identity(h.A.space, f), delta], f)
    Psi = enveloping_measuring(C, h.A, h.A, psi).psi_e
    return MeasuringData(C, h, h, Psi, psi,
                         label or "deriv(%s)" % h.label)


def zero_primitive_measuring(h, label=""):
    """(g, x)-measuring with x acting by zero; valid for any Hopf algebroid."""
    f = h.field
    C = primitive_pair_coalgebra(f)
    Psi = pack_slices([LinMap.identity(h.U.space, f),
                       LinMap.zero(h.U.space, h.U.space, f)], f)
    psi = pack_slices([LinMap.identity(h.A.space, f),
                       LinMap.zero(h.A.space, h.A.space, f)], f)
    return MeasuringData(C, h, h, Psi, psi, label or "prim0(%s)" % h.label)


def euler_derivation(A):
    """The Euler derivation on the dual numbers: 1 -> 0, e -> e."""
    f = A.field
    return LinMap(A.space, A.space, f, {(1, 1): f.one})


def self_comodule(C):
    """C as a right comodule over itself through the coproduct."""
    return ComoduleData(C, C.space, C.comul, "right", label=C.label + ".D")


def derivation_pair_comodule_measuring(m, p, label=""):
    """Comodule measuring over a (g, x) pair measuring: D = C,
    Omega(g) = id, Omega(x) = the base derivation on P = A."""
    f = m.C.field
    D = self_comodule(m.C)
    Omega = pack_slices([m.psi_of((f.one, f.zero)),
                         m.psi_of((f.zero, f.one))], f)
    return ComoduleMeasuringData(m, D, p, p, Omega,
                                 label or "deriv.coeff(%s)" % m.label)


def zero_primitive_comodule_measuring(m, p, label=""):
    """Comodule measuring over a (g, x) measuring with both x-slices zero."""
    f = m.C.field
    D = self_comodule(m.C)
    Omega = pack_slices([LinMap.identity(p.space, f),
                         LinMap.zero(p.space, p.space, f)], f)
    return ComoduleMeasuringData(m, D, p, p, Omega,
                                 label or "prim0.coeff(%s)" % m.label)


def identity_comodule_measuring(h, p, label=""):
    m = identity_measuring(h)
    f = h.field
    D = self_comodule(m.C)
    Omega = LinMap.identity(p.space, f)
    return ComoduleMeasuringData(m, D, p, p, Omega,
                                 label or "id.coeff(%s)" % h.label)
