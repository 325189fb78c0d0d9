"""Algebras, coalgebras, (co)module actions, and balanced tensor products.

Structures are plain structure-constant containers over an exact field.
Every axiom check returns a Report listing named pass/fail results with a
witness (basis index or offending column) on failure.
"""

from .exactlin import (
    LinMap, Pipe, Space, QuotientPresentation, column_witness, combine,
    difference_witness, tensor_space, permute_factors, fix_factor, kron_vec,
    quotient_by,
)


class CheckResult:
    __slots__ = ("name", "passed", "witness")

    def __init__(self, name, passed, witness=None):
        self.name = name
        self.passed = passed
        self.witness = witness

    def __repr__(self):
        tag = "ok" if self.passed else "FAIL"
        return "<%s %s%s>" % (self.name, tag,
                              "" if self.passed else " witness=%r" % (self.witness,))


class Report:
    def __init__(self, subject=""):
        self.subject = subject
        self.results = []

    def add(self, name, passed, witness=None):
        self.results.append(CheckResult(name, bool(passed), witness))
        return self

    def check_family(self, name, witnesses):
        """One check over a family of identities, checked member by member.
        `witnesses` yields None for each member that holds and a witness
        for each that fails; the check passes when every item is None, and
        otherwise its witness is the first other item.  The whole iterable
        is read, so counters kept while it is produced stay exact."""
        first = None
        for w in witnesses:
            if first is None:
                first = w
        return self.add(name, first is None, first)

    def check_map_equal(self, name, lhs, rhs):
        return self.check_family(name, [difference_witness(lhs, rhs)])

    def check_map_zero(self, name, m):
        return self.check_family(name, [column_witness(m)])

    def extend(self, other, prefix=""):
        for r in other.results:
            self.results.append(CheckResult(prefix + r.name, r.passed, r.witness))
        return self

    @property
    def ok(self):
        return all(r.passed for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.passed]

    def __repr__(self):
        return "Report(%s: %d checks, %d failed)" % (
            self.subject, len(self.results), len(self.failures()))


def require_shape(name, m, dom, cod):
    """ValueError unless the map m is dom -> cod (dimensions)."""
    if (m.dom.dim, m.cod.dim) != (dom, cod):
        raise ValueError("%s is %d -> %d, needs %d -> %d"
                         % (name, m.dom.dim, m.cod.dim, dom, cod))


def _require_side(side):
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right', not %r" % (side,))


def keyed(key, witness):
    """The witness key + witness of a family member named by the tuple
    `key`, or None when the member holds (witness None)."""
    return None if witness is None else key + witness


def swap_map(a, b, field):
    return permute_factors([a.dim, b.dim], [1, 0], field)


class AlgebraData:
    """A unital associative algebra given by its multiplication tensor."""

    def __init__(self, space, mul, unit, field, label=""):
        require_shape("mul", mul, space.dim * space.dim, space.dim)
        if len(unit) != space.dim:
            raise ValueError("unit has %d coordinates, needs %d"
                             % (len(unit), space.dim))
        self.space = space
        self.mul = mul
        self.unit = tuple(unit)
        self.field = field
        self.label = label or space.label
        self._mul_n = {}

    def unit_map(self):
        return LinMap.from_columns(Space(1, "k"), self.space, self.field,
                                   [self.unit])

    def left_mult(self, vec):
        """The operator v |-> (vec * v)."""
        return fix_factor(self.mul, vec)

    def right_mult(self, vec):
        """The operator v |-> (v * vec)."""
        return fix_factor(self.mul, vec, self.space.dim)

    def mul_n(self, k):
        """Left-folded multiplication map on k tensor factors (cached)."""
        if k < 1:
            raise ValueError("mul_n needs k >= 1, not %d" % k)
        if k not in self._mul_n:
            pipe = Pipe([self.space.dim] * k, self.field)
            for _ in range(k - 1):
                pipe.block(0, 2, self.mul)
            self._mul_n[k] = pipe.map
        return self._mul_n[k]

    def opposite(self):
        d = self.space.dim
        mul = Pipe([d, d], self.field).permute([1, 0]).block(0, 2, self.mul)
        return AlgebraData(self.space, mul.map, self.unit, self.field,
                           label=self.label + "^op")

    def tensor_with(self, other, label=""):
        """Componentwise algebra structure on the tensor product."""
        f = self.field
        a, b = self.space, other.space
        mul = Pipe([a.dim, a.dim, b.dim, b.dim], f).permute([0, 2, 1, 3])
        mul.block(0, 2, self.mul).block(1, 2, other.mul)
        unit = kron_vec(self.unit, other.unit, f)
        return AlgebraData(tensor_space(a, b), mul.map, unit, f,
                           label=label or "%sx%s" % (self.label, other.label))


def check_algebra(a, commutative=False):
    rep = Report("algebra %s" % a.label)
    f = a.field
    d = a.space.dim
    ident = LinMap.identity(a.space, f)
    rep.check_map_equal(
        "associativity",
        Pipe([d] * 3, f).block(0, 2, a.mul).block(0, 2, a.mul).map,
        Pipe([d] * 3, f).block(1, 2, a.mul).block(0, 2, a.mul).map)
    unit = a.unit_map()
    rep.check_map_equal(
        "left_unit", Pipe([d], f).block(0, 0, unit).block(0, 2, a.mul).map,
        ident)
    rep.check_map_equal(
        "right_unit", Pipe([d], f).block(1, 0, unit).block(0, 2, a.mul).map,
        ident)
    if commutative:
        rep.check_map_equal(
            "commutativity", a.mul,
            Pipe([d, d], f).permute([1, 0]).block(0, 2, a.mul).map)
    return rep


class CoalgebraData:
    def __init__(self, space, comul, counit, field, label=""):
        require_shape("comul", comul, space.dim, space.dim * space.dim)
        require_shape("counit", counit, space.dim, 1)
        self.space = space
        self.comul = comul
        self.counit = counit
        self.field = field
        self.label = label or space.label

    def is_cocommutative(self):
        d = self.space.dim
        flipped = Pipe.after(self.comul, [d, d]).permute([1, 0]).map
        return flipped == self.comul

    def iterated_comul_vector(self, xvec, n):
        """Expand an element into C^{(x)n}; dict {basis tuple: coefficient}.

        n = 1 returns the element itself; n = 0 applies the counit.
        """
        f = self.field
        d = self.space.dim
        if n == 0:
            v = self.counit.apply(tuple(xvec))
            return {(): v[0]} if v[0] else {}
        cur = {(i,): c for i, c in enumerate(xvec) if c}
        for _ in range(n - 1):
            nxt = {}
            for key, coeff in cur.items():
                last = key[-1]
                col = self.comul.column(last)
                for flat, v in enumerate(col):
                    if v:
                        i, j = divmod(flat, d)
                        nk = key[:-1] + (i, j)
                        term = f.mul(coeff, v)
                        cur_v = nxt.get(nk)
                        nxt[nk] = term if cur_v is None else f.add(cur_v, term)
            cur = {k: v for k, v in nxt.items() if v}
        return cur

    def tensor_with(self, other, label=""):
        """Tensor product coalgebra (middle factors swapped in the coproduct)."""
        f = self.field
        a, b = self.space, other.space
        comul = Pipe([a.dim, b.dim], f).block(0, 1, self.comul, [a.dim] * 2)
        comul.block(2, 1, other.comul, [b.dim] * 2).permute([0, 2, 1, 3])
        counit = self.counit.tensor(other.counit)
        return CoalgebraData(tensor_space(a, b), comul.map, counit, f,
                             label=label or "%sx%s" % (self.label, other.label))


def check_coalgebra(c, cocommutative=False):
    rep = Report("coalgebra %s" % c.label)
    f = c.field
    d = c.space.dim
    ident = LinMap.identity(c.space, f)

    def after_comul(slot, op, out_dims=None):
        return Pipe.after(c.comul, [d, d]).block(slot, 1, op, out_dims).map

    rep.check_map_equal("coassociativity", after_comul(0, c.comul, [d, d]),
                        after_comul(1, c.comul, [d, d]))
    rep.check_map_equal("left_counit", after_comul(0, c.counit), ident)
    rep.check_map_equal("right_counit", after_comul(1, c.counit), ident)
    if cocommutative:
        rep.add("cocommutativity", c.is_cocommutative())
    return rep


class ModuleActionData:
    """A left (A (x) M -> M) or right (M (x) A -> M) module action."""

    def __init__(self, algebra, space, action, side, label=""):
        _require_side(side)
        require_shape("action", action, algebra.space.dim * space.dim,
                      space.dim)
        self.algebra = algebra
        self.space = space
        self.action = action
        self.side = side
        self.label = label


def check_module(m):
    rep = Report("module %s" % m.label)
    f = m.algebra.field
    da, dm = m.algebra.space.dim, m.space.dim
    mul, act = m.algebra.mul, m.action
    u = m.algebra.unit_map()
    if m.side == "left":
        rep.check_map_equal(
            "associativity",
            Pipe([da, da, dm], f).block(0, 2, mul).block(0, 2, act).map,
            Pipe([da, da, dm], f).block(1, 2, act).block(0, 2, act).map)
        unit_act = Pipe([dm], f).block(0, 0, u).block(0, 2, act)
    else:
        rep.check_map_equal(
            "associativity",
            Pipe([dm, da, da], f).block(0, 2, act).block(0, 2, act).map,
            Pipe([dm, da, da], f).block(1, 2, mul).block(0, 2, act).map)
        unit_act = Pipe([dm], f).block(1, 0, u).block(0, 2, act)
    rep.check_map_equal("unit", unit_act.map, LinMap.identity(m.space, f))
    return rep


class ComoduleData:
    """A comodule over a plain coalgebra.

    side "right": coaction M -> M (x) C;  side "left": coaction M -> C (x) M.
    """

    def __init__(self, coalgebra, space, coaction, side, label=""):
        _require_side(side)
        require_shape("coaction", coaction, space.dim,
                      space.dim * coalgebra.space.dim)
        self.coalgebra = coalgebra
        self.space = space
        self.coaction = coaction
        self.side = side
        self.label = label

    def iterated_coaction_vector(self, yvec, n):
        """Expand y into y_(0) (x) y_(1) (x) ... (x) y_(n) (right) or
        y_(-n) (x) ... (x) y_(-1) (x) y_(0) (left): the coaction once, then
        its coalgebra leg through `iterated_comul_vector`.

        Returns {(m_index, c_1, ..., c_n): coefficient} in both cases, with
        the comodule index first and the coalgebra factors in Sweedler
        order.  n = 0 returns the element itself.
        """
        if n == 0:
            return {(i,): c for i, c in enumerate(yvec) if c}
        c = self.coalgebra
        dm, dc = self.space.dim, c.space.dim
        legs = {}   # comodule index -> its coalgebra leg
        for flat, v in enumerate(self.coaction.apply(tuple(yvec))):
            if not v:
                continue
            if self.side == "right":
                mi, ci = divmod(flat, dc)
            else:
                ci, mi = divmod(flat, dm)
            legs.setdefault(mi, [c.field.zero] * dc)[ci] = v
        return {(mi,) + key: v for mi, leg in legs.items()
                for key, v in c.iterated_comul_vector(leg, n).items()}


def check_comodule(cm):
    rep = Report("comodule %s" % cm.label)
    c = cm.coalgebra
    f = c.field
    dm, dc = cm.space.dim, c.space.dim
    # (comodule slot, coalgebra slot) of the coaction target
    ms, cs = (0, 1) if cm.side == "right" else (1, 0)
    dims = [dm, dc] if cm.side == "right" else [dc, dm]

    def after_coaction(slot, op, out_dims=None):
        return Pipe.after(cm.coaction, dims).block(slot, 1, op, out_dims).map

    rep.check_map_equal("coassociativity",
                        after_coaction(ms, cm.coaction, dims),
                        after_coaction(cs, c.comul, [dc, dc]))
    rep.check_map_equal("counit", after_coaction(cs, c.counit),
                        LinMap.identity(cm.space, f))
    return rep


def basis_slices(op, dim):
    """The maps op(e_i (x) -) for the basis vectors e_i of op's first
    factor, of dimension `dim`: `fix_factor` at each of them."""
    f = op.field
    return [fix_factor(op, Space(dim).basis_vector(i, f)) for i in range(dim)]


def sweedler_sum(terms, slots):
    """The slotwise action of a Sweedler expansion: for terms
    {(i_1, ..., i_m): c}, the sum of c * slots[0][i_1] (x) ... (x)
    slots[m-1][i_m], where slots[k] lists the maps of slot k by basis
    index.  No terms give the zero map between the tensor products of the
    slots' spaces."""
    summands = []
    for key, c in terms.items():
        m = slots[0][key[0]]
        for maps, i in zip(slots[1:], key[1:]):
            m = m.tensor(maps[i])
        summands.append((c, m))
    if summands:
        return combine(summands)
    dom = cod = 1
    for maps in slots:
        dom *= maps[0].dom.dim
        cod *= maps[0].cod.dim
    return LinMap.zero(Space(dom), Space(cod), slots[0][0].field)


def balanced_tensor(left_pres, right_pres, ract, lact, field, label=""):
    """Quotient of left (x) right by (q.a) (x) r - q (x) (a.r).

    `ract`: left_pres.quotient (x) A -> left_pres.quotient
    `lact`: A (x) right_pres.quotient -> right_pres.quotient
    The ambient of the result is the tensor product of the two ambients, so
    towers keep a projection/section from the full tensor power; their
    relation basis is computed when it is read.  Free factors whose
    relations all cancel (a base of dimension one) give the trivial
    presentation of that ambient.
    """
    lq, rq = left_pres.quotient, right_pres.quotient
    ambient = tensor_space(left_pres.ambient, right_pres.ambient, label)
    inner_ambient = tensor_space(lq, rq)
    # relation (i, a, j) of lq (x) A (x) rq is (q_i . a) (x) r_j - q_i (x)
    # (a . r_j); relations that cancel stay as zero columns
    rel_inner = ract.tensor(LinMap.identity(rq, field)) \
        - LinMap.identity(lq, field).tensor(lact)
    if left_pres.free and right_pres.free and rel_inner.is_zero():
        return QuotientPresentation.trivial(ambient, field)
    inner = quotient_by(inner_ambient, rel_inner, field, label)
    projection = inner.projection \
        @ left_pres.projection.tensor(right_pres.projection)
    section = left_pres.section.tensor(right_pres.section) @ inner.section
    return QuotientPresentation(ambient, inner.quotient, projection, section)


def action_on_last_slot(pres, slot_action, aspace, field):
    """Right A-action on a tower quotient, acting through the last factor.

    `slot_action`: U (x) A -> U on the last ambient factor.  Returns the
    descended map quotient (x) A -> quotient.
    """
    udim = slot_action.cod.dim
    lifted = Pipe.after(pres.section.tensor(LinMap.identity(aspace, field)),
                        [pres.ambient.dim // udim, udim, aspace.dim])
    return pres.project(lifted.block(1, 2, slot_action).map)


class BalancedTower:
    """The left-nested tower X (x)_A F (x)_A ... (x)_A F, grown on demand.

    Level 0 is the presentation `base` of X, with the right A-action
    `base_ract`: X (x) A -> X; level n attaches n copies of the factor F
    on `factor_space`, with the actions `factor_ract`: F (x) A -> F and
    `factor_lact`: A (x) F -> F.  Levels are kept once grown, and so is
    the right A-action of each level (through its last slot), computed
    the first time a growth or a cap reads it.

    Free levels follow from one certificate.  On a free level the right
    A-action through the last slot is id (x) factor_ract, so the relations
    of level k over a free level k - 1 are id (x) r on level(k - 1) (x) F,
    with r = factor_ract (x) id - id (x) factor_lact on F (x) A (x) F.
    Level 2 free (over a free level 1) says that id_X (x) r vanishes, so r
    does wherever X is not zero.  Then for k >= 3 a free level k - 1 gives
    a free level k: the trivial presentation of level(k - 1) (x) F, formed
    with no action, relation or tensor product.  Every other level goes
    through `cap`.
    """

    def __init__(self, base, base_ract, factor_space, factor_ract,
                 factor_lact, aspace, field, label=""):
        self.aspace, self.field, self.label = aspace, field, label
        self.factor_ract, self.factor_lact = factor_ract, factor_lact
        self._factor = QuotientPresentation.trivial(factor_space, field)
        self._levels, self._racts = [base], [base_ract]

    def __getitem__(self, n):
        """The presentation of level n."""
        lst = self._levels
        while len(lst) <= n:
            k = len(lst)
            label = "%s[%d]" % (self.label, k)
            if k >= 3 and lst[1].free and lst[2].free and lst[k - 1].free:
                lst.append(QuotientPresentation.trivial(
                    tensor_space(lst[k - 1].ambient, self._factor.ambient,
                                 label), self.field))
            else:
                lst.append(self.cap(k - 1, self._factor, self.factor_lact,
                                    label))
            self._racts.append(None)
        return lst[n]

    def ract(self, n):
        """The right A-action level(n) (x) A -> level(n)."""
        pres = self[n]
        if self._racts[n] is None:
            self._racts[n] = action_on_last_slot(pres, self.factor_ract,
                                                 self.aspace, self.field)
        return self._racts[n]

    def cap(self, n, x_pres, x_lact, label=""):
        """level(n) (x)_A Y for a left A-module Y presented by `x_pres`,
        with `x_lact`: A (x) Y -> Y."""
        return balanced_tensor(self[n], x_pres, self.ract(n), x_lact,
                               self.field, label)


def check_sweedler_measuring(c, r, r2, psi):
    """psi: C (x) R -> R2 measuring a coalgebra action on algebras."""
    rep = Report("sweedler measuring")
    f = c.field
    dc, dr = c.space.dim, r.space.dim
    lhs = Pipe([dc, dr, dr], f).block(1, 2, r.mul).block(0, 2, psi)
    rhs = Pipe([dc, dr, dr], f).block(0, 1, c.comul, [dc, dc])
    rhs.permute([0, 2, 1, 3]).block(0, 2, psi).block(1, 2, psi)
    rep.check_map_equal("multiplicativity", lhs.map,
                        rhs.block(0, 2, r2.mul).map)
    lu = Pipe([dc], f).block(1, 0, r.unit_map()).block(0, 2, psi)
    rep.check_map_equal("unitality", lu.map, r2.unit_map() @ c.counit)
    return rep
