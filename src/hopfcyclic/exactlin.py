"""Exact linear algebra over the rationals and prime fields.

Everything downstream works with finite dimensional spaces carrying a fixed
ordered basis, sparse matrices with exact entries, and quotient presentations
(ambient space, relation subspace, projection, section).  No floats anywhere.
"""

from fractions import Fraction
from math import gcd, lcm


class NoSolution(Exception):
    pass


class NotInvertible(Exception):
    pass


class DescentFailure(Exception):
    """A map defined on lifts does not kill the relation subspace.

    Carries a witness: the index of the offending relation column and the
    nonzero image vector in the target quotient.  The local certificates of
    cyclichom's faces and degeneracies use the same shape on their small
    towers (for an A-linearity check, a column of A (x) the window).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class FieldSpec:
    """The rationals, or a prime field F_p.

    Over Q scalars are ints and Fractions, which mix freely (3 == Fraction(3),
    with equal hashes).  zero, one, of_int, parse and inv give an int when
    the value is integral, and so does elimination for every scalar it
    returns; add, sub and mul keep Python's types, so their result may be
    an integral Fraction such as Fraction(1, 2) * 2.  Over F_p scalars are
    plain ints in range(p).

    The map kernels (@, Pipe, +, -, scaled, tensor) do not go through
    these methods: they work on a LinMap's integer form, integer
    numerators over one common denominator, and give maps born in that
    form (see LinMap).
    """

    def __init__(self, p=0):
        if p != 0 and (p < 2 or any(p % d == 0
                                    for d in range(2, int(p ** 0.5) + 1))):
            raise ValueError("not a prime: %r" % (p,))
        self.char = p

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.char == other.char

    def __hash__(self):
        return hash(("FieldSpec", self.char))

    def __repr__(self):
        return "Q" if self.char == 0 else "F%d" % self.char

    zero = 0
    one = 1

    def of_int(self, n, d=1):
        if self.char == 0:
            return _rational(Fraction(n, d))
        p = self.char
        dd = d % p
        if dd == 0:
            raise ZeroDivisionError("denominator divisible by %d" % p)
        return (n * pow(dd, p - 2, p)) % p

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if not a:
            raise ZeroDivisionError
        if self.char == 0:
            return _rational(Fraction(1, a))
        return pow(a, self.char - 2, self.char)

    def parse(self, text):
        """Parse "3", "-1/2" etc. into a scalar."""
        s = str(text)
        if "/" in s:
            n, d = s.split("/")
            return self.of_int(int(n), int(d))
        return self.of_int(int(s))

    def to_json(self, a):
        """A scalar for a JSON report: a string like "-3/2" or "0" over Q
        (so a reader never takes it for an index), an int over F_p."""
        return str(a) if self.char == 0 else a


def _rational(q):
    """A Fraction as a scalar of Q: its numerator when it is integral."""
    return q.numerator if q.denominator == 1 else q


_is_int = int.__instancecheck__


def _sum_map(dom, cod, field, sums, den):
    """A LinMap born in integer form from integer sums over den, keyed
    (row, col): zero sums are dropped, over F_p (den 1) each sum is
    reduced into 1..p-1, and over Q the sums and den are divided by their
    gcd, so den is the lcm of the denominators of the reduced entries."""
    p = field.char
    if p:
        nums = {k: r for k, s in sums.items() if (r := s % p)}
    else:
        nums = {k: s for k, s in sums.items() if s} \
            if 0 in sums.values() else sums
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {k: s // g for k, s in nums.items()}
                den //= g
    m = LinMap.__new__(LinMap)
    m.dom, m.cod, m.field = dom, cod, field
    m._form = nums, den
    m._entries = nums if den == 1 else None
    return m


QQ = FieldSpec()


class Vector(tuple):
    """Coordinates of a vector, as every function here that builds one
    returns them (LinMap.column and apply, solve, kron_vec, basis_vector):
    a plain tuple whose type marks the entries as scalars.  Over Q an
    integral scalar is an int, like an index, so a report renders the
    entries of a Vector through FieldSpec.to_json and nothing else."""

    __slots__ = ()


class Space:
    """A finite dimensional vector space with a fixed ordered basis."""

    __slots__ = ("dim", "label")

    def __init__(self, dim, label=""):
        assert dim >= 0
        self.dim = dim
        self.label = label

    def __repr__(self):
        return "Space(%d, %r)" % (self.dim, self.label)

    def basis_vector(self, i, field):
        v = [field.zero] * self.dim
        v[i] = field.one
        return Vector(v)


def tensor_space(a, b, label=""):
    """Tensor product space; index (i, j) maps to i * b.dim + j."""
    return Space(a.dim * b.dim, label or "(%s)x(%s)" % (a.label, b.label))


class LinMap:
    """A sparse linear map, stored as {(row, col): nonzero scalar}.

    Its integer form (nums, den), computed at most once, holds the entries
    as integer numerators over den, the lcm of their reduced denominators.
    The kernels (@, Pipe, +, -, scaled, tensor) and == work on it and
    return maps born in it, which settle `entries` on first read.  Over
    F_p, and for integral maps, one dict serves as both forms.  Assigning
    `entries` drops the integer form; editing it in place is safe only
    before a kernel has read the map.
    """

    __slots__ = ("dom", "cod", "field", "_entries", "_form")

    def __init__(self, dom, cod, field, entries=None):
        self.dom = dom
        self.cod = cod
        self.field = field
        zero = field.zero
        self._entries = {k: v for k, v in (entries or {}).items()
                         if v != zero}
        self._form = None

    @property
    def entries(self):
        e = self._entries
        if e is None:
            nums, den = self._form
            e = self._entries = {k: Fraction(s, den) if s % den else s // den
                                 for k, s in nums.items()}
        return e

    @entries.setter
    def entries(self, value):
        self._entries = value
        self._form = None

    def _nums(self):
        """The integer form (nums, den), computed once.  Integral entries,
        and every entry over F_p, serve as they are with den 1."""
        form = self._form
        if form is None:
            e = self._entries
            if self.field.char or all(map(_is_int, e.values())):
                form = e, 1
            else:
                den = lcm(*{v.denominator for v in e.values()})
                form = {k: v.numerator * (den // v.denominator)
                        for k, v in e.items()}, den
            self._form = form
        return form

    def _stored(self):
        """Whichever of the two entry dicts the map holds; their keys are
        the same."""
        return self._form[0] if self._entries is None else self._entries

    @staticmethod
    def identity(space, field):
        one = field.one
        return LinMap(space, space, field, {(i, i): one for i in range(space.dim)})

    @staticmethod
    def zero(dom, cod, field):
        return LinMap(dom, cod, field, {})

    @staticmethod
    def from_rows(dom, cod, field, rows):
        entries = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return LinMap(dom, cod, field, entries)

    @staticmethod
    def from_columns(dom, cod, field, columns):
        entries = {}
        for j, col in enumerate(columns):
            for i, v in enumerate(col):
                if v:
                    entries[(i, j)] = v
        return LinMap(dom, cod, field, entries)

    def rows(self):
        out = [[self.field.zero] * self.dom.dim for _ in range(self.cod.dim)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def column(self, j):
        col = [self.field.zero] * self.cod.dim
        for (i, jj), v in self.entries.items():
            if jj == j:
                col[i] = v
        return Vector(col)

    def apply(self, vec):
        assert len(vec) == self.dom.dim
        f = self.field
        out = [f.zero] * self.cod.dim
        for (i, j), v in self.entries.items():
            if vec[j]:
                out[i] = f.add(out[i], f.mul(v, vec[j]))
        return Vector(out)

    def __matmul__(self, other):
        assert isinstance(other, LinMap)
        assert self.dom.dim == other.cod.dim, (self.dom.dim, other.cod.dim)
        left, dl = self._nums()
        right, dr = other._nums()
        by_col = {}
        for (i, k), v in left.items():
            by_col.setdefault(k, []).append((i, v))
        out = {}
        get = out.get
        for (k, j), w in right.items():
            for i, v in by_col.get(k, ()):
                key = (i, j)
                out[key] = get(key, 0) + v * w
        return _sum_map(other.dom, self.cod, self.field, out, dl * dr)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        """self + sign * other, over the lcm of the two denominators."""
        assert self.dom.dim == other.dom.dim and self.cod.dim == other.cod.dim
        a, da = self._nums()
        b, db = other._nums()
        den = lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        out = {k: v * sa for k, v in a.items()}
        get = out.get
        for k, v in b.items():
            out[k] = get(k, 0) + v * sb
        return _sum_map(self.dom, self.cod, self.field, out, den)

    def scaled(self, c):
        nums, den = self._nums()
        n = c.numerator
        return _sum_map(self.dom, self.cod, self.field,
                        {k: v * n for k, v in nums.items()},
                        den * c.denominator)

    def tensor(self, other):
        """Kronecker product, consistent with tensor_space index order."""
        dom = tensor_space(self.dom, other.dom)
        cod = tensor_space(self.cod, other.cod)
        bc, bd = other.cod.dim, other.dom.dim
        a, da = self._nums()
        b, db = other._nums()
        out = {}
        for (i1, j1), v1 in a.items():
            for (i2, j2), v2 in b.items():
                out[(i1 * bc + i2, j1 * bd + j2)] = v1 * v2
        return _sum_map(dom, cod, self.field, out, da * db)

    def is_zero(self):
        return not self._stored()

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (self.dom.dim == other.dom.dim and self.cod.dim == other.cod.dim
                and self._nums() == other._nums())

    def __hash__(self):
        raise TypeError("LinMap is not hashable")

    def nonzero_column_index(self):
        """Smallest index of a column with a nonzero entry, or None."""
        return min((j for (_, j) in self._stored()), default=None)

    def __repr__(self):
        return "LinMap(%d->%d, nnz=%d)" % (self.dom.dim, self.cod.dim,
                                           len(self._stored()))


def column_witness(m):
    """How a map that should vanish is named when it does not: None when
    m is zero, otherwise (j, column j of m) for its first nonzero column."""
    j = m.nonzero_column_index()
    return None if j is None else (j, m.column(j))


def difference_witness(lhs, rhs):
    """None when lhs == rhs, otherwise the column_witness of lhs - rhs.
    Equal maps have equal entry dicts, so the difference is formed only
    for a witness."""
    return None if lhs == rhs else column_witness(lhs - rhs)


def kron_vec(u, v, field):
    """Coordinates of u (x) v, in the index order of tensor_space."""
    out = [field.zero] * (len(u) * len(v))
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    out[i * len(v) + j] = field.mul(a, b)
    return Vector(out)


def _prod(dims):
    out = 1
    for d in dims:
        out *= d
    return out


def fix_factor(m, vec, before=1):
    """Fix one tensor factor of m's domain to the vector vec.

    The domain of m splits as X (x) V (x) Y with dim X = `before` and
    dim V = len(vec); the result is the map X (x) Y -> m.cod sending
    x (x) y to m(x (x) vec (x) y): a Pipe stage that inserts vec between
    X and Y, followed by m.
    """
    f = m.field
    mid = len(vec)
    right = m.dom.dim // (before * mid)
    assert before * mid * right == m.dom.dim, (m.dom.dim, before, mid)
    insert = LinMap.from_columns(Space(1), Space(mid), f, [vec])
    return m @ Pipe([before, right], f).block(1, 0, insert).map


def pack_slices(slices, field, last=False):
    """One map K (x) V -> W from maps f_k : V -> W, k < dim K, sending
    e_k (x) v to f_k(v); with last=True the map V (x) K -> W sending
    v (x) e_k to f_k(v).  Inverse to fix_factor at basis vectors."""
    n = len(slices)
    dv = slices[0].dom.dim
    entries = {}
    for k, op in enumerate(slices):
        for (i, j), v in op.entries.items():
            entries[(i, j * n + k) if last else (i, k * dv + j)] = v
    return LinMap(Space(n * dv), slices[0].cod, field, entries)


class Pipe:
    """A linear map built stage by stage on a list of tensor factors.

    The map starts as the identity of dims[0] (x) ... (x) dims[-1] (or as a
    given map into that product, see `after`).  Each stage acts on the
    current target factors by rewriting row indices in the flat layout of
    tensor_space, so no identity Kronecker product or permutation matrix is
    ever formed.  A fresh pipe holds no entries (`entries` is None) until
    its first stage, which writes id (x) op (x) id directly.

    The entries are integer sums over one denominator `den`: each stage
    reads its op's integer form, sums plain ints and multiplies `den` by
    the op's denominator.  Over F_p `den` stays 1, and each sum is reduced
    mod p once, when the next stage or `map` reads it.  `map` returns a map
    born in integer form (see LinMap).
    """

    def __init__(self, dims, field):
        self.dims = list(dims)
        self.field = field
        self.dom_dim = _prod(self.dims)
        self.entries = None     # the identity
        self.den = 1

    @classmethod
    def after(cls, m, dims):
        """Continue from the map m, whose target splits into `dims`."""
        assert m.cod.dim == _prod(dims), (m.cod.dim, dims)
        pipe = cls.__new__(cls)
        pipe.dims = list(dims)
        pipe.field = m.field
        pipe.dom_dim = m.dom.dim
        pipe.entries, pipe.den = m._nums()
        return pipe

    def permute(self, order):
        """Reorder the factors: factor k afterwards is factor order[k] now.

        Agrees with permute_factors(self.dims, order, field) @ self.map.
        """
        m = len(self.dims)
        assert sorted(order) == list(range(m)), order
        if list(order) == list(range(m)):
            return self
        if self.entries is None:
            self.entries = {(i, i): 1 for i in range(self.dom_dim)}
        new_dims = [self.dims[k] for k in order]
        # every factor keeps its digit and takes the stride of its new place
        old = []
        stride = 1
        for d in reversed(self.dims):
            old.append((stride, d))
            stride *= d
        old.reverse()
        new_stride = [0] * m
        stride = 1
        for k in reversed(range(m)):
            new_stride[order[k]] = stride
            stride *= new_dims[k]
        digits = [(s, d, w) for (s, d), w in zip(old, new_stride)]
        moved = {}
        out = {}
        for (i, j), v in self.entries.items():
            ni = moved.get(i)
            if ni is None:
                ni = 0
                for s, d, w in digits:
                    ni += (i // s) % d * w
                moved[i] = ni
            out[(ni, j)] = v
        self.entries = out
        self.dims = new_dims
        return self

    def block(self, start, count, op, out_dims=None):
        """Apply op to the factors [start, start + count), which become
        `out_dims` (one factor of op's target dimension by default).

        count = 0 inserts new factors, e.g. a unit.  Agrees with
        (id (x) op (x) id) @ self.map.
        """
        return self._stage(start, count, op, out_dims, 1)

    def family(self, start, count, op, size, out_dims=None):
        """Apply the maps op(e_b (x) -), b < size, to the factors [start,
        start + count): op is a family packed as K (x) those factors ->
        out_dims (see pack_slices), dim K = size, and the source of the
        pipe gains K as a new leading factor.

        Agrees with a pipe that starts with K in front and applies op to K
        and the run; entering late, the family meets only the entries
        that reach it instead of `size` copies of every earlier stage.
        """
        return self._stage(start, count, op, out_dims, size)

    def _stage(self, start, count, op, out_dims, size):
        out_dims = [op.cod.dim] if out_dims is None else list(out_dims)
        mid = _prod(self.dims[start:start + count])
        right = _prod(self.dims[start + count:])
        width = _prod(out_dims)
        assert op.dom.dim == size * mid and op.cod.dim == width, \
            (op.dom.dim, size, mid, op.cod.dim, width)
        nums, den = op._nums()
        src = self.dom_dim
        entries = self.entries
        if entries is None:
            # id (x) op (x) id, each entry written once: source column
            # (b, l, k, r) goes to row (l, i, r) for op entry (i, (b, k))
            terms = []
            for (i, c), w in nums.items():
                b, k = divmod(c, mid)
                terms.append((i * right, b * src + k * right, w))
            out = {}
            for l in range(_prod(self.dims[:start])):
                rl, cl = l * width * right, l * mid * right
                for ir, ck, w in terms:
                    row, col = rl + ir, cl + ck
                    for r in range(right):
                        out[(row + r, col + r)] = w
        else:
            by_col = {}
            for (i, c), w in nums.items():
                b, k = divmod(c, mid)
                by_col.setdefault(k, []).append((i, b * src, w))
            p = self.field.char
            if p:
                entries = {k: r for k, v in entries.items() if (r := v % p)}
            out = {}
            get = out.get
            for (row, j), v in entries.items():
                lk, r = divmod(row, right)
                l, k = divmod(lk, mid)
                base = l * width
                for i, b, w in by_col.get(k, ()):
                    key = ((base + i) * right + r, b + j)
                    out[key] = get(key, 0) + w * v
        self.entries = out
        self.den *= den
        self.dims[start:start + count] = out_dims
        self.dom_dim = size * src
        return self

    @property
    def map(self):
        if self.entries is None:
            return LinMap.identity(Space(self.dom_dim), self.field)
        return _sum_map(Space(self.dom_dim), Space(_prod(self.dims)),
                        self.field, self.entries, self.den)


def permute_factors(dims, perm, field):
    """Permutation of tensor factors.

    `dims` are the factor dimensions of the source, in order.  The map sends
    the source basis tensor (i_0, ..., i_{m-1}) to the target basis tensor
    (i_{perm[0]}, ..., i_{perm[m-1]}); target factor k has dimension
    dims[perm[k]].
    """
    return Pipe(dims, field).permute(perm).map


def _eliminate(rows, ncols, field):
    """Sparse Gauss-Jordan elimination on rows given as dicts {col: value}.

    Pivots are taken in the columns below `ncols`; the columns from `ncols`
    on (right-hand sides) are carried along.  The row dicts are consumed.
    Returns (pivots, rest): `pivots` lists (column, row) by increasing
    column, each row 1 at its own pivot and 0 at every other pivot column,
    so these are the nonzero rows of the reduced row echelon form; `rest`
    holds the nonzero rows left with no entry below `ncols`.

    Columns are taken left to right; in each, a shortest unfinished row
    with an entry there becomes the pivot row, to keep fill-in low.  The
    reduced echelon form is unique, so the choice changes no result.  The
    field enters only through the scalar step.  Over Q every scalar of a
    pivot row comes back as an int when integral.
    """
    p = field.char
    live = dict(enumerate(rows))
    where = {}  # column below ncols -> ids of the unfinished rows using it
    for i, row in live.items():
        for c in row:
            if c < ncols:
                where.setdefault(c, set()).add(i)
    done = []
    for c in range(ncols):
        using = where.pop(c, None)
        if not using:
            continue
        k = min(using, key=lambda i: (len(live[i]), i))
        using.discard(k)
        row = live.pop(k)
        for j in row:
            if j in where:
                where[j].discard(k)
        inv = field.inv(row.pop(c))
        for j, v in row.items():
            row[j] = v * inv % p if p else _rational(v * inv)
        for i in using:
            other = live[i]
            _sub_multiple(other, row, other.pop(c), p, where, i)
        done.append((c, row))
    # Back substitution.  A pivot row holds only pivot columns to the right
    # of its own, and those rows are fully reduced when it is reached.
    at = dict(done)
    for c, row in reversed(done):
        for j in [j for j in row if j in at]:
            _sub_multiple(row, at[j], row.pop(j), p)
    one = field.one
    for c, row in done:
        if not p:   # sums of Fractions may be integral Fractions
            for j, v in row.items():
                row[j] = _rational(v)
        row[c] = one
    return done, [row for row in live.values() if row]


def _sub_multiple(row, pivot_row, factor, p, where=None, i=None):
    """row -= factor * pivot_row, dropping the entries that cancel.

    `pivot_row` lacks its pivot entry, which the caller has popped from
    `row` as `factor`.  A given column index `where` is kept up to date
    for row i.
    """
    neg = -factor
    for j, v in pivot_row.items():
        old = row.get(j)
        new = neg * v if old is None else old + neg * v
        if p:
            new %= p
        if new:
            row[j] = new
            if old is None and where is not None and j in where:
                where[j].add(i)
        elif old is not None:
            del row[j]
            if where is not None and j in where:
                where[j].discard(i)


def _row_dicts(m):
    """The rows of m as dicts {col: value}."""
    rows = [{} for _ in range(m.cod.dim)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    return rows


def rref(m):
    """Reduced row echelon form.

    Returns (reduced LinMap, pivot column tuple, rank).
    """
    pivots, _ = _eliminate(_row_dicts(m), m.dom.dim, m.field)
    entries = {(r, j): v for r, (_, row) in enumerate(pivots)
               for j, v in row.items()}
    return (LinMap(m.dom, m.cod, m.field, entries),
            tuple(c for c, _ in pivots), len(pivots))


def rank(m):
    """Number of pivots of rref(m)."""
    return rref(m)[2]


def kernel(m):
    """Basis of the kernel, as columns of a LinMap into m.dom."""
    f = m.field
    pivots, _ = _eliminate(_row_dicts(m), m.dom.dim, f)
    free, basis = _null_basis(pivots, m.dom.dim, f)
    return LinMap(Space(len(free), "ker"), m.dom, f, basis)


def _null_basis(pivots, n, field):
    """Kernel basis of a reduced echelon form with n columns.

    Returns (free, basis): `free` numbers the non-pivot columns in order,
    {column: k}; `basis` holds the entries {(coordinate, k): value} of the
    k-th kernel vector, 1 at the k-th non-pivot column c and minus each
    pivot row's entry at c at that row's pivot.
    """
    taken = {c for c, _ in pivots}
    free = {c: k for k, c in
            enumerate(c for c in range(n) if c not in taken)}
    basis = {(c, k): field.one for c, k in free.items()}
    for pc, row in pivots:
        for c, v in row.items():
            if c != pc:
                basis[(pc, free[c])] = field.neg(v)
    return free, basis


def _solution(m, targets):
    """Entries of one X with m @ X == targets (a map into m.cod), free
    variables 0, or raise NoSolution.  All columns share one elimination
    of [m | targets]; a pivot variable takes its row's reduced entry."""
    n = m.dom.dim
    rows = _row_dicts(m)
    for (i, j), v in targets.entries.items():
        rows[i][n + j] = v
    pivots, rest = _eliminate(rows, n, m.field)
    if rest:
        raise NoSolution("inconsistent system")
    return {(c, j - n): v for c, row in pivots
            for j, v in row.items() if j >= n}


def solve_many(m, targets):
    """One X with m @ X == targets, or raise NoSolution.

    `targets` is a map into m.cod; column j of X is solve(m, column j of
    targets), but all columns share one elimination.
    """
    assert targets.cod.dim == m.cod.dim
    return LinMap(targets.dom, m.dom, m.field, _solution(m, targets))


def solve(m, target):
    """One solution of m v = target, or raise NoSolution."""
    assert len(target) == m.cod.dim
    f = m.field
    rhs = LinMap.from_columns(Space(1), m.cod, f, [target])
    sol = [f.zero] * m.dom.dim
    for (i, _), v in _solution(m, rhs).items():
        sol[i] = v
    return Vector(sol)


def invert(m):
    """Two sided inverse, or raise NotInvertible."""
    if m.dom.dim != m.cod.dim:
        raise NotInvertible("not square")
    f = m.field
    ident = LinMap.identity(m.cod, f)
    try:
        inv = LinMap(m.cod, m.dom, f, _solution(m, ident))
    except NoSolution:
        raise NotInvertible("not surjective")
    if not (m @ inv == ident) or \
       not (inv @ m == LinMap.identity(m.dom, f)):
        raise NotInvertible("one sided only")
    return inv


class QuotientPresentation:
    """ambient -> quotient with a chosen linear section.

    projection . section = id on the quotient.  `relations`, a basis of
    the kernel of the projection, is kernel(projection), computed on first
    read; descent is checked without it (see descent_witness), which reads
    it only to name a failure.

    The presentation is `free` when projection and section are both the
    identity of one space (no relation survives, as in every tensor tower
    of a Hopf algebra over the ground field); `project` and `lift` then
    skip the identity products.
    """

    __slots__ = ("ambient", "_relations", "quotient", "projection",
                 "section", "free", "_complement")

    def __init__(self, ambient, quotient, projection, section):
        self.ambient = ambient
        self._relations = None
        self.quotient = quotient
        self.projection = projection
        self.section = section
        self.free = _is_identity(projection) and _is_identity(section)
        self._complement = None

    @property
    def relations(self):
        if self._relations is None:
            self._relations = kernel(self.projection)
        return self._relations

    def _kernel_span(self):
        """The columns e_j - section(projection(e_j)), j < ambient.dim,
        built once.  Since projection . section = id they span the kernel
        of the projection, as the relations do, with no elimination."""
        if self._complement is None:
            self._complement = LinMap.identity(self.ambient,
                                               self.projection.field) \
                - self.section @ self.projection
        return self._complement

    def project(self, m):
        """projection @ m: a map into the ambient, read in the quotient."""
        if self.free:   # m read into the quotient, sharing its forms
            assert m.cod.dim == self.ambient.dim, (m.cod.dim, self.ambient.dim)
            out = LinMap.__new__(LinMap)
            out.dom, out.cod, out.field = m.dom, self.quotient, m.field
            out._entries, out._form = m._entries, m._form
            return out
        return self.projection @ m

    def lift(self, m):
        """m @ section: a map on the ambient, evaluated on the lifts of the
        quotient basis."""
        if self.free:
            assert m.dom.dim == self.ambient.dim, (m.dom.dim, self.ambient.dim)
            return m
        return m @ self.section

    @staticmethod
    def trivial(space, field):
        """space presented by itself: free by construction, so the
        identity scans of __init__ are skipped."""
        pres = QuotientPresentation.__new__(QuotientPresentation)
        pres.ambient = pres.quotient = space
        pres.projection = pres.section = LinMap.identity(space, field)
        pres.free = True
        pres._relations = pres._complement = None
        return pres

    def __repr__(self):
        return "QuotientPresentation(%d -> %d)" % (self.ambient.dim,
                                                   self.quotient.dim)


def _is_identity(m):
    """Whether m is the identity matrix (square, 1 on the diagonal, 0
    elsewhere); O(nnz)."""
    nums, den = m._nums()
    return (m.dom.dim == m.cod.dim and len(nums) == m.dom.dim and den == 1
            and all(i == j and v == 1 for (i, j), v in nums.items()))


def quotient_by(ambient, relations, field, label=""):
    """Present ambient / span(relation columns).

    The section picks out the non-pivot coordinates of the column-reduced
    relation matrix, so results are deterministic given the input order.
    """
    assert relations.cod.dim == ambient.dim
    f = field
    # column echelon form of the relations = row echelon of the transpose;
    # each pivot row is an echelon basis vector of the span
    rows = [{} for _ in range(relations.dom.dim)]
    for (i, j), v in relations.entries.items():
        rows[j][i] = v
    pivots, _ = _eliminate(rows, ambient.dim, f)
    free, basis = _null_basis(pivots, ambient.dim, f)
    quotient = Space(len(free), label or (ambient.label + "/~"))
    # projection: subtract v[p_k] * w_k for each echelon vector, keep the
    # non-pivots; that is the transpose of the null basis
    projection = LinMap(ambient, quotient, f,
                        {(k, i): v for (i, k), v in basis.items()})
    section = LinMap(quotient, ambient, f,
                     {(c, k): f.one for c, k in free.items()})
    return QuotientPresentation(ambient, quotient, projection, section)


def tensor_presentation(pa, pb):
    """Presentation of the plain tensor product of two quotients; the
    trivial one when both are free, so no Kronecker product is formed."""
    ambient = tensor_space(pa.ambient, pb.ambient)
    if pa.free and pb.free:
        return QuotientPresentation.trivial(ambient, pa.projection.field)
    projection = pa.projection.tensor(pb.projection)
    return QuotientPresentation(ambient, projection.cod, projection,
                                pa.section.tensor(pb.section))


def descent_witness(f_free, src, dst):
    """None when the map f_free of ambient spaces sends the relation
    subspace of src into that of dst, so that it descends to the
    quotients; otherwise (j, column), the first relation column of src
    whose image in dst's quotient is nonzero, and that image.

    The check runs on the columns e_j - section(projection(e_j)) of src,
    which span its relations; the relation basis is read only to name a
    failure.  Where src has no relation (quotient and ambient of one
    dimension) there is nothing to check, and free presentations add no
    product.
    """
    assert f_free.dom.dim == src.ambient.dim
    assert f_free.cod.dim == dst.ambient.dim
    if src.quotient.dim == src.ambient.dim or \
            dst.project(f_free @ src._kernel_span()).is_zero():
        return None
    return column_witness(dst.project(f_free @ src.relations))


def descend(f_free, src, dst):
    """Descend a map on ambient spaces to the quotients: the map
    quotient(src) -> quotient(dst) it induces on the lifts of src's
    quotient basis.  Raises DescentFailure with the witness of
    descent_witness where the map does not kill src's relations.

    The map is projected first, g = dst.project(f_free), and the result
    is src.lift(g).  Descent holds iff src.lift(g) @ src.projection == g,
    that is g (1 - section projection) = 0, the condition descent_witness
    checks; the kernel-span product runs only to name a failure.
    """
    g = dst.project(f_free)
    out = src.lift(g)
    if src.quotient.dim != src.ambient.dim and out @ src.projection != g:
        witness = descent_witness(f_free, src, dst)
        raise DescentFailure(
            "map does not descend (relation column %d)" % witness[0],
            witness=witness)
    return out
