"""Exact linear algebra over the rationals and prime fields.

Everything downstream works with finite dimensional spaces carrying a fixed
ordered basis, sparse matrices with exact entries, and quotient presentations
(ambient space, relation subspace, projection, section).  No floats anywhere.
"""

from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod
from types import MappingProxyType


def _require(ok, message, *args):
    """ValueError(message % args) unless ok: the shape and argument
    checks of this module."""
    if not ok:
        raise ValueError(message % args)


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


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to all of _PRIME_BASES (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
# 2017), so the test below is exact for every smaller n
_PRIME_BOUND = 318665857834031151167461


def _is_prime(n):
    """Whether n < _PRIME_BOUND is prime: the strong (Miller-Rabin) test
    to each of _PRIME_BASES."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """The rationals, or a prime field F_p.

    Over Q scalars are ints and Fractions, which mix freely (3 == Fraction(3),
    with equal hashes).  zero, one, of_int, parse and inv give an int when
    the value is integral; add, sub and mul keep Python's types, so their
    result may be an integral Fraction such as Fraction(1, 2) * 2.  Over
    F_p scalars are plain ints in range(p).

    The map kernels (@, Pipe, combine, tensor) and elimination do not go
    through these methods: they work on a LinMap's integer form, integer
    numerators over one common denominator, and give maps in that form,
    whose entries are ints where integral (see LinMap).
    """

    def __init__(self, p=0):
        if p >= _PRIME_BOUND:
            raise ValueError("primality is decided only below %d"
                             % _PRIME_BOUND)
        if p != 0 and not _is_prime(p):
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
    """The LinMap of integer sums over den, keyed (row, col): zero sums
    are dropped, over F_p (den 1) each sum is reduced into 1..p-1, and over
    Q the sums and den are divided by their gcd, so den is the lcm of the
    denominators of the reduced entries."""
    p = field.char
    if p:
        nums = {k: r for k, s in sums.items() if (r := s % p)}
    else:
        nums = {k: s for k, s in sums.items() if s} \
            if 0 in sums.values() else sums
        if den != 1:
            g = reduce(gcd, nums.values(), den)
            if g != 1:
                nums = {k: s // g for k, s in nums.items()}
                den //= g
    return _born(dom, cod, field, nums, den)


def _born(dom, cod, field, ints, den):
    """The LinMap whose integer form is `ints` over `den`, taken as it is:
    the form must be canonical (see _sum_map).  The dict may be shared with
    another map, since no map changes."""
    m = LinMap.__new__(LinMap)
    m.dom, m.cod, m.field = dom, cod, field
    m._ints, m._den = ints, den
    m._view = m._cols = None
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
        _require(dim >= 0, "a space has dimension >= 0, got %r", dim)
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
    """A sparse linear map dom -> cod over `field`; it never changes.

    It is held as its integer form: integer numerators `_ints`, {(row, col):
    nonzero int}, over one denominator `_den`, the lcm of the reduced
    denominators of the entries (1 over F_p, whose numerators lie in
    1..p-1).  The form is canonical, so == compares it.  `entries` is a
    read-only view {(row, col): nonzero scalar}, formed on first read: the
    numerators themselves where den is 1, over Q ints and Fractions
    otherwise.  The kernels (@, Pipe, combine, tensor) and elimination
    (rref, kernel, solve, invert, quotient_by) read the integer form and
    give maps in it.  A map that is the left operand of @ or the op of a
    Pipe stage also keeps a column index of its integer form, {col: [(row,
    num), ...]}, built on that first use.
    """

    __slots__ = ("dom", "cod", "field", "_ints", "_den", "_view", "_cols")

    def __init__(self, dom, cod, field, entries=None):
        self.dom = dom
        self.cod = cod
        self.field = field
        items = (entries or {}).items()
        p = field.char
        den = 1
        if p:
            ints = {k: r for k, v in items if (r := v % p)}
        else:
            ints = {k: v for k, v in items if v}
            if not all(map(_is_int, ints.values())):
                den = lcm(*{v.denominator for v in ints.values()})
                ints = {k: v.numerator * (den // v.denominator)
                        for k, v in ints.items()}
        self._ints, self._den = ints, den
        self._view = self._cols = None

    @property
    def entries(self):
        view = self._view
        if view is None:
            ints, den = self._ints, self._den
            if den != 1:
                ints = {k: Fraction(s, den) if s % den else s // den
                        for k, s in ints.items()}
            view = self._view = MappingProxyType(ints)
        return view

    def _columns(self):
        """The column index {col: [(row, num), ...]} of the integer form,
        built once."""
        cols = self._cols
        if cols is None:
            cols = self._cols = {}
            for (i, k), v in self._ints.items():
                cols.setdefault(k, []).append((i, v))
        return cols

    @staticmethod
    def identity(space, field):
        one = field.one
        return LinMap(space, space, field, {(i, i): one for i in range(space.dim)})

    @staticmethod
    def zero(dom, cod, field):
        return LinMap(dom, cod, field, {})

    @staticmethod
    def from_rows(dom, cod, field, rows):
        return LinMap(dom, cod, field, {
            (i, j): v for i, row in enumerate(rows)
            for j, v in enumerate(row)})

    @staticmethod
    def from_columns(dom, cod, field, columns):
        return LinMap(dom, cod, field, {
            (i, j): v for j, col in enumerate(columns)
            for i, v in enumerate(col)})

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
        _require(len(vec) == self.dom.dim,
                 "a vector of %d coordinates for %r", len(vec), self)
        f = self.field
        out = [f.zero] * self.cod.dim
        for (i, j), v in self.entries.items():
            if vec[j]:
                out[i] = f.add(out[i], f.mul(v, vec[j]))
        return Vector(out)

    def __matmul__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        _require(self.dom.dim == other.cod.dim, "cannot compose %r after %r",
                 self, other)
        by_col = self._columns()
        out = {}
        get = out.get
        for (k, j), w in other._ints.items():
            for i, v in by_col.get(k, ()):
                key = (i, j)
                out[key] = get(key, 0) + v * w
        return _sum_map(other.dom, self.cod, self.field, out,
                        self._den * other._den)

    def __add__(self, other):
        return combine(((1, self), (1, other)))

    def __sub__(self, other):
        return combine(((1, self), (-1, other)))

    def scaled(self, c):
        return combine(((c, self),))

    def tensor(self, other):
        """Kronecker product, consistent with tensor_space index order."""
        dom = tensor_space(self.dom, other.dom)
        cod = tensor_space(self.cod, other.cod)
        bc, bd = other.cod.dim, other.dom.dim
        b = other._ints
        out = {}
        for (i1, j1), v1 in self._ints.items():
            for (i2, j2), v2 in b.items():
                out[(i1 * bc + i2, j1 * bd + j2)] = v1 * v2
        return _sum_map(dom, cod, self.field, out, self._den * other._den)

    def is_zero(self):
        return not self._ints

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (self.dom.dim == other.dom.dim and self.cod.dim == other.cod.dim
                and self._den == other._den and self._ints == other._ints)

    def __hash__(self):
        raise TypeError("LinMap is not hashable")

    def nonzero_column_index(self):
        """Smallest index of a column with a nonzero entry, or None."""
        return min((j for (_, j) in self._ints), default=None)

    def __repr__(self):
        return "LinMap(%d->%d, nnz=%d)" % (self.dom.dim, self.cod.dim,
                                           len(self._ints))


def combine(terms):
    """The map sum c * m over the pairs (c, m) of `terms`, a non-empty
    sequence of maps of one shape with scalar coefficients, formed in one
    pass over the lcm of the scaled denominators c.denominator * den; it
    has the spaces of the first map.  +, - and scaled are its cases."""
    _require(terms, "combine needs at least one term")
    m0 = terms[0][1]
    den = 1
    for c, m in terms:
        _require(m.dom.dim == m0.dom.dim and m.cod.dim == m0.cod.dim,
                 "cannot add %r to %r", m, m0)
        den = lcm(den, c.denominator * m._den)
    out = {}
    get = out.get
    for c, m in terms:
        s = c.numerator * (den // (c.denominator * m._den))
        for k, v in m._ints.items():
            out[k] = get(k, 0) + v * s
    return _sum_map(m0.dom, m0.cod, m0.field, out, den)


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
    _require(before * mid * right == m.dom.dim,
             "%r has no factor of dimension %d after one of %d",
             m, mid, before)
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
    mod p once, when the next stage or `map` reads it.  `map` returns the
    map in integer form (see LinMap).
    """

    def __init__(self, dims, field):
        self.dims = list(dims)
        self.field = field
        self.dom_dim = prod(self.dims)
        self.entries = None     # the identity
        self.den = 1

    @classmethod
    def after(cls, m, dims):
        """Continue from the map m, whose target splits into `dims`."""
        _require(m.cod.dim == prod(dims),
                 "the target of %r is not the product of %r", m, dims)
        pipe = cls(dims, m.field)
        pipe.dom_dim, pipe.entries, pipe.den = m.dom.dim, m._ints, m._den
        return pipe

    def permute(self, order):
        """Reorder the factors: factor k afterwards is factor order[k] now.

        Agrees with permute_factors(self.dims, order, field) @ self.map.
        The factors are cut in two where the sizes of the two runs balance,
        and each new row index is the sum of two lookups, the digits of the
        head and of the tail run at their new strides.  Where the two runs
        together have no more indices than the pipe has entries, the
        lookups are full tables over them (_digit_table); otherwise each
        sum is formed on its first lookup (_DigitSums), so the memory
        stays proportional to the entries.
        """
        dims = self.dims
        m = len(dims)
        _require(sorted(order) == list(range(m)),
                 "%r is no order of %d factors", order, m)
        if list(order) == list(range(m)):
            return self
        if self.entries is None:
            self.entries = {(i, i): 1 for i in range(self.dom_dim)}
        new_dims = [dims[k] for k in order]
        new_stride = [0] * m
        stride = 1
        for k in reversed(range(m)):
            new_stride[order[k]] = stride
            stride *= new_dims[k]
        cut = min(range(m + 1),
                  key=lambda t: prod(dims[:t]) + prod(dims[t:]))
        low = prod(dims[cut:])
        digits = _digit_table \
            if prod(dims[:cut]) + low <= len(self.entries) else _DigitSums
        head = digits(dims[:cut], new_stride[:cut])
        tail = digits(dims[cut:], new_stride[cut:])
        self.entries = {(head[i // low] + tail[i % low], j): v
                        for (i, j), v in self.entries.items()}
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
        """A row index is (l, k, r): l over the factors before the window,
        k over the window and r over the factors after it.  The entry loop
        splits off only the parts that a window can have: no l where it
        starts at the first factor, no r where it ends at the last."""
        out_dims = [op.cod.dim] if out_dims is None else list(out_dims)
        left = prod(self.dims[:start])
        mid = prod(self.dims[start:start + count])
        right = prod(self.dims[start + count:])
        width = prod(out_dims)
        _require(op.dom.dim == size * mid and op.cod.dim == width,
                 "%r does not map %d x %d to %d", op, size, mid, width)
        src = self.dom_dim
        entries = self.entries
        out = {}
        if entries is None:
            # id (x) op (x) id, each entry written once: source column
            # (b, l, k, r) goes to row (l, i, r) for op entry (i, (b, k))
            terms = []
            for (i, c), w in op._ints.items():
                b, k = divmod(c, mid)
                terms.append((i * right, b * src + k * right, w))
            for l in range(left):
                rl, cl = l * width * right, l * mid * right
                if right == 1:
                    for ir, ck, w in terms:
                        out[(rl + ir, cl + ck)] = w
                else:
                    for ir, ck, w in terms:
                        row, col = rl + ir, cl + ck
                        for r in range(right):
                            out[(row + r, col + r)] = w
        else:
            p = self.field.char
            if p:
                entries = {k: r for k, v in entries.items() if (r := v % p)}
            get = out.get
            if size != 1:
                # a family: op column (b, k) feeds source column (b, j)
                by_col = {}
                for c, at in op._columns().items():
                    b, k = divmod(c, mid)
                    by_col.setdefault(k, []).extend(
                        (i, b * src, w) for i, w in at)
                for (row, j), v in entries.items():
                    lk, r = row // right, row % right
                    l, k = lk // mid, lk % mid
                    base = l * width
                    for i, b, w in by_col.get(k, ()):
                        key = ((base + i) * right + r, b + j)
                        out[key] = get(key, 0) + w * v
            elif right == 1:
                by_col = op._columns()
                for (row, j), v in entries.items():
                    l, k = row // mid, row % mid
                    base = l * width
                    for i, w in by_col.get(k, ()):
                        key = (base + i, j)
                        out[key] = get(key, 0) + w * v
            elif left == 1:
                by_col = op._columns()
                for (row, j), v in entries.items():
                    k, r = row // right, row % right
                    for i, w in by_col.get(k, ()):
                        key = (i * right + r, j)
                        out[key] = get(key, 0) + w * v
            else:
                by_col = op._columns()
                for (row, j), v in entries.items():
                    lk, r = row // right, row % right
                    l, k = lk // mid, lk % mid
                    base = l * width
                    for i, w in by_col.get(k, ()):
                        key = ((base + i) * right + r, j)
                        out[key] = get(key, 0) + w * v
        self.entries = out
        self.den *= op._den
        self.dims[start:start + count] = out_dims
        self.dom_dim = size * src
        return self

    @property
    def map(self):
        if self.entries is None:
            return LinMap.identity(Space(self.dom_dim), self.field)
        return _sum_map(Space(self.dom_dim), Space(prod(self.dims)),
                        self.field, self.entries, self.den)


def _digit_table(dims, strides):
    """The list t with t[x] = sum of digit f of x times strides[f], for x
    a flat index over the factors `dims` (tensor_space order)."""
    table = [0]
    for d, w in zip(reversed(dims), reversed(strides)):
        table = [a + y for a in range(0, d * w, w) for y in table]
    return table


class _DigitSums(dict):
    """_digit_table(dims, strides) as a dict that forms each entry on its
    first lookup."""

    def __init__(self, dims, strides):
        super().__init__()
        self.places = list(zip(reversed(dims), reversed(strides)))

    def __missing__(self, x):
        s, rest = 0, x
        for d, w in self.places:
            rest, digit = divmod(rest, d)
            s += digit * w
        self[x] = s
        return s


def permute_factors(dims, perm, field):
    """Permutation of tensor factors.

    `dims` are the factor dimensions of the source, in order.  The map sends
    the source basis tensor (i_0, ..., i_{m-1}) to the target basis tensor
    (i_{perm[0]}, ..., i_{perm[m-1]}); target factor k has dimension
    dims[perm[k]].
    """
    return Pipe(dims, field).permute(perm).map


def _eliminate(rows, ncols, field):
    """Sparse Gauss-Jordan elimination on the integer form: rows {col:
    value} of integers over Q (scaling a row changes no result) and of
    residues over F_p.  No Fraction is formed.

    Pivots are taken in the columns below `ncols`; the columns from `ncols`
    on (right-hand sides) are carried along.  The row dicts are consumed.
    Returns (pivots, den, rest): `pivots` lists (column, row) by increasing
    column, the nonzero rows of the reduced row echelon form as integer
    numerators over den (1 over F_p), each den at its own pivot and 0 at
    the other pivots; `rest` holds the nonzero rows left with no entry
    below `ncols`.

    Columns are taken left to right; in each, a shortest unfinished row
    with an entry there becomes the pivot row, to keep fill-in low.  The
    reduced echelon form is unique, so the choice changes no result.  Rows
    are reduced by cross-multiplication (_reduce), and each pivot row is
    divided by its pivot once: over F_p when taken, over Q at the end.
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
        if p and row[c] != 1:
            inv = pow(row[c], p - 2, p)
            row = {j: v * inv % p for j, v in row.items()}
        for i in using:
            _reduce(live[i], row, c, p, where, i)
        done.append((c, row))
    # Back substitution.  A pivot row holds only pivot columns to the right
    # of its own, and those rows are fully reduced when it is reached.
    at = dict(done)
    for c, row in reversed(done):
        for j in [j for j in row if j != c and j in at]:
            _reduce(row, at[j], j, p)
    den = reduce(lcm, (row[c] for c, row in done), 1)
    for c, row in done:
        s = den // row[c]
        if s != 1:
            for j in row:
                row[j] *= s
    return done, den, [row for row in live.values() if row]


def _reduce(row, pivot_row, c, p, where=(), i=None):
    """row := (pv/g) row - (f/g) pivot_row, with pv = pivot_row[c],
    f = row[c] and g = gcd(pv, f), which clears row at c; the entries that
    cancel are dropped.  Over Q the row is then divided by its content
    where pv/g is not +-1; over F_p (pv = 1) entries are reduced mod p.
    A given column index `where` is kept up to date for row i."""
    pv, f = pivot_row[c], row[c]
    g = gcd(pv, f)
    a, b = pv // g, f // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for j in row:
            row[j] *= a
    for j, v in pivot_row.items():
        new = row.get(j, 0) - b * v
        if p:
            new %= p
        if new:
            if j in where and j not in row:
                where[j].add(i)
            row[j] = new
        else:   # only an old entry cancels: b and v are nonzero
            del row[j]
            if j in where:
                where[j].discard(i)
    if a != 1 and (g := reduce(gcd, row.values(), 0)) > 1:
        for j in row:
            row[j] //= g


def _row_dicts(m):
    """The rows of m's integer form as dicts {col: value}."""
    rows = [{} for _ in range(m.cod.dim)]
    for (i, j), v in m._ints.items():
        rows[i][j] = v
    return rows


def rref(m):
    """Reduced row echelon form: (reduced LinMap, pivot columns, rank)."""
    pivots, den, _ = _eliminate(_row_dicts(m), m.dom.dim, m.field)
    nums = {(r, j): v for r, (_, row) in enumerate(pivots)
            for j, v in row.items()}
    return (_sum_map(m.dom, m.cod, m.field, nums, den),
            tuple(c for c, _ in pivots), len(pivots))


def rank(m):
    """Number of pivots of rref(m)."""
    return rref(m)[2]


def kernel(m):
    """Basis of the kernel, as columns of a LinMap into m.dom."""
    pivots, den, _ = _eliminate(_row_dicts(m), m.dom.dim, m.field)
    free, nums = _null_basis(pivots, den, m.dom.dim)
    return _sum_map(Space(len(free), "ker"), m.dom, m.field, nums, den)


def _null_basis(pivots, den, n):
    """Kernel basis of the reduced echelon form over den of _eliminate,
    with n columns: (free, nums), `free` numbering the non-pivot columns
    in order, {column: k}, and nums over den the entries {(coordinate, k):
    value} of the k-th kernel vector, 1 at the k-th non-pivot column c and
    minus each pivot row's entry at c at that row's pivot."""
    taken = {c for c, _ in pivots}
    free = {c: k for k, c in
            enumerate(c for c in range(n) if c not in taken)}
    nums = {(c, k): den for c, k in free.items()}
    for pc, row in pivots:
        for c, v in row.items():
            if c != pc:
                nums[(pc, free[c])] = -v
    return free, nums


def _solution(m, targets):
    """One X with m @ X == targets (a map into m.cod), free variables 0,
    or raise NoSolution.  All columns share one elimination of the integer
    form of [m | targets], scaled to the lcm of the two denominators; a
    pivot variable takes its row's reduced entry."""
    n = m.dom.dim
    rows = _row_dicts(m)
    dm, nt, dt = m._den, targets._ints, targets._den
    g = gcd(dm, dt)
    if dt != g:
        rows = [{j: v * (dt // g) for j, v in row.items()} for row in rows]
    for (i, j), v in nt.items():
        rows[i][n + j] = v * (dm // g)
    pivots, den, rest = _eliminate(rows, n, m.field)
    if rest:
        raise NoSolution("inconsistent system")
    return _sum_map(targets.dom, m.dom, m.field,
                    {(c, j - n): v for c, row in pivots
                     for j, v in row.items() if j >= n}, den)


def solve_many(m, targets):
    """One X with m @ X == targets, or raise NoSolution.

    `targets` is a map into m.cod; column j of X is solve(m, column j of
    targets), but all columns share one elimination.
    """
    _require(targets.cod.dim == m.cod.dim,
             "targets %r are not in the target of %r", targets, m)
    return _solution(m, targets)


def solve(m, target):
    """One solution of m v = target, or raise NoSolution."""
    _require(len(target) == m.cod.dim, "a target of %d coordinates for %r",
             len(target), m)
    rhs = LinMap.from_columns(Space(1), m.cod, m.field, [target])
    return _solution(m, rhs).column(0)


def invert(m):
    """Two sided inverse, or raise NotInvertible."""
    if m.dom.dim != m.cod.dim:
        raise NotInvertible("not square")
    f = m.field
    ident = LinMap.identity(m.cod, f)
    try:
        inv = _solution(m, ident)
    except NoSolution:
        raise NotInvertible("not surjective")
    if m @ inv != ident or inv @ m != LinMap.identity(m.dom, f):
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
        if self.free:   # m read into the quotient, sharing its form
            _require(m.cod.dim == self.ambient.dim,
                     "%r does not map into %r", m, self)
            return _born(m.dom, self.quotient, m.field, m._ints, m._den)
        return self.projection @ m

    def lift(self, m):
        """m @ section: a map on the ambient, evaluated on the lifts of the
        quotient basis."""
        if self.free:
            _require(m.dom.dim == self.ambient.dim,
                     "%r is not a map on %r", m, self)
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
    nums, den = m._ints, m._den
    return (m.dom.dim == m.cod.dim and len(nums) == m.dom.dim and den == 1
            and all(i == j and v == 1 for (i, j), v in nums.items()))


def quotient_by(ambient, relations, field, label=""):
    """Present ambient / span(relation columns).

    The section picks out the non-pivot coordinates of the column-reduced
    relation matrix, so results are deterministic given the input order.
    """
    _require(relations.cod.dim == ambient.dim,
             "relations %r are not in %r", relations, ambient)
    f = field
    # column echelon form of the relations = row echelon of the transpose;
    # each pivot row is an echelon basis vector of the span
    rows = [{} for _ in range(relations.dom.dim)]
    for (i, j), v in relations._ints.items():
        rows[j][i] = v
    pivots, den, _ = _eliminate(rows, ambient.dim, f)
    free, nums = _null_basis(pivots, den, ambient.dim)
    quotient = Space(len(free), label or (ambient.label + "/~"))
    # projection: subtract v[p_k] * w_k for each echelon vector, keep the
    # non-pivots; that is the transpose of the null basis
    projection = _sum_map(ambient, quotient, f,
                          {(k, i): v for (i, k), v in nums.items()}, den)
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
    _require(f_free.dom.dim == src.ambient.dim and
             f_free.cod.dim == dst.ambient.dim,
             "%r is not a map %r -> %r", f_free, src, dst)
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
