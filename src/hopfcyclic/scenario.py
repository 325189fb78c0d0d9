"""Scenario documents: declarative JSON inputs naming structures and tasks.

A scenario fixes a ground field, defines named objects (algebras,
algebroids, coefficients, measurings, Lie-Rinehart pairs, operads), and
lists tasks to run against them.  Running a scenario produces a report
that serializes deterministically, so two runs of the same document give
byte-identical JSON.
"""

from fractions import Fraction
import json

from .exactlin import (
    DescentFailure, FieldSpec, LinMap, NoSolution, NotInvertible, QQ, Space,
    Vector,
)
from .algcore import AlgebraData, Report, check_algebra, check_coalgebra
from .hopfalgebroid import (
    check_antipode, check_hopf_galois, check_left_bialgebroid,
    check_sayd, check_yd_algebra, dual_numbers, group_algebra,
    group_hopf_algebroid, NotScalarBase, NotTheBase, pair_hopf_algebroid,
    scalar_algebra, scalar_sayd, scalar_yd_algebra, split_pair_algebra,
    base_sayd_for_pair, trivial_hopf_algebroid,
)
from .measuring import (
    ComoduleMeasuringData, check_hopf_algebroid_measuring,
    check_sayd_comodule_measuring, derivation_pair_comodule_measuring,
    derivation_pair_measuring, identity_comodule_measuring,
    identity_measuring, point_coalgebra, primitive_pair_coalgebra,
    zero_primitive_comodule_measuring, zero_primitive_measuring,
)
from .cyclichom import (
    CharNotZero, build_cocyclic_CU, build_cocyclic_with_coeffs,
    build_cyclic_CU, build_cyclic_with_coeffs, check_chain_map,
    check_cyclic_module, homology, hopf_galois_square, induced_cyclic_map,
    measured_ends,
)
from .lierinehart import (
    abelian_lr, check_lie_rinehart, check_lr_complex, lie_rinehart_homology,
    nonabelian_2d,
)
from .operadcyc import (
    CertificateFailure, StabilityFailure, check_comp_module, check_operad,
    build_yd_comp_module, build_yd_operad, one_dimensional_comp_module,
    one_dimensional_operad,
)


class ParseError(Exception):
    pass


class ReferenceError(ParseError):
    """A task or definition names an object that does not exist."""


class DimensionMismatch(ParseError):
    pass


def _field_of(name):
    if name == "Q":
        return QQ
    if isinstance(name, str) and name.startswith("F") and name[1:].isdigit():
        try:
            p = int(name[1:])
            if p:  # FieldSpec(0) would be Q
                return FieldSpec(p)
        except ValueError:
            pass
        raise ParseError("not a prime field: %r" % name)
    raise ParseError("unknown field %r" % name)


def _is_int(v):
    """Whether v is a JSON integer (a JSON bool is not one)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _scalar(field, v, where):
    """Scalars appear as ints or as strings like "-3/2"."""
    try:
        if _is_int(v):
            return field.of_int(v)
        if isinstance(v, str):
            return field.parse(v)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError("bad scalar %r in %s: %s" % (v, where, e))
    raise ParseError("bad scalar %r in %s" % (v, where))


def _count(v, what, least=0):
    """An int >= least from the document."""
    if not _is_int(v) or v < least:
        raise ParseError("%s must be an integer >= %d, got %r"
                         % (what, least, v))
    return v


def _coefficient_preset(make, where):
    """make(), a coefficient preset; a scalar preset over a base algebra
    that is not the ground field, or a base preset given another algebra
    than the base, rejects the document."""
    try:
        return make()
    except (NotScalarBase, NotTheBase) as e:
        raise ParseError("%s: %s" % (where, e))


def _over(x, h, where, objects):
    """x, a coefficient object that must live over the Hopf algebroid h:
    its towers and operators are those of x.h.  `objects` names them."""
    if x.h is not h:
        def name(o):
            return next((n for n, (_, v) in objects.items() if v is o),
                        o.label)
        raise ParseError("%s is over %r, not over %r"
                         % (where, name(x.h), name(h)))
    return x


def _section(data, key):
    """data[key], absent meaning {}; it must be a JSON object."""
    v = data.get(key, {})
    if not isinstance(v, dict):
        raise ParseError("%s must be a JSON object" % key)
    return v


def _sparse(field, rows, key, arity, dim, where):
    """The nonzero entries {indices: scalar} of the sparse list `rows`
    under `key`.  A row is `arity` integer indices in range(dim), then one
    scalar (see `_scalar`) or an integer numerator/denominator pair; the
    scalars of a repeated index tuple add up."""
    if not isinstance(rows, list):
        raise ParseError("%s in %s must be a list of rows" % (key, where))
    entries = {}
    for row in rows:
        if not (isinstance(row, list) and arity < len(row) <= arity + 2
                and all(_is_int(i) for i in row[:arity])):
            raise ParseError(
                "a row of %s in %s must be %d integer indices and a scalar "
                "or an integer numerator/denominator pair, got %r"
                % (key, where, arity, row))
        idx, c = tuple(row[:arity]), row[arity:]
        if not all(0 <= i < dim for i in idx):
            raise DimensionMismatch(
                "%s index out of range in %s" % (key, where))
        if len(c) == 1:
            c = _scalar(field, c[0], where)
        elif _is_int(c[0]) and _is_int(c[1]):
            try:
                c = field.of_int(*c)
            except ZeroDivisionError as e:
                raise ParseError("bad scalar %r in %s: %s" % (c, where, e))
        else:
            raise ParseError("bad scalar %r in %s" % (c, where))
        entries[idx] = field.add(entries.get(idx, field.zero), c)
    return {k: v for k, v in entries.items() if v}


_CATEGORIES = ("algebras", "coalgebras", "hopf_algebroids", "sayd_modules",
               "yd_algebras", "measurings", "comodule_measurings",
               "lie_rinehart", "operads", "comp_modules")

# the keys a task reads besides kind and object, by kind and category of
# its object; any other category or key rejects the document
_MEASURINGS = ("measurings", "comodule_measurings")
_TASK_KEYS = {
    "validate": {cat: () for cat in _CATEGORIES},
    "homology": {"hopf_algebroids": ("max_degree", "theory", "variant",
                                     "normalized", "coefficients"),
                 "lie_rinehart": ("max_degree",)},
    "measure": {cat: () for cat in _MEASURINGS},
    "induced": {cat: ("element", "variant", "max_degree")
                for cat in _MEASURINGS},
    "hopf_galois": {cat: ("element", "max_degree") for cat in _MEASURINGS},
}


# the task keys with a fixed set of values, as (default, values)
_CHOICES = {"variant": ("cyclic", ("cyclic", "cocyclic")),
            "theory": ("HC", ("HH", "HC"))}


def _check_homology_options(t, where):
    """The variant, theory and normalized flag of a task, defaults filled
    in, as a dict; normalized homology exists for HH on the chain side
    only."""
    opts = {}
    for key, (default, values) in _CHOICES.items():
        v = opts[key] = t.get(key, default)
        if v not in values:
            raise ParseError("%s in %s must be one of %s, got %r"
                             % (key, where, "/".join(values), v))
    normalized = opts["normalized"] = t.get("normalized", False)
    if not isinstance(normalized, bool):
        raise ParseError("normalized in %s must be true or false, got %r"
                         % (where, normalized))
    if normalized and (opts["theory"], opts["variant"]) != ("HH", "cyclic"):
        raise ParseError("normalized in %s needs a homology task with "
                         "theory HH and variant cyclic" % where)
    return opts


class ScenarioDocument:
    def __init__(self, data, name="scenario", field_override=None):
        if not isinstance(data, dict):
            raise ParseError("scenario must be a JSON object")
        self.name = data.get("name", name)
        fname = field_override or data.get("field", "Q")
        self.field_name = fname
        self.field = _field_of(fname)
        self.data = data
        self.objects = self.build_objects()
        self.elements = self._parse_elements()
        self.tasks = self._parse_tasks()

    # -- object resolution ------------------------------------------------

    def build_objects(self):
        """Instantiate every named definition."""
        objects = {}

        def define(name, cat, obj):
            if name in objects:
                raise ParseError("duplicate definition %r" % name)
            objects[name] = (cat, obj)

        def ref(name, cats, where):
            if not isinstance(name, str) or name not in objects:
                raise ReferenceError(
                    "unknown reference %r in %s" % (name, where))
            cat, obj = objects[name]
            if cat not in cats:
                raise ReferenceError(
                    "%r referenced in %s is a %s, expected one of %s"
                    % (name, where, cat, "/".join(cats)))
            return obj

        def definitions(cat):
            defs = _section(self.data, cat)
            for name, d in defs.items():
                if not isinstance(d, dict):
                    raise ParseError("%s %r must be a JSON object"
                                     % (cat, name))
            return defs.items()

        f = self.field
        for name, d in definitions("algebras"):
            define(name, "algebras", self._make_algebra(name, d))
        for name, d in definitions("coalgebras"):
            preset = d.get("preset")
            if preset == "point":
                define(name, "coalgebras", point_coalgebra(f))
            elif preset == "primitive_pair":
                define(name, "coalgebras", primitive_pair_coalgebra(f))
            else:
                raise ParseError("unknown coalgebra preset %r" % preset)
        for name, d in definitions("hopf_algebroids"):
            if "pair_of" in d:
                A = ref(d["pair_of"], ("algebras",), "hopf_algebroid " + name)
                define(name, "hopf_algebroids", pair_hopf_algebroid(A, name))
                continue
            preset = d.get("preset")
            if preset == "trivial":
                h = trivial_hopf_algebroid(f)
            elif preset == "group_c2":
                h = group_hopf_algebroid(2, f)
            elif preset == "group_c3":
                h = group_hopf_algebroid(3, f)
            elif preset == "pair_dual":
                h = pair_hopf_algebroid(dual_numbers(f), name)
            elif preset == "pair_split":
                h = pair_hopf_algebroid(split_pair_algebra(f), name)
            else:
                raise ParseError("unknown hopf_algebroid preset %r" % preset)
            define(name, "hopf_algebroids", h)
        for name, d in definitions("sayd_modules"):
            h = ref(d.get("hopf"), ("hopf_algebroids",), "sayd " + name)
            preset = d.get("preset")
            if preset == "scalar":
                define(name, "sayd_modules", _coefficient_preset(
                    lambda: scalar_sayd(h, name), "sayd %r" % name))
            elif preset == "base_pair":
                A = ref(d.get("algebra"), ("algebras",), "sayd " + name)
                define(name, "sayd_modules", _coefficient_preset(
                    lambda: base_sayd_for_pair(h, A), "sayd %r" % name))
            else:
                raise ParseError("unknown sayd preset %r" % preset)
        for name, d in definitions("yd_algebras"):
            h = ref(d.get("hopf"), ("hopf_algebroids",), "yd_algebra " + name)
            if d.get("preset") != "scalar":
                raise ParseError(
                    "unknown yd_algebra preset %r" % d.get("preset"))
            define(name, "yd_algebras", _coefficient_preset(
                lambda: scalar_yd_algebra(h), "yd_algebra %r" % name))
        for name, d in definitions("measurings"):
            h = ref(d.get("hopf"), ("hopf_algebroids",), "measuring " + name)
            preset = d.get("preset")
            if preset == "identity":
                define(name, "measurings", identity_measuring(h))
            elif preset == "zero_primitive":
                define(name, "measurings", zero_primitive_measuring(h, name))
            elif preset == "pair_derivation":
                delta = self._make_derivation(h.A, d, "measuring " + name)
                define(name, "measurings",
                       derivation_pair_measuring(h, delta, name))
            else:
                raise ParseError("unknown measuring preset %r" % preset)
        for name, d in definitions("comodule_measurings"):
            where = "comodule_measuring " + name
            p = ref(d.get("sayd"), ("sayd_modules",), where)
            preset = d.get("preset")
            if preset == "identity":
                h = ref(d.get("hopf"), ("hopf_algebroids",), where)
                _over(p, h, "the sayd of " + where, objects)
                define(name, "comodule_measurings",
                       identity_comodule_measuring(h, p, name))
                continue
            m = ref(d.get("measuring"), ("measurings",), where)
            # the measurings of these presets map an algebroid to itself
            _over(p, m.src, "the sayd of " + where, objects)
            if preset == "zero_primitive":
                define(name, "comodule_measurings",
                       zero_primitive_comodule_measuring(m, p, name))
            elif preset == "pair_derivation":
                define(name, "comodule_measurings",
                       derivation_pair_comodule_measuring(m, p, name))
            else:
                raise ParseError(
                    "unknown comodule_measuring preset %r" % preset)
        for name, d in definitions("lie_rinehart"):
            preset = d.get("preset")
            if preset == "nonabelian_2d":
                define(name, "lie_rinehart", nonabelian_2d(f))
            elif preset == "abelian":
                dim = _count(d.get("dim", 1), "dim of lie_rinehart %r" % name)
                define(name, "lie_rinehart", abelian_lr(dim, f))
            else:
                raise ParseError("unknown lie_rinehart preset %r" % preset)
        for name, d in definitions("operads"):
            preset = d.get("preset")
            # the YD operad's multiplication lives in arity 2
            top = _count(d.get("max_arity", 3),
                         "max_arity of operad %r" % name,
                         2 if preset == "yd" else 0)
            if preset == "one_dimensional":
                define(name, "operads", one_dimensional_operad(f, top))
            elif preset == "yd":
                h = ref(d.get("hopf"), ("hopf_algebroids",),
                        "operad " + name)
                z = ref(d.get("yd_algebra"), ("yd_algebras",),
                        "operad " + name)
                _over(z, h, "the yd_algebra of operad " + name, objects)
                define(name, "operads", build_yd_operad(h, z, top))
            else:
                raise ParseError("unknown operad preset %r" % preset)
        for name, d in definitions("comp_modules"):
            od = ref(d.get("operad"), ("operads",), "comp_module " + name)
            preset = d.get("preset")
            top = _count(d.get("max_degree", od.N),
                         "max_degree of comp_module %r" % name)
            if preset == "one_dimensional":
                define(name, "comp_modules",
                       one_dimensional_comp_module(od, top))
            elif preset == "yd":
                h = ref(d.get("hopf"), ("hopf_algebroids",),
                        "comp_module " + name)
                l = ref(d.get("sayd"), ("sayd_modules",),
                        "comp_module " + name)
                z = ref(d.get("yd_algebra"), ("yd_algebras",),
                        "comp_module " + name)
                _over(l, h, "the sayd of comp_module " + name, objects)
                _over(z, h, "the yd_algebra of comp_module " + name,
                      objects)
                define(name, "comp_modules",
                       build_yd_comp_module(h, l, z, od, top))
            else:
                raise ParseError("unknown comp_module preset %r" % preset)
        return objects

    def _make_algebra(self, name, d):
        f = self.field
        if "preset" in d:
            preset = d["preset"]
            if preset == "scalar":
                return scalar_algebra(f)
            if preset == "dual_numbers":
                return dual_numbers(f)
            if preset == "split_pair":
                return split_pair_algebra(f)
            if preset == "group":
                order = _count(d.get("order", 2),
                               "order of algebra %r" % name, 1)
                return group_algebra(order, f)
            raise ParseError("unknown algebra preset %r" % preset)
        where = "algebra " + name
        dim = _count(d.get("dim"), "dim of algebra %r" % name, 1)
        unit = d.get("unit")
        if not isinstance(unit, list) or len(unit) != dim:
            raise DimensionMismatch(
                "unit of %s must have %d coordinates" % (name, dim))
        sp = Space(dim, name)
        uvec = tuple(_scalar(f, v, where) for v in unit)
        entries = _sparse(f, d.get("mul", []), "mul", 3, dim, where)
        mul = LinMap(Space(dim * dim), sp, f, {
            (k, i * dim + j): c for (i, j, k), c in entries.items()})
        return AlgebraData(sp, mul, uvec, f, name)

    def _make_derivation(self, A, d, where):
        f = self.field
        return LinMap(A.space, A.space, f, _sparse(
            f, d.get("derivation", []), "derivation", 2, A.space.dim, where))

    def _parse_elements(self):
        f = self.field
        out = {}
        for name, coords in _section(self.data, "elements").items():
            if not isinstance(coords, list):
                raise ParseError("element %r must be a coordinate list" % name)
            out[name] = tuple(
                _scalar(f, v, "element " + name) for v in coords)
        return out

    def _parse_tasks(self):
        tasks = self.data.get("tasks", [])
        if not isinstance(tasks, list):
            raise ParseError("tasks must be a list")
        norm = []
        for idx, t in enumerate(tasks):
            where = "task %d" % idx
            if not isinstance(t, dict):
                raise ParseError(where + " must be an object")
            kind = t.get("kind")
            if not isinstance(kind, str) or kind not in _TASK_KEYS:
                raise ParseError("unknown task kind %r in %s" % (kind, where))
            name = t.get("object")
            if not isinstance(name, str) or name not in self.objects:
                raise ReferenceError(
                    "unknown reference %r in %s" % (name, where))
            cat, obj = self.objects[name]
            cats = _TASK_KEYS[kind]
            if cat not in cats:
                raise ReferenceError(
                    "%s task on %r in %s: it is a %s, expected one of %s"
                    % (kind, name, where, cat, "/".join(cats)))
            unread = sorted(set(t) - {"kind", "object", *cats[cat]})
            if unread:
                raise ParseError("%s task on %r in %s does not read %s" % (
                    kind, name, where, ", ".join(map(repr, unread))))
            task = dict(t)
            task["max_degree"] = _count(t.get("max_degree", 3),
                                        "max_degree in " + where)
            task.update(_check_homology_options(t, where))
            task["_index"] = idx
            coeff = t.get("coefficients")
            if coeff is not None:
                ccat, p = self.objects.get(coeff, (None, None)) \
                    if isinstance(coeff, str) else (None, None)
                if ccat != "sayd_modules":
                    raise ReferenceError("coefficients %r in %s name no "
                                         "sayd module" % (coeff, where))
                task["_coefficients"] = _over(
                    p, obj, "coefficients %r in %s" % (coeff, where),
                    self.objects)
            if "element" in cats[cat]:
                ename = t.get("element")
                if not isinstance(ename, str) or ename not in self.elements:
                    raise ReferenceError(
                        "unknown element %r in %s" % (ename, where))
                C = obj.base.C if isinstance(obj, ComoduleMeasuringData) \
                    else obj.C
                vec = task["_vector"] = self.elements[ename]
                if len(vec) != C.space.dim:
                    raise DimensionMismatch(
                        "element %r has %d coordinates, coalgebra has "
                        "dimension %d" % (ename, len(vec), C.space.dim))
            norm.append(task)
        return norm

    def to_json(self):
        """Scenario serialization; parsing the result reproduces the
        document."""
        return json.dumps(self.data, separators=(",", ":"), sort_keys=False)


def parse_scenario(path, field_override=None):
    with open(path, "r") as fh:
        text = fh.read()
    return parse_scenario_text(text, name=_basename(path),
                               field_override=field_override)


def parse_scenario_text(text, name="scenario", field_override=None):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("invalid JSON: %s" % e)
    return ScenarioDocument(data, name=name, field_override=field_override)


def _basename(path):
    base = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    return base[:-5] if base.endswith(".json") else base


# -- running ---------------------------------------------------------------

class ReportDocument:
    def __init__(self, scenario=None, field=None):
        self.scenario = scenario
        self.field = field
        self.tasks = []

    def to_dict(self):
        out = {"version": 1}
        if self.scenario is not None:
            out["scenario"] = self.scenario
            out["field"] = self.field
        out["tasks"] = self.tasks
        return out

    def counts(self):
        passed = sum(1 for t in self.tasks if t["status"] == "pass")
        failed = sum(1 for t in self.tasks if t["status"] == "fail")
        errors = sum(1 for t in self.tasks if t["status"] == "error")
        return passed, failed, errors

    @property
    def ok(self):
        _, failed, errors = self.counts()
        return failed == 0 and errors == 0


def _jsonable(v, field):
    """A witness as JSON.  Scalars sit in Vectors and are rendered by the
    field; every other int is an index or a count.  A bare Fraction can only
    be a scalar, so it is rendered by the field too."""
    if isinstance(v, Vector):
        return [field.to_json(x) for x in v]
    if isinstance(v, Fraction):
        return field.to_json(v)
    if isinstance(v, (tuple, list)):
        return [_jsonable(x, field) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x, field) for k, x in sorted(v.items())}
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    return repr(v)


def _checks_of(rep, field):
    out = []
    for r in rep.results:
        c = {"name": r.name, "passed": r.passed}
        if not r.passed and r.witness is not None:
            c["witness"] = _jsonable(r.witness, field)
        out.append(c)
    return out


_VALIDATORS = {
    "algebras": lambda a: check_algebra(a),
    "coalgebras": lambda c: check_coalgebra(c),
    "sayd_modules": check_sayd,
    "yd_algebras": check_yd_algebra,
    "measurings": check_hopf_algebroid_measuring,
    "comodule_measurings": check_sayd_comodule_measuring,
    "operads": check_operad,
    "comp_modules": check_comp_module,
}


def _validate(cat, obj):
    if cat == "hopf_algebroids":
        # the hopf: block repeats the bialgebroid checks; they run once
        rep = check_left_bialgebroid(obj)
        hopf = Report().extend(rep).extend(check_antipode(obj))
        rep.extend(hopf, "hopf:")
        rep.extend(check_hopf_galois(obj), "galois:")
        return rep
    if cat == "lie_rinehart":
        rep = check_lie_rinehart(obj)
        rep.extend(check_lr_complex(obj), "complex:")
        return rep
    return _VALIDATORS[cat](obj)


def _cyclic_module(h, p, variant, N):
    """The (co)cyclic module of h up to degree N, with coefficients in p
    (or None)."""
    if p is None:
        build = build_cyclic_CU if variant == "cyclic" else build_cocyclic_CU
        return build(h, N)
    build = (build_cyclic_with_coeffs if variant == "cyclic"
             else build_cocyclic_with_coeffs)
    return build(h, p, N)


def _homology(task, cat, obj, top):
    if cat == "lie_rinehart":
        return "LR", lie_rinehart_homology(obj, top)
    cm = _cyclic_module(obj, task.get("_coefficients"), task["variant"],
                        top + 1)
    return task["theory"], homology(cm, task["theory"],
                                    task["normalized"]).dims


def _induced(task, obj, top):
    variant = task["variant"]
    maps = induced_cyclic_map(obj, task["_vector"], top, variant)
    ends = measured_ends(obj)
    # a measuring of one object into itself has one module at both ends
    same = all(a is b for a, b in zip(*ends))
    src = _cyclic_module(*ends[0], variant, top)
    dst = src if same else _cyclic_module(*ends[1], variant, top)
    src_rep = check_cyclic_module(src)
    dst_rep = src_rep if same else check_cyclic_module(dst)
    rep = check_chain_map(src, dst, maps)
    rep.extend(src_rep, "src:")
    rep.extend(dst_rep, "dst:")
    return rep


_TASK_ERRORS = (CharNotZero, DescentFailure, StabilityFailure,
                CertificateFailure, NoSolution, NotInvertible, ParseError,
                ZeroDivisionError, AssertionError)


def _run_task(task, objects, field, max_degree):
    kind = task["kind"]
    name = task["object"]
    cat, obj = objects[name]
    record = {"index": task["_index"], "kind": kind, "object": name}
    top = max_degree if max_degree is not None else task["max_degree"]
    try:
        if kind in ("validate", "measure"):
            rep = _validate(cat, obj)
            record["status"] = "pass" if rep.ok else "fail"
            record["checks"] = _checks_of(rep, field)
        elif kind == "homology":
            theory, dims = _homology(task, cat, obj, top)
            record["theory"] = theory
            record["table"] = [{"degree": n, "dim": d}
                               for n, d in enumerate(dims)]
            record["status"] = "pass"
        elif kind == "induced":
            record["element"] = task["element"]
            rep = _induced(task, obj, top)
            record["status"] = "pass" if rep.ok else "fail"
            record["certificate"] = _checks_of(rep, field)
        elif kind == "hopf_galois":
            record["element"] = task["element"]
            rep = hopf_galois_square(obj, task["_vector"], top)
            record["status"] = "pass" if rep.ok else "fail"
            record["checks"] = _checks_of(rep, field)
    except _TASK_ERRORS as e:
        record["status"] = "error"
        record["error"] = type(e).__name__
        record["detail"] = str(e)
    return record


def run(document, kinds=None, max_degree=None):
    """Run the document's tasks in order.  A failing task is recorded and
    the remaining tasks still run."""
    report = ReportDocument(document.name, document.field_name)
    tasks = [t for t in document.tasks
             if kinds is None or t["kind"] in kinds]
    for task in tasks:
        report.tasks.append(_run_task(task, document.objects,
                                      document.field, max_degree))
    return report


# -- emission ----------------------------------------------------------------

def emit(report, format="json"):
    if format == "json":
        return json.dumps(report.to_dict(), separators=(",", ":"))
    if format != "text":
        raise ValueError("unknown format %r" % format)
    lines = []
    if report.scenario is not None:
        lines.append("scenario %s over %s" % (report.scenario, report.field))
    for t in report.tasks:
        head = "[%d] %s %s: %s" % (t.get("index", 0), t["kind"],
                                   t["object"], t["status"].upper())
        if t["status"] == "error":
            head += " (%s: %s)" % (t["error"], t["detail"])
        lines.append(head)
        if "table" in t:
            lines.append("    %s dims: %s" % (
                t.get("theory", ""),
                " ".join(str(r["dim"]) for r in t["table"])))
        for c in t.get("checks", []) + t.get("certificate", []):
            if not c["passed"]:
                lines.append("    FAIL %s witness=%r"
                             % (c["name"], c.get("witness")))
    passed, failed, errors = report.counts()
    lines.append("total: %d passed, %d failed, %d errors"
                 % (passed, failed, errors))
    return "\n".join(lines)
