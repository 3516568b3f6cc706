"""Span tracing of dihedralcovers from outside the package.

The tracer replaces each traced function with a wrapper that records a
span (name, start, end, parent span, op id) and, for a few functions,
shape counters (matrix cells, degrees, coefficient bit length).  A
function imported with ``from .poly import poly_gcd`` lives on in the
importing module's namespace, so every module-level reference to the
original object in the package is rebound as well; ``uninstall`` puts
all of them back.

Construction counts of ``FpElem`` and ``CycloElem`` come from a
separate count-only pass (``ConstructionCounter``), because counting
every field-element construction would distort the span timings.

Spans stay in memory and are written out at the end of a run.
"""

import functools
import json
import time
from fractions import Fraction

# (module, qualified name) of every traced function.  ``deformations`` and
# ``cover_geometry.invariants`` are left out: closed-form integer
# arithmetic taking microseconds per call.
TRACED = [
    ("linalg", "rank"),
    ("linalg", "rref"),
    ("linalg", "nullspace"),
    ("linalg", "solve"),
    ("linalg", "bareiss_rank"),
    ("graded", "kernel_basis"),
    ("double_cover", "tensor"),
    ("double_cover", "inverse"),
    ("double_cover", "is_isomorphic"),
    ("double_cover", "divisor_of_section"),
    ("hyperelliptic", "cantor_add"),
    ("hyperelliptic", "class_from_matrix"),
    ("hyperelliptic", "matrix_from_class"),
    ("hyperelliptic", "rr_space"),
    ("hyperelliptic", "torsion_matrix"),
    ("hyperelliptic", "is_n_torsion"),
    ("poly", "poly_gcd"),
    ("poly", "poly_xgcd"),
    ("poly", "resultant"),
    ("poly", "lagrange_interpolate"),
    ("homog", "HForm.substitute"),
    ("homog", "HForm.is_squarefree"),
    ("dihedral", "projector"),
    ("dihedral", "projector_rank"),
    ("cover_algebra", "SimpleCoverAlgebra.mul"),
    ("cover_algebra", "SimpleCoverAlgebra.tau"),
    ("cover_algebra", "SimpleCoverAlgebra.sigma"),
    ("cover_geometry", "check_simple"),
    ("cover_geometry", "resultant_wrt_last"),
    ("cover_geometry", "form_gcd"),
    ("cover_geometry", "random_coordinate_change"),
    ("cli", "run_job"),
    ("parsing", "parse_form"),
    ("parsing", "format_form"),
]

COUNTED = [("fields", "FpElem"), ("cyclotomic", "CycloElem")]

SPAN_STATS = ("calls", "self_s", "total_s")

# shape counters kept by the wrappers: (metric name, unit)
SHAPE_COUNTERS = [
    ("linalg.rank.cells", "count"),
    ("linalg.rref.cells", "count"),
    ("poly.poly_gcd.max_deg", "count"),
    ("poly.poly_gcd.coeff_bits", "bits"),
    ("cover_geometry.resultant_wrt_last.max_deg", "count"),
]

# counters derived after the run: (metric name, unit)
COUNTERS = SHAPE_COUNTERS + [
    ("cover_geometry.check_simple.attempts_per_call", "1"),
    ("fields.FpElem.new", "count"),
    ("cyclotomic.CycloElem.new", "count"),
    ("trace.overhead_ratio", "1"),
]


def span_name(module, qual):
    return "%s.%s" % (module, qual)


def per_layer_names():
    """Every per-layer metric as (name, unit), in a fixed order."""
    out = []
    for module, qual in TRACED:
        base = span_name(module, qual)
        out += [(base + ".calls", "count"), (base + ".self_s", "s"),
                (base + ".total_s", "s")]
    return out + COUNTERS


def _degree(p):
    d = p.degree
    return d if d >= 0 else 0


def _coeff_bits(p):
    bits = 0
    for i in range(_degree(p) + 1):
        c = p.coeff(i)
        if isinstance(c, Fraction):
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _cells(stats, key, args):
    m = args[0]
    stats[key] = stats.get(key, 0) + len(m) * (len(m[0]) if m else 0)


def _gcd_shape(stats, args):
    a, b = args[0], args[1]
    stats["poly.poly_gcd.max_deg"] = max(stats.get("poly.poly_gcd.max_deg", 0),
                                         _degree(a), _degree(b))
    stats["poly.poly_gcd.coeff_bits"] = max(stats.get("poly.poly_gcd.coeff_bits", 0),
                                            _coeff_bits(a), _coeff_bits(b))


def _resultant_shape(stats, args):
    key = "cover_geometry.resultant_wrt_last.max_deg"
    stats[key] = max(stats.get(key, 0), args[0].deg * args[1].deg)


SHAPES = {
    "linalg.rank": lambda stats, args: _cells(stats, "linalg.rank.cells", args),
    "linalg.rref": lambda stats, args: _cells(stats, "linalg.rref.cells", args),
    "poly.poly_gcd": _gcd_shape,
    "cover_geometry.resultant_wrt_last": _resultant_shape,
}


def _resolve(module, qual):
    """(owner, attribute) for "func" or "Class.method" in a module."""
    owner = module
    parts = qual.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class _Patcher:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """Span recorder over the traced functions of one library import.

    ``lib`` maps module short names (``"poly"``) to module objects; the
    rebinding of imported names covers every module in ``lib``.
    """

    def __init__(self, lib):
        self.lib = lib
        self.spans = []         # [name, start, end, parent index, op id]
        self.stats = {}
        self.op = None
        self._stack = []
        self._patch = _Patcher()

    def install(self):
        for module, qual in TRACED:
            mod = self.lib[module]
            owner, attr = _resolve(mod, qual)
            orig = owner.__dict__[attr]
            name = span_name(module, qual)
            wrapped = self._wrap(name, orig, SHAPES.get(name))
            self._patch.set(owner, attr, wrapped)
            if owner is not mod:
                continue
            for other in self.lib.values():
                for key, value in list(vars(other).items()):
                    if value is orig and not (other is mod and key == attr):
                        self._patch.set(other, key, wrapped)

    def uninstall(self):
        self._patch.undo()

    def _wrap(self, name, fn, shape):
        spans, stack, stats = self.spans, self._stack, self.stats
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if shape is not None:
                shape(stats, args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def layer_metrics(self):
        """calls, self_s and total_s per traced function plus the shape
        counters, as {name: value}; functions never called read 0."""
        out = {}
        for module, qual in TRACED:
            base = span_name(module, qual)
            for stat in SPAN_STATS:
                out["%s.%s" % (base, stat)] = 0
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += own
            out[name + ".total_s"] += end - start
        for key, _ in SHAPE_COUNTERS:
            out[key] = self.stats.get(key, 0)
        checks = out["cover_geometry.check_simple.calls"]
        attempts = sum(1 for s in self.spans
                       if s[0] == "cover_geometry.random_coordinate_change"
                       and self._under(s, "cover_geometry.check_simple"))
        out["cover_geometry.check_simple.attempts_per_call"] = attempts / checks if checks else 0
        return out

    def _under(self, span, name):
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def self_by_op(self):
        """{op id: {function: self seconds}} for the per-op breakdown."""
        out = {}
        for (name, _, _, _, op), own in zip(self.spans, self.self_times()):
            d = out.setdefault(op, {})
            d[name] = d.get(name, 0.0) + own
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class ConstructionCounter:
    """Counts constructions of the field-element classes in COUNTED.

    ``begin_op`` zeroes the per-op counts and ``end_op(keep)`` adds them
    to the totals only when ``keep`` is true, so an op cut off by its
    deadline at a time-dependent point does not make the totals vary.
    """

    def __init__(self, lib):
        self.lib = lib
        self.totals = {span_name(m, c) + ".new": 0 for m, c in COUNTED}
        self._cur = dict.fromkeys(self.totals, 0)
        self._patch = _Patcher()

    def install(self):
        for module, cls_name in COUNTED:
            cls = getattr(self.lib[module], cls_name)
            self._patch.set(cls, "__init__",
                            self._counting(cls.__init__, span_name(module, cls_name) + ".new"))

    def uninstall(self):
        self._patch.undo()

    def _counting(self, init, key):
        cur = self._cur

        def counted(obj, *args, **kwargs):
            cur[key] += 1
            init(obj, *args, **kwargs)
        return counted

    def begin_op(self):
        for key in self._cur:
            self._cur[key] = 0

    def end_op(self, keep):
        if keep:
            for key, n in self._cur.items():
                self.totals[key] += n
