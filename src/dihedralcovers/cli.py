"""Command-line front end.

Every subcommand prints one JSON document on standard output and exits
with 0 (computed), 1 (a checked hypothesis failed), 2 (usage or parse
error) or 3 (internal error: an ``ArithmeticError`` such as a division
by zero, an ``AssertionError`` or a ``RuntimeError`` raised while
computing).  Output is deterministic for a fixed input and seed; the seed
is recorded in the output.  Rational numbers appear as "p/q" strings
inside polynomial strings; matrices as arrays of polynomial strings.

Subcommands

    torsion    n-torsion certificate for a matrix pair on a curve
    pic        divisor-class arithmetic on matrix pairs
    cover      numerical invariants of a simple dihedral cover
    check      construction-hypothesis reports (simple / almost-simple)
    deform     natural-deformation dimension counts
    dn-table   dihedral character data and eigensheaf degrees
    jacobian   brute-force divisor class group of a small curve

Batch mode: ``--json jobs.json`` with a JSON array of job objects, each
``{"command": ..., ...}`` with the same keys as the flags; the output
is the JSON array of the individual reports, in input order.  A job
that fails gets a ``{"command", "error"}`` record in its place and the
batch goes on; the exit code is the largest of the jobs' codes.
"""

import argparse
import json
import sys

from .fields import field_from_name
from . import parsing
from .double_cover import BundlePair, tensor, inverse
from .hyperelliptic import (HECurve, MumfordClass, class_from_matrix,
                            matrix_from_class, class_order, order_dividing, is_n_torsion,
                            stratum, enumerate_jacobian, enumerate_two_torsion,
                            require_enumerable)
from . import cover_geometry as geometry
from . import deformations
from . import dihedral
from .cyclotomic import CyclotomicField
from .cover_algebra import eigensheaf_decomposition


class JobError(Exception):
    """Bad input inside an otherwise well-formed job."""


_BAD_INPUT = (JobError, KeyError, ValueError)
_INTERNAL = (ArithmeticError, AssertionError, RuntimeError)


def _failure(e):
    """(message, exit code) for an exception raised by a job."""
    if isinstance(e, _BAD_INPUT):
        return str(e), 2
    return "internal error: %s: %s" % (type(e).__name__, e), 3


def _field(job):
    return field_from_name(job.get("field", "Q"))


def _curve(job, field):
    if "curve" not in job:
        raise JobError("missing curve")
    return HECurve.from_json(job["curve"], field)


def _pair(job, key, curve):
    if key not in job:
        raise JobError("missing %s" % key)
    return BundlePair.from_json(job[key], curve)


def _form(job, key, field, nvars=3):
    if key not in job:
        raise JobError("missing %s" % key)
    return parsing.parse_form(job[key], field, nvars)


def run_torsion(job):
    field = _field(job)
    curve = _curve(job, field)
    pair = _pair(job, "pair", curve)
    n = int(job["n"])
    torsion = is_n_torsion(pair, n)
    out = {"n": n, "torsion": torsion}
    if job.get("oracle"):
        c = class_from_matrix(pair)
        out["classOrder"] = class_order(c)
        out["oracleAgrees"] = (n * c).is_zero() == torsion
    return out, 0


def run_pic(job):
    field = _field(job)
    curve = _curve(job, field)
    op = job.get("op", "class")
    out = {"op": op}
    if op == "class":
        pair = _pair(job, "pair", curve)
        c = class_from_matrix(pair)
        out["class"] = c.to_json()
        out["order"] = class_order(c)
        out["stratum"] = list(stratum(pair))
    elif op == "inverse":
        out["pair"] = inverse(_pair(job, "pair", curve)).to_json()
    elif op == "tensor":
        pair = _pair(job, "pair", curve)
        other = _pair(job, "pair2", curve)
        prod = tensor(pair, other)
        out["pair"] = prod.to_json()
        out["class"] = class_from_matrix(prod).to_json()
    elif op == "two-torsion":
        pairs = enumerate_two_torsion(curve)
        out["count"] = len(pairs)
        out["pairs"] = [p.to_json() for p in pairs]
    else:
        raise JobError("unknown pic op %r" % op)
    return out, 0


def run_cover(job):
    n = int(job["n"])
    m = int(job["m"])
    if job.get("base", "P2") != "P2":
        raise JobError("only the base P2 is supported")
    report = geometry.invariants(n, geometry.ProjectiveSpace(2, m))
    return report.to_json(), 0


def run_check(job):
    field = _field(job)
    n = int(job["n"])
    m = int(job["m"])
    base = geometry.ProjectiveSpace(2, m)
    seed = int(job.get("seed", 0))
    kind = job.get("kind", "simple")
    if kind == "simple":
        spec = geometry.SimpleCoverSpec(n, base, _form(job, "a", field),
                                        _form(job, "F", field))
        report = geometry.check_simple(spec, seed=seed)
    elif kind == "almost-simple":
        spec = geometry.AlmostSimpleSpec(n, base, _form(job, "F", field),
                                         _form(job, "a0", field),
                                         _form(job, "ainf", field))
        report = geometry.check_almost_simple(spec, seed=seed)
    else:
        raise JobError("unknown check kind %r" % kind)
    code = 1 if ("fail" in (report.condition_i, report.condition_ii)) else 0
    return report.to_json(), code


def run_deform(job):
    n = int(job["n"])
    m = int(job["m"])
    d = int(job.get("d", 2))
    report = deformations.def_prime_dims(n, m, d)
    return report.to_json(), 0


def run_dn_table(job):
    n = int(job["n"])
    m = int(job.get("m", 1))
    labels = dihedral.irreducible_labels(n)
    out = {"n": n, "order": 2 * n,
           "characters": [{"label": lab, "degree": dihedral.char_degree(lab)}
                          for lab in labels],
           "eigensheaf": [{"label": lab, "degrees": degs}
                          for lab, degs in eigensheaf_decomposition(n, m)]}
    if job.get("projectorRanks"):
        K = CyclotomicField(n)
        out["projectorRanks"] = {lab: dihedral.projector_rank(dihedral.projector(n, lab, K))
                                 for lab in labels}
    return out, 0


def run_jacobian(job):
    field = _field(job)
    if field.characteristic == 0:
        raise JobError("jacobian enumeration needs a finite field")
    curve = _curve(job, field)
    limit = int(job.get("limit", 20000))
    require_enumerable(field, curve.g, limit)
    classes = enumerate_jacobian(curve.odd_model(), limit=limit)
    out = {"count": len(classes)}
    if job.get("listClasses"):
        out["classes"] = sorted(c.to_json() for c in classes)
    orders = {}
    if job.get("orders"):
        for c in classes:
            o = order_dividing(c, len(classes))
            orders[o] = orders.get(o, 0) + 1
        out["orderHistogram"] = {str(k): v for k, v in sorted(orders.items())}
    return out, 0


_RUNNERS = {
    "torsion": run_torsion,
    "pic": run_pic,
    "cover": run_cover,
    "check": run_check,
    "deform": run_deform,
    "dn-table": run_dn_table,
    "jacobian": run_jacobian,
}


def run_job(job):
    """Run one job dict; returns (report dict, exit code)."""
    command = job.get("command")
    if command not in _RUNNERS:
        raise JobError("unknown command %r" % command)
    out, code = _RUNNERS[command](job)
    report = {"command": command, "seed": int(job.get("seed", 0))}
    report.update(out)
    return report, code


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dihedralcovers",
        description="exact computations with dihedral covers")
    parser.add_argument("--json", metavar="FILE",
                        help="batch mode: run a JSON array of jobs")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--field", default="Q", help="Q or Fp:<prime>")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("torsion", help="n-torsion certificate")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--curve", required=True, help="JSON {g, F}")
    p.add_argument("--pair", required=True, help="JSON {a, b, P, f, q}")
    p.add_argument("--oracle", action="store_true",
                   help="also compute the class order for comparison")

    p = sub.add_parser("pic", help="divisor class arithmetic")
    common(p)
    p.add_argument("--curve", required=True)
    p.add_argument("--pair", help="JSON {a, b, P, f, q}; every op but two-torsion")
    p.add_argument("--pair2", help="JSON {a, b, P, f, q}; the second factor of tensor")
    p.add_argument("--op", default="class",
                   choices=["class", "inverse", "tensor", "two-torsion"])

    p = sub.add_parser("cover", help="cover invariants")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--base", default="P2")

    p = sub.add_parser("check", help="construction hypotheses")
    common(p)
    p.add_argument("--kind", default="simple",
                   choices=["simple", "almost-simple"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a")
    p.add_argument("--F")
    p.add_argument("--a0")
    p.add_argument("--ainf")

    p = sub.add_parser("deform", help="deformation dimension counts")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, default=2)

    p = sub.add_parser("dn-table", help="dihedral character data")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--projector-ranks", dest="projectorRanks",
                   action="store_true")

    p = sub.add_parser("jacobian", help="enumerate a small class group")
    common(p)
    p.add_argument("--curve", required=True)
    p.add_argument("--limit", type=int, default=20000)
    p.add_argument("--list-classes", dest="listClasses", action="store_true")
    p.add_argument("--orders", action="store_true")
    return parser


_JSON_FLAGS = ("curve", "pair", "pair2")


def _job_from_args(args):
    job = {}
    for key, val in vars(args).items():
        if key == "json" or val is None or val is False:
            continue
        if key in _JSON_FLAGS and isinstance(val, str):
            val = json.loads(val)
        job[key] = val
    return job


def _emit(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if args.json:
        try:
            with open(args.json) as fh:
                jobs = json.load(fh)
            if not isinstance(jobs, list):
                raise JobError("batch file must hold a JSON array")
        except (OSError, ValueError) as e:
            print("error: %s" % e, file=sys.stderr)
            return 2
        reports = []
        worst = 0
        for job in jobs:
            try:
                report, code = run_job(job)
            except _BAD_INPUT + _INTERNAL as e:
                msg, code = _failure(e)
                report = {"command": job.get("command"), "error": msg}
            reports.append(report)
            worst = max(worst, code)
        _emit(reports)
        return worst
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    try:
        job = _job_from_args(args)
        report, code = run_job(job)
    except _BAD_INPUT + _INTERNAL as e:
        msg, code = _failure(e)
        print("error: %s" % msg, file=sys.stderr)
        return code
    _emit(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
