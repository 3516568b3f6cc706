"""Reachability gate: every function in ``src/dihedralcovers`` is entered
by a user path, or listed in ``ALLOWED`` with a reason.

Run from the root of a checkout (stdlib only; pytest does not collect
this file):

    python tests/reachability.py

The user paths are:

- the golden CLI batch, ``tests/golden/batch.json``;
- the gate's own job file, ``tests/reachability_jobs.json``: CLI paths
  that no other input takes (refusals, rare branches);
- every ``dihedralcovers ...`` command of README's "Command line" block,
  read with ``shlex`` (the batch-mode line is the golden batch);
- the demos, ``demos/*.py``;
- one seed-1701, one-second run of each benchmark workload
  (``bench/run.py --trace 0``).

Each input runs in its own subprocess under a timeout, with
``sys.setprofile`` recording every code object of the package that is
entered.  A code object is keyed by (file, first line), which the
``ast`` walk maps to its qualified name, so the fresh re-imports of
``bench/run.py`` count as one module.  The check walks
``src/`` with ``ast`` (nested functions included) and exits 1, naming
the function, when

- a function is never entered and is not in ``ALLOWED``;
- a function in ``ALLOWED`` is entered (take it off the list);
- a name in ``ALLOWED`` is no longer a function of the package.

Dunder methods of public classes (``__repr__``, ``__eq__``, ...) are
allowed by one rule: they are kept for interactive use.  An input that
exits with another code than expected, or runs out of time, also fails
the gate, since its record would be incomplete.
"""

import ast
import json
import os
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dihedralcovers"
TESTS = ROOT / "tests"

# seconds one input may take under the profiler
INPUT_TIMEOUT = 120

WORKLOADS = ("torsion", "grouplaw", "dihedral", "plane")

# reasons shared by several entries; the summary counts entries per reason
BENCH = ("bench-bound until ROADMAP item 1: bench/tracer.py binds the name, "
         "so it stays until the tracer's list changes")
DUNDER = "kept for interactive use (dunder method of a public class)"
ELEMENTS = ("GF(p) element arithmetic at the public edge (operators kept for "
            "interactive use): the package passes plain values, and "
            "tests/test_fields.py and the tests' boxed oracles divide elements")
KERNEL = ("the kernel route of tensor, the oracle of tests/test_tensor_kernel.py: "
          "graded.py stays in src/ while bench/run.py's LAYERS imports it and "
          "bench/tracer.py binds kernel_basis, and moves to tests/ with ROADMAP item 1")
ELIMINATION = ("entered only by the bench-bound names: rref, nullspace and solve over "
               "GF(p), and bareiss_rank; it leaves src/ with them (ROADMAP item 30)")
TO_INTS = ("field protocol of SimpleCoverAlgebra.mul over GF(p), which "
           "tests/test_cover_algebra.py runs; every user path multiplies over "
           "QQ or Q(zeta_n)")

ALLOWED = {
    "linalg.solve": BENCH,
    "linalg.bareiss_rank": BENCH,
    "linalg._exact": BENCH,
    "poly.resultant": BENCH,
    "poly.poly_xgcd": BENCH,
    "poly.lagrange_interpolate": BENCH,
    "hyperelliptic.torsion_matrix": BENCH,
    "double_cover.divisor_of_section": BENCH,
    "linalg.rref": BENCH,
    "linalg.nullspace": BENCH,

    "graded.kernel_basis": KERNEL,
    "graded.kernel_basis.<locals>.check": KERNEL,
    "graded.kernel_basis.<locals>.sections": KERNEL,
    "graded._read_off": KERNEL,
    "graded._vector_charts": KERNEL,
    "graded.nonzero_minor": KERNEL,
    "linalg._plain": ELIMINATION,
    "linalg._clone": ELIMINATION,
    "linalg.split_blocks":
        ("entered only by graded._vector_charts, the kernel route of tensor; it "
         "moves to tests/ with graded.py (ROADMAP item 1)"),

    "cover_geometry.normality_criterion":
        ("paper result (normality of a dihedral cover over a hyperelliptic "
         "curve) with no command: a CLI home needs a certificate record "
         "(ROADMAP item 5), which would be a new option"),

    "fields.FpElem._val": ELEMENTS,
    "fields.FpElem.inverse": ELEMENTS,
    "fields.GF.inv": ELEMENTS,
    "fields.GF.to_ints": TO_INTS,
    "fields.GF.from_ints": TO_INTS,
    "fields.GF.random_nonzero":
        "the random graded automorphisms of tests/test_normal_form.py over GF(p)",
    "fields._QQ.random":
        "the random charts and automorphisms of tests/test_normal_form.py over QQ",
    "fields._QQ.random_nonzero":
        "the random graded automorphisms of tests/test_normal_form.py over QQ",
    "fields._QQ.__hash__":
        ("QQ defines __eq__, so it needs __hash__ to stay hashable like GF(p); "
         "the hypothesis strategies of tests/test_homog.py check it"),
    "fields._QQ.__repr__":
        ("names QQ in the mixed-field refusal of SimpleCoverAlgebra.mul, "
         "which tests/test_cover_algebra.py raises"),
    "cyclotomic.CycloElem.conjugate":
        "the oracle of character orthogonality in tests/test_dihedral.py",
    "cyclotomic.CyclotomicField._mul":
        ("CycloElem.__mul__ of two irrational elements: the tests' dense "
         "projector sums and reference products; the user paths' cyclotomic "
         "products are packed or rational"),
    "poly.Poly.coeff":
        ("the coefficient-bits counter of bench/tracer.py (run with --trace 1; "
         "the gate runs --trace 0) and the tests' determinant oracles"),
    "homog.HForm.zero":
        ("the zero form of a given degree, which tests/test_homog.py checks and "
         "tests/test_double_cover.py and test_tensor_kernel.py build pair entries "
         "from; user paths give a pair its entries as parsed forms or as charts"),
    "homog.HForm.const":
        ("the constant form, the zeroth power of a form, which the tests build "
         "and tests/test_homog.py's substitution oracle starts from; user paths "
         "raise forms only to positive powers"),
    "poly.Poly.compose":
        "the oracle of CycloElem.conjugate in tests/test_dihedral.py (z -> z^-1)",
    "double_cover.BundlePair.c1":
        ("the first Chern class that tests/test_hyperelliptic.py checks "
         "tensor against (c1 of a square is 2 c1 + l)"),
    "double_cover.DoubleCoverRing.trivial_pair":
        ("the structure sheaf as a pair, the unit of tensor, which tests/test_double_cover.py, "
         "test_cover_geometry.py and test_acceptance.py build; the dictionary writes the "
         "zero class's pair in closed form"),
    "double_cover.BundlePair.splitting":
        "the splitting type that tests/test_double_cover.py and test_hyperelliptic.py check",
}


# -- the functions of the package ------------------------------------------

def functions(package=PACKAGE):
    """{qualified name: (file name, first line, line count)} for every
    function and method defined in the package, nested ones included.

    The qualified name is the module's short name followed by Python's
    ``__qualname__`` (``graded.kernel_basis.<locals>.check``).  The
    first line is that of the first decorator, as in ``co_firstlineno``.
    """
    out = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        _walk(tree, path.stem, path.name, out)
    return out


def _walk(node, prefix, fname, out):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = "%s.%s" % (prefix, child.name)
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            out[name] = (fname, first, child.end_lineno - first + 1)
            _walk(child, name + ".<locals>", fname, out)
        elif isinstance(child, ast.ClassDef):
            _walk(child, "%s.%s" % (prefix, child.name), fname, out)
        else:
            _walk(child, prefix, fname, out)


def is_public_dunder(name):
    """A dunder method of a class whose name has no leading underscore;
    ``__init__`` is not one, since a class never built is not kept for
    interactive use."""
    parts = name.split(".")
    return (len(parts) == 3 and not parts[1].startswith("_") and parts[2] != "__init__"
            and parts[2].startswith("__") and parts[2].endswith("__"))


def check(defined, entered, allowed):
    """The gate's verdict: a list of failure lines, empty when it passes.

    ``defined`` maps each qualified name to (file, first line, lines),
    ``entered`` is the set of names some input entered, ``allowed`` maps
    names to reasons.
    """
    failures = []
    for name, (fname, first, _) in sorted(defined.items()):
        if name in entered or name in allowed or is_public_dunder(name):
            continue
        failures.append("unreached and not listed: %s (%s:%d)" % (name, fname, first))
    for name in sorted(allowed):
        if name not in defined:
            failures.append("listed but missing: %s" % name)
        elif name in entered:
            failures.append("listed but reached: %s (take it off ALLOWED)" % name)
    return failures


# -- the inputs ----------------------------------------------------------

def readme_commands(readme=ROOT / "README.md"):
    """The argument lists of the ``dihedralcovers ...`` commands in
    README's "Command line" block, batch mode left out."""
    text = readme.read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "dihedralcovers" and "--json" not in argv:
            commands.append(argv[1:])
    return commands


def inputs():
    """(label, argv after the interpreter, expected exit code) per input."""
    cli = ["-m", "dihedralcovers.cli"]
    out = [("golden batch", cli + ["--json", str(TESTS / "golden" / "batch.json")], 1),
           ("gate jobs", cli + ["--json", str(TESTS / "reachability_jobs.json")], 2)]
    for argv in readme_commands():
        out.append(("README: " + " ".join(argv[:3]), cli + argv, 0))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out.append(("demo " + demo.name, [str(demo)], 0))
    for w in WORKLOADS:
        out.append(("workload " + w, [str(ROOT / "bench" / "run.py"), "--workload", w,
                                      "--seed", "1701", "--seconds", "1", "--trace", "0"], 0))
    return out


# Run inside each input's subprocess: argv is [record file, target...]
# where the target is "-m module args..." or "script args...".  Code
# objects are kept by id until exit, so the profiler does one dict store
# per call and no hashing of code objects.
RECORDER = r"""
import json, os, runpy, sys
record, target = sys.argv[1], sys.argv[2:]
codes = {}
def profile(frame, event, arg):
    if event == "call":
        codes[id(frame.f_code)] = frame.f_code
code = 0
sys.setprofile(profile)
try:
    if target[0] == "-m":
        sys.argv = target[1:]
        runpy.run_module(target[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = target
        sys.path.insert(0, os.path.dirname(os.path.abspath(target[0])))
        runpy.run_path(target[0], run_name="__main__")
except SystemExit as e:
    code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
finally:
    sys.setprofile(None)
    with open(record, "w") as fh:
        json.dump([[c.co_filename, c.co_firstlineno] for c in codes.values()], fh)
sys.exit(code)
"""


def record(argv, expected, label):
    """The (file name, first line) pairs of package code that one input
    entered; raises RuntimeError when it fails or times out."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "record.json")
        try:
            proc = subprocess.run([sys.executable, "-c", RECORDER, path] + argv,
                                  cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=INPUT_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise RuntimeError("%s: no exit within %d s" % (label, INPUT_TIMEOUT))
        if proc.returncode != expected:
            raise RuntimeError("%s: exit %d, expected %d\n%s"
                               % (label, proc.returncode, expected, proc.stderr[-2000:]))
        with open(path) as fh:
            pairs = json.load(fh)
    package = str(PACKAGE)
    return {(os.path.basename(f), line) for f, line in pairs
            if os.path.dirname(os.path.realpath(f)) == package}


def main():
    defined = functions()
    by_line = {(fname, first): name for name, (fname, first, _) in defined.items()}
    entered = set()
    for label, argv, expected in inputs():
        try:
            seen = record(argv, expected, label)
        except RuntimeError as e:
            print("input failed: %s" % e)
            return 1
        entered |= {by_line[key] for key in seen if key in by_line}
        print("ran %s" % label, flush=True)
    unreached = [name for name in defined if name not in entered]
    reasons = Counter(ALLOWED[n] if n in ALLOWED else DUNDER
                      for n in unreached if n in ALLOWED or is_public_dunder(n))
    print("%d functions, %d never entered (%d lines)"
          % (len(defined), len(unreached), sum(defined[n][2] for n in unreached)))
    for reason, count in reasons.most_common():
        print("  %3d  %s" % (count, reason))
    failures = check(defined, entered, ALLOWED)
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
