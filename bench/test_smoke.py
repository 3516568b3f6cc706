"""Tiny-size smoke test of the benchmark itself (not of the library).

    python3 -m pytest -q bench/test_smoke.py

Shrunken copies of the four workloads run one round each, so the whole
file takes well under a minute.
"""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class TinyTorsion(workloads.Torsion):
    SOURCES = {"p11-g1": (11, 1, "random"), "p1009-g2-2tors": (1009, 2, "two_torsion")}
    ROUND = [("p11-g1", n, 1) for n in range(2, 6)] + [("p1009-g2-2tors", 2, 1),
                                                       ("p1009-g2-2tors", 3, 1)]
    ROUNDS_WITHOUT_REPEATS = 1


class TinyGroupLaw(workloads.GroupLaw):
    SOURCES = [("p101-g1", 101, 1, 2), ("p5-g2-quintic", 5, 2, 1)]
    CLASSES = 2
    PAIRS = [(0, 1), (1, 0)]


class TinyDihedral(workloads.Dihedral):
    PROJECTOR_NS = range(2, 5)
    ALGEBRA_NS = range(3, 4)
    POOL = 1
    BLOCKS = ((3, "rho1", 2),)


class TinyPlane(workloads.Plane):
    KINDS = [("Q-2-1", "Q", 2, 1, 1, False), ("shared-Q-2-1", "Q", 2, 1, 1, True),
             ("stress-Q-3-1", "Q", 3, 1, 1, False)]


TINY = [TinyTorsion, TinyGroupLaw, TinyDihedral, TinyPlane]


@pytest.fixture(autouse=True)
def alarm_handler():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def one_round(workload, seed=0):
    state = workload.setup(run.import_library(), random.Random(seed))
    outcomes, _ = run.run_rounds(workload, state, seed, 1)
    run.verify(workload, state, outcomes)
    return outcomes


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.per_layer_names()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("cls", TINY, ids=lambda c: c.name)
def test_tiny_round_verifies_and_repeats(cls, monkeypatch):
    monkeypatch.setattr(workloads, "STRESS_DEADLINE_S", 0.05)
    first = one_round(cls())
    statuses = {(o.op.kind, o.status) for o in first}
    assert not any(status == "mismatch" for _, status in statuses)
    if cls is TinyGroupLaw:
        # the GF(5) curve is refused at set-up; its ops fail, the run goes on
        assert ("p5-g2-quintic", "error") in statuses
        assert all(o.value == "SetupFailed" for o in first if o.status == "error")
    if cls is TinyPlane:
        assert ("stress-Q-3-1", "timeout") in statuses
    ok = [o for o in first if o.status == "ok"]
    assert ok
    # the same seed gives the same inputs and the same outputs
    assert run.digest(cls(), first) == run.digest(cls(), one_round(cls()))


def test_round_count_follows_seconds():
    assert run.round_count(workloads.Torsion(), 20) == 2
    assert run.round_count(workloads.Plane(), 20) == 1
    assert run.round_count(workloads.Plane(), 1) == 1


def test_speed_samples_inside_an_op_do_not_count():
    def busy():
        t = time.process_time()
        while time.process_time() - t < 0.35:
            pass

    meter = speed.Speedometer()
    with meter:
        before = len(meter.slowdowns)
        t0 = time.perf_counter()
        outcome = run.run_op(workloads.Op("busy", ("busy",), busy), meter=meter)
        wall = time.perf_counter() - t0
        inside = len(meter.slowdowns) - before
    assert outcome.status == "ok" and inside >= 2
    assert outcome.latency < wall
    assert meter.scale(outcome.start, outcome.latency) > 0


def test_oracle_mismatch_counts_and_does_not_abort():
    class Wrong(TinyTorsion):
        def check(self, state, op, value):
            return op.key[2] != 3

    outcomes = one_round(Wrong())
    bad = [o for o in outcomes if o.status == "mismatch"]
    assert bad and all(o.op.key[2] == 3 for o in bad)
    assert any(o.status == "ok" for o in outcomes)


def test_plane_oracle_requires_the_generic_verdicts():
    w = workloads.Plane()
    state = w.setup(run.import_library(), random.Random(0))

    def value(kind, c1, c2, code, **details):
        report = {"conditionI": c1, "conditionII": c2, "details": details}
        return workloads.Op(kind, (kind, 0), None), (code, json.dumps(report))

    assert w.check(state, *value("Q-2-1", "pass", "pass", 0, resultantDegree=4)) is True
    assert w.check(state, *value("Q-2-1", "inconclusive", "pass", 0, resultantDegree=4)) is True
    assert not w.check(state, *value("Q-2-1", "pass", "pass", 0, resultantDegree=3))
    assert not w.check(state, *value("Q-2-1", "inconclusive", "inconclusive", 0))
    assert not w.check(state, *value("Q-2-1", "inconclusive", "fail", 1, commonComponent=True))
    assert not w.check(state, *value("shared-Q-2-1", "pass", "pass", 0, resultantDegree=4))
    assert w.check(state, *value("shared-Q-2-1", "inconclusive", "fail", 1,
                                 commonComponent=True)) is True
    # a Jacobian witness mod 101 against certified transversal curves is
    # the known defect: a failed op, not a mismatch
    for kind in ("Q-2-1", "p1009-2-2"):
        assert w.check(state, *value(kind, "inconclusive", "fail", 1,
                                     jacobianWitness=True)) == "unsupported-fail"


def test_transversality_oracle():
    # the conic x0^2 = x1 x2 and the line x1 = 0 touch at (0:0:1)
    conic = {(2, 0, 0): 1, (0, 1, 1): -1}
    assert workloads.meet_transversally(conic, {(0, 1, 0): 1}, 0, random.Random(1)) is None
    assert workloads.meet_transversally(conic, {(0, 1, 0): 1}, 1009, random.Random(1)) is None
    secant = {(0, 1, 0): 1, (1, 0, 0): -1}
    assert workloads.meet_transversally(conic, secant, 0, random.Random(1)) is True
    assert workloads.meet_transversally(conic, secant, 1009, random.Random(1)) is True


def test_tracer_rebinds_imported_names_and_restores_them():
    lib = run.import_library()
    before = {name: dict(vars(mod)) for name, mod in lib.items()}
    hform = dict(vars(lib.homog.HForm))
    t = tracer.Tracer(lib)
    t.install()
    try:
        wrapped = lib.poly.poly_gcd
        assert wrapped is not before["poly"]["poly_gcd"]
        # names imported with "from .poly import poly_gcd" are rebound too
        assert lib.cover_geometry.poly_gcd is wrapped
        assert lib.homog.poly_gcd is wrapped
        assert lib.cli.tensor is lib.double_cover.tensor
        t.op = 0
        a = lib.parsing.parse_form("x0^3 + x1^3 + x2^3", lib.fields.QQ, 3)
        F = lib.parsing.parse_form("x0*x1 + x0*x2 + x1*x2", lib.fields.QQ, 3)
        spec = lib.cover_geometry.SimpleCoverSpec(3, lib.cover_geometry.ProjectiveSpace(2, 1), a, F)
        lib.cover_geometry.check_simple(spec, seed=7)
    finally:
        t.uninstall()
    assert {name: dict(vars(mod)) for name, mod in lib.items()} == before
    assert dict(vars(lib.homog.HForm)) == hform
    metrics = t.layer_metrics()
    assert metrics["cover_geometry.check_simple.calls"] == 1
    assert metrics["cover_geometry.check_simple.attempts_per_call"] >= 1
    assert metrics["cover_geometry.resultant_wrt_last.max_deg"] >= 6
    assert metrics["parsing.parse_form.calls"] == 2
    # self times of a tree add up to the wall time of its roots
    roots = sum(end - start for _, start, end, parent, _ in t.spans if parent < 0)
    assert sum(t.self_times()) == pytest.approx(roots)


def test_construction_counts_repeat_exactly():
    lib = run.import_library()
    counts = []
    for _ in range(2):
        c = tracer.ConstructionCounter(lib)
        c.install()
        try:
            c.begin_op()
            lib.dihedral.projector(3, "rho1")
            c.end_op(True)
        finally:
            c.uninstall()
        counts.append(c.totals)
    assert counts[0] == counts[1]
    assert counts[0]["cyclotomic.CycloElem.new"] > 0


def _run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_contract_line(trace):
    out = _run_cli("--workload", "grouplaw", "--seed", "3", "--seconds", "0.2",
                   "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    assert set(result["metrics"]) == names


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run_cli("--workload", "torsion", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
