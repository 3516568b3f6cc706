import json
import pathlib
import time

import pytest

from dihedralcovers import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cover_subcommand(capsys):
    code, out = run(capsys, "cover", "--n", "3", "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["chi"] == 2 and doc["K2"] == 0 and doc["label"] == "K3"
    assert doc["command"] == "cover" and doc["seed"] == 0


def test_deform_subcommand(capsys):
    code, out = run(capsys, "deform", "--n", "2", "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert (doc["target"], doc["source"], doc["lowerBound"]) == (26, 24, 2)


def test_torsion_subcommand(capsys):
    code, out = run(capsys, "torsion", "--n", "2", "--field", "Fp:101",
                    "--curve", '{"g":1,"F":"x0^4 - x1^4"}',
                    "--pair",
                    '{"a":0,"b":2,"P":"0","f":"x0^4 - x1^4","q":"1"}')
    assert code == 0
    doc = json.loads(out)
    assert doc["torsion"] is True


def test_pic_subcommand(capsys):
    code, out = run(capsys, "pic", "--field", "Fp:7",
                    "--curve", '{"g":1,"F":"x0^4 - 5*x0^2*x1^2 + 4*x1^4"}',
                    "--pair", '{"a":1,"b":1,"P":"0","f":"x0^2 - x1^2",'
                    '"q":"x0^2 - 4*x1^2"}',
                    "--op", "class")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 2
    assert doc["stratum"] == [1, 1]


def test_pic_over_a_large_prime_finds_the_branch_root(capsys):
    code, out = run(capsys, "pic", "--field", "Fp:1000000007",
                    "--curve", '{"g":1,"F":"x0^4 + 3*x1^4 + x0*x1^3"}',
                    "--pair", '{"a":0,"b":2,"P":"0","f":"x0^4 + 3*x1^4 + x0*x1^3","q":"1"}',
                    "--op", "class")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == {"u": "1", "v": "0"} and doc["order"] == 1



def test_pic_two_torsion_needs_no_pair(capsys):
    curve = '{"g":1,"F":"x0^4 - 2*x0^3*x1 - x0^2*x1^2 + 2*x0*x1^3"}'
    code, out = run(capsys, "pic", "--op", "two-torsion", "--field", "Fp:2305843009213693951",
                    "--curve", curve)
    assert code == 0
    assert json.loads(out)["count"] == 3
    # the ops that read a pair still refuse a job without one
    code = cli.main(["pic", "--op", "class", "--field", "Fp:7", "--curve", curve])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "missing pair" in captured.err

_LARGE_ORDER = ['--field', 'Fp:1009', '--curve',
                '{"g":2,"F":"x0^6 + 1006*x0^5*x1 + 1004*x0^4*x1^2 + 15*x0^3*x1^3'
                ' + 4*x0^2*x1^4 + 997*x0*x1^5"}',
                '--pair', '{"a":1,"b":2,"P":"207*x0^3","f":"539*x0^4 + 774*x0^3*x1'
                ' + 888*x0^2*x1^2 + 273*x0*x1^3 + 581*x1^4","q":"x0^2 + 811*x0*x1"}']


def test_class_order_past_the_bound_is_null(capsys):
    # the class is killed by 5,124 and not by 1,024: its order exceeds
    # class_order's 512 additions, which is no reason to refuse the job
    code, out = run(capsys, "torsion", "--n", "2", "--oracle", *_LARGE_ORDER)
    assert code == 0
    doc = json.loads(out)
    assert doc["classOrder"] is None
    assert doc["torsion"] is False and doc["oracleAgrees"] is True
    code, out = run(capsys, "pic", "--op", "class", *_LARGE_ORDER)
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] is None and doc["stratum"] == [1, 2]


def test_check_subcommand_exit_codes(capsys):
    code, out = run(capsys, "check", "--n", "3", "--m", "1",
                    "--a", "x0^3 + x1^3 + x2^3",
                    "--F", "x0*x1 + x0*x2 + x1*x2", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["conditionI"] == "pass" and doc["conditionII"] == "pass"
    code, _ = run(capsys, "check", "--n", "3", "--m", "1",
                  "--a", "x0^3", "--F", "x0^2")
    assert code == 1


def test_dn_table(capsys):
    code, out = run(capsys, "dn-table", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 6
    labels = [c["label"] for c in doc["characters"]]
    assert labels == ["chi1", "chi2", "rho1"]


def test_dn_table_projector_ranks_share_one_field(capsys, monkeypatch):
    # every chi has rank 1 and every rho rank 4, all on one Q(zeta_n)
    from dihedralcovers.cyclotomic import CyclotomicField

    built = []
    init = CyclotomicField.__init__

    def counted(self, n):
        built.append(n)
        init(self, n)

    monkeypatch.setattr(CyclotomicField, "__init__", counted)
    for n in (12, 40):
        built.clear()
        code, out = run(capsys, "dn-table", "--n", str(n), "--projector-ranks")
        assert code == 0 and built == [n]
        ranks = json.loads(out)["projectorRanks"]
        assert len(ranks) == (n + 6) // 2
        assert all(r == (1 if lab.startswith("chi") else 4) for lab, r in ranks.items())


ALMOST_SIMPLE = ["check", "--kind", "almost-simple", "--n", "3", "--m", "1",
                 "--F", "x0*x1 + x0*x2 + x1*x2", "--a0", "x0^3 + x1^3 + x2^3"]

# g = -1: a branch form of degree 2g + 2 = 0
NEGATIVE_GENUS = ["--field", "Fp:7", "--curve", '{"g":-1,"F":"1"}']


@pytest.mark.parametrize("argv, message", [
    (["cover", "--n", "0", "--m", "1"], "need n >= 2"),
    (["cover", "--n", "-1", "--m", "1"], "need n >= 2"),
    (["dn-table", "--n", "0"], "need n >= 1"),
    (["dn-table", "--n", "-2"], "need n >= 1"),
    (ALMOST_SIMPLE + ["--ainf", "0"], "a_inf must be nonzero"),
    (ALMOST_SIMPLE + ["--field", "Fp:7", "--ainf", "7"], "a_inf must be nonzero"),
    (["pic", "--op", "two-torsion"] + NEGATIVE_GENUS, "need l >= 1, that is genus g = l - 1 >= 0"),
    (["torsion", "--n", "2", "--pair", '{"a":0,"b":0,"P":"0","f":"1","q":"1"}']
     + NEGATIVE_GENUS, "need l >= 1, that is genus g = l - 1 >= 0"),
    (["dn-table", "--n", "3", "--m", "0"], "need m >= 1"),
    (["dn-table", "--n", "3", "--m", "-2"], "need m >= 1"),
    (["check", "--n", "3", "--m", "1", "--a", "1/0*x0^3", "--F", "x0*x1 + x2^2"],
     "zero denominator in coefficient 1/0 of '1/0*x0^3'"),
    (["check", "--field", "Fp:7", "--n", "3", "--m", "1", "--a", "1/7*x0^3 + x1^3 + x2^3",
      "--F", "x0*x1 + x2^2"],
     "coefficient 1/7 of '1/7*x0^3 + x1^3 + x2^3' has no value in GF(7)"),
    (["pic", "--field", "Fp:7", "--curve", '{"g":1,"F":"x0^4 - 5*x0^2*x1^2 + 4*x1^4"}',
      "--pair", '{"a":1,"b":1,"P":"1/7*x0^2 + 2*x0*x1 + 6*x1^2","f":"4*x0^2 + 4*x1^2",'
      '"q":"x0*x1 + 6*x1^2"}'],
     "coefficient 1/7 of '1/7*x0^2 + 2*x0*x1 + 6*x1^2' has no value in GF(7)"),
    # the product is a Cantor sum on the odd model, which needs a rational branch point
    (["pic", "--op", "tensor", "--field", "Fp:7", "--curve", '{"g":1,"F":"x0^4 + x1^4"}',
      "--pair", '{"a":0,"b":2,"P":"0","f":"x0^4 + x1^4","q":"1"}',
      "--pair2", '{"a":0,"b":2,"P":"0","f":"x0^4 + x1^4","q":"1"}'],
     "no rational branch point; odd model unavailable"),
])
def test_out_of_domain_input_exits_2(capsys, argv, message):
    # refused as bad input, not an internal error (3) and not a report (0)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_a_large_constant_over_q_is_refused_at_once(capsys):
    """F = x0^4 - (10^30 + 57) x1^4 has no rational root.  The root finder
    factors no coefficient, so ``tensor`` of the trivial pair with itself
    and ``pic --op class`` refuse the curve in well under a second."""
    from dihedralcovers.double_cover import tensor
    from dihedralcovers.fields import QQ
    from dihedralcovers.hyperelliptic import HECurve
    from dihedralcovers.parsing import parse_form

    F = "x0^4 - %d*x1^4" % (10 ** 30 + 57)
    start = time.process_time()
    t = HECurve(QQ, 1, parse_form(F, QQ, 2)).trivial_pair()
    with pytest.raises(ValueError, match="no rational branch point"):
        tensor(t, t)
    code = cli.main(["pic", "--op", "class", "--field", "Q",
                     "--curve", json.dumps({"g": 1, "F": F}),
                     "--pair", json.dumps({"a": 0, "b": 2, "P": "0", "f": F, "q": "1"})])
    assert time.process_time() - start < 1
    captured = capsys.readouterr()
    assert code == 2 and captured.err == "error: no rational branch point; odd model unavailable\n"


def test_jacobian_subcommand(capsys):
    code, out = run(capsys, "jacobian", "--field", "Fp:7",
                    "--curve", '{"g":1,"F":"x0^4 - 5*x0^2*x1^2 + 4*x1^4"}',
                    "--orders")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 8
    assert doc["orderHistogram"] == {"1": 1, "2": 3, "4": 4}


def test_jacobian_refuses_a_large_field_before_building_the_odd_model(capsys, monkeypatch):
    from dihedralcovers.hyperelliptic import HECurve

    def no_odd_model(self):
        raise AssertionError("the odd model scans every residue for a branch root")

    monkeypatch.setattr(HECurve, "odd_model", no_odd_model)
    code, _ = run(capsys, "jacobian", "--field", "Fp:1000000007",
                  "--curve", '{"g":1,"F":"x0^4 + 3*x1^4 + x0*x1^3"}')
    assert code == 2
    code, _ = run(capsys, "jacobian", "--field", "Fp:149", "--limit", "22000",
                  "--curve", '{"g":1,"F":"x0^4 + 3*x1^4 + x0*x1^3"}')
    assert code == 2


def test_output_is_deterministic(capsys):
    _, out1 = run(capsys, "check", "--n", "3", "--m", "1",
                  "--a", "x0^3 + x1^3 + x2^3",
                  "--F", "x0*x1 + x0*x2 + x1*x2", "--seed", "11")
    _, out2 = run(capsys, "check", "--n", "3", "--m", "1",
                  "--a", "x0^3 + x1^3 + x2^3",
                  "--F", "x0*x1 + x0*x2 + x1*x2", "--seed", "11")
    assert out1 == out2


def test_parse_error_exit_code(capsys):
    code, _ = run(capsys, "torsion", "--n", "2",
                  "--curve", '{"g":1,"F":"x0^4 +"}',
                  "--pair", '{"a":0,"b":2,"P":"0","f":"x0^4 - x1^4","q":"1"}')
    assert code == 2
    code, _ = run(capsys, "cover", "--n", "3")
    assert code == 2
    code, _ = run(capsys)
    assert code == 2


def test_batch_mode(tmp_path, capsys):
    jobs = [{"command": "cover", "n": 2, "m": 1},
            {"command": "deform", "n": 3, "m": 1, "d": 2},
            {"command": "dn-table", "n": 3}]
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs))
    code, out = run(capsys, "--json", str(path))
    assert code == 0
    docs = json.loads(out)
    assert [d["command"] for d in docs] == ["cover", "deform", "dn-table"]
    assert docs[0]["K2"] == 4


def test_batch_mode_reports_bad_jobs(tmp_path, capsys):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps([{"command": "cover", "n": 2, "m": 1},
                                {"command": "bogus"}]))
    code, out = run(capsys, "--json", str(path))
    assert code == 2
    docs = json.loads(out)
    assert "error" in docs[1]


def test_batch_mode_keeps_the_reports_before_a_refused_curve(tmp_path, capsys):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps([
        {"command": "cover", "n": 3, "m": 1},
        {"command": "pic", "op": "two-torsion", "field": "Fp:7",
         "curve": {"g": -1, "F": "1"}},
        {"command": "deform", "n": 2, "m": 1}]))
    code, out = run(capsys, "--json", str(path))
    assert code == 2
    docs = json.loads(out)
    assert docs[0]["command"] == "cover" and docs[0]["label"] == "K3"
    assert docs[1] == {"command": "pic",
                       "error": "need l >= 1, that is genus g = l - 1 >= 0"}
    assert docs[2]["command"] == "deform" and "error" not in docs[2]


@pytest.mark.parametrize("exc", [ZeroDivisionError("division by zero in GF(101)"),
                                 AssertionError(), RuntimeError("no prime left")])
def test_internal_error_exit_code(tmp_path, capsys, monkeypatch, exc):
    def broken(job):
        raise exc
    monkeypatch.setitem(cli._RUNNERS, "cover", broken)
    code = cli.main(["cover", "--n", "3", "--m", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert type(exc).__name__ in captured.err
    # in batch mode the failing job gets an error record and the rest run
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps([{"command": "cover", "n": 3, "m": 1},
                                {"command": "deform", "n": 3, "m": 1, "d": 2},
                                {"command": "bogus"}]))
    code, out = run(capsys, "--json", str(path))
    assert code == 3
    docs = json.loads(out)
    assert docs[0] == {"command": "cover",
                       "error": "internal error: %s: %s" % (type(exc).__name__, exc)}
    assert docs[1]["command"] == "deform" and "error" not in docs[1]
    assert docs[2] == {"command": "bogus", "error": "unknown command 'bogus'"}


GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_golden_batch_is_byte_identical(capsys):
    # batch.out.json is the recorded --json output of batch.json: a
    # refactor must leave CLI output byte-identical, so any difference
    # here is a change of behaviour.  The shared-line and almost-simple
    # check jobs fail a condition, so the batch exits 1
    code, out = run(capsys, "--json", str(GOLDEN / "batch.json"))
    assert code == 1
    assert out.encode() == (GOLDEN / "batch.out.json").read_bytes()


# the products of the two tensor jobs of the golden batch as the kernel
# route wrote them, before the product became a Cantor sum
KERNEL_ROUTE_PRODUCTS = [
    ("Fp:7", {"a": 1, "b": 1, "P": "2*x0^2 + x0*x1 + 4*x1^2",
              "f": "4*x0^2 + 2*x0*x1 + x1^2", "q": "x0^2 + 2*x0*x1 + 2*x1^2"}),
    ("Q", {"a": 1, "b": 1, "P": "-1/3*x0^2 - 73/18*x0*x1 - 2/3*x1^2",
           "f": "8/9*x0^2 - 170/27*x0*x1 + 16/9*x1^2", "q": "x0^2 + 97/24*x0*x1 + 2*x1^2"}),
]


def test_golden_tensor_products_are_the_kernel_route_products():
    """Each tensor job of the golden batch prints a pair isomorphic to the
    one the kernel route printed."""
    from dihedralcovers.double_cover import BundlePair, is_isomorphic
    from dihedralcovers.fields import field_from_name
    from dihedralcovers.hyperelliptic import HECurve

    jobs = json.loads((GOLDEN / "batch.json").read_text())
    reports = json.loads((GOLDEN / "batch.out.json").read_text())
    products = [(job, report["pair"]) for job, report in zip(jobs, reports)
                if job.get("op") == "tensor"]
    assert [job["field"] for job, _ in products] == [f for f, _ in KERNEL_ROUTE_PRODUCTS]
    for (job, new), (_, old) in zip(products, KERNEL_ROUTE_PRODUCTS):
        curve = HECurve.from_json(job["curve"], field_from_name(job["field"]))
        assert new != old
        assert is_isomorphic(BundlePair.from_json(new, curve), BundlePair.from_json(old, curve))
