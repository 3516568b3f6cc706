import pytest

from dihedralcovers import deformations as df

from conftest import euler_characteristic_form


def test_bott_rejects_bad_indices():
    with pytest.raises(ValueError):
        df.bott(2, 3, 0, 0)
    with pytest.raises(ValueError):
        df.bott(2, 0, 0, -1)


def test_bott_spot_values():
    assert df.bott(2, 1, 0, 1) == 1          # the plane's middle Hodge number
    assert df.h_tangent(2, 0, 0) == 8        # infinitesimal automorphisms
    assert df.bott(2, 1, 2, 0) == 3
    assert df.bott(2, 1, 3, 0) == 8
    assert df.h_line(2, 2, 0) == 6
    assert df.h_line(2, -1, 0) == 0
    assert df.h_line(2, -3, 2) == 1


def test_serre_duality():
    for d in range(1, 5):
        for p in range(d + 1):
            for k in range(-12, 13):
                for q in range(d + 1):
                    assert df.bott(d, p, k, q) == df.bott(d, d - p, -k, d - q)


def test_euler_characteristic_consistency():
    for d in (2, 3):
        for p in range(d + 1):
            for k in range(-12, 13):
                chi = sum((-1) ** q * df.bott(d, p, k, q)
                          for q in range(d + 1))
                assert chi == euler_characteristic_form(d, p, k), (d, p, k)


def test_pushforward_twists():
    assert df.pushforward_twists(2, 1) == [0, -2, -1, -1]
    assert sorted(df.pushforward_twists(3, 1)) == [-3, -2, -2, -1, -1, 0]
    assert df.pushforward_twists(2, 1, e=1) == [0, -3, -2, -2]


def test_natural_def_target():
    assert df.natural_def_target(2, 1, 2) == 26
    # monotone in m
    prev = 0
    for m in (1, 2, 3):
        cur = df.natural_def_target(3, m, 2)
        assert cur > prev
        prev = cur
    with pytest.raises(ValueError):
        df.natural_def_target(1, 1, 2)


def test_h1_vanishing():
    ok, off = df.h1_vanishing_check(2, 1, 2)
    assert ok and off is None
    ok, off = df.h1_vanishing_check(3, 1, 2)
    assert not ok
    assert off == ("Theta", -3)
    # Theta(-3) on the plane is the cotangent sheaf, with h1 = 1
    assert df.h_tangent(2, -3, 1) == df.bott(2, 1, 0, 1) == 1
    for n in range(2, 9):
        ok, off = df.h1_vanishing_check(n, 2, 2)
        assert ok, (n, off)


def test_def_prime_dims():
    rep = df.def_prime_dims(2, 1, 2)
    assert rep.target == 26
    assert rep.source == 24
    assert rep.lower_bound == 2
    assert rep.h1_vanishing and rep.source_exact
    rep3 = df.def_prime_dims(3, 1, 2)
    assert not rep3.h1_vanishing
    assert rep3.offender == ("Theta", -3)
    rep22 = df.def_prime_dims(2, 2, 2)
    assert rep22.h1_vanishing
    assert rep22.lower_bound == rep22.target - rep22.source


def test_report_json():
    rep = df.def_prime_dims(2, 1, 2)
    doc = rep.to_json()
    assert doc["target"] == 26 and doc["lowerBound"] == 2
    assert doc["offender"] is None
