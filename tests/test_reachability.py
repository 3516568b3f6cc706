"""The comparison step of the reachability gate (tests/reachability.py),
on made-up sets of functions; the inputs themselves are not run here."""

import textwrap

from reachability import ALLOWED, check, functions, is_public_dunder, readme_commands

DEFINED = {
    "poly.used": ("poly.py", 10, 4),
    "poly.dead": ("poly.py", 20, 3),
    "poly.kept": ("poly.py", 30, 5),
    "poly.Poly.__repr__": ("poly.py", 40, 2),
    "poly.Poly.__init__": ("poly.py", 45, 3),
}


def test_a_listed_unreached_function_passes():
    assert check(DEFINED, {"poly.used", "poly.dead", "poly.Poly.__init__"},
                 {"poly.kept": "reason"}) == []


def test_an_unreached_unlisted_function_fails_by_name():
    assert check(DEFINED, {"poly.used", "poly.Poly.__init__"}, {"poly.kept": "reason"}) \
        == ["unreached and not listed: poly.dead (poly.py:20)"]


def test_a_listed_function_that_is_reached_fails_by_name():
    entered = {"poly.used", "poly.dead", "poly.kept", "poly.Poly.__init__"}
    assert check(DEFINED, entered, {"poly.kept": "reason"}) \
        == ["listed but reached: poly.kept (take it off ALLOWED)"]


def test_a_listed_name_that_is_gone_fails_by_name():
    entered = {"poly.used", "poly.dead", "poly.Poly.__init__"}
    assert check(DEFINED, entered, {"poly.kept": "reason", "poly.gone": "reason"}) \
        == ["listed but missing: poly.gone"]


def test_public_dunders_are_allowed_by_one_rule_but_not_constructors():
    assert is_public_dunder("poly.Poly.__repr__")
    assert not is_public_dunder("poly.Poly.__init__")
    assert not is_public_dunder("fields._QQ.__repr__")
    assert not is_public_dunder("poly.__getattr__")
    assert check(DEFINED, {"poly.used", "poly.dead"}, {"poly.kept": "reason"}) \
        == ["unreached and not listed: poly.Poly.__init__ (poly.py:45)"]


def test_functions_are_named_as_qualnames_from_their_first_line(tmp_path):
    source = textwrap.dedent('''\
        import functools


        def outer(x):
            def inner(y):
                return y
            return inner(x)


        class Box:
            @functools.lru_cache()
            def size(self):
                return 1
        ''')
    (tmp_path / "mod.py").write_text(source)
    assert functions(tmp_path) == {
        "mod.outer": ("mod.py", 4, 4),
        "mod.outer.<locals>.inner": ("mod.py", 5, 2),
        "mod.Box.size": ("mod.py", 11, 3),
    }
    # the recorder keys a code object by co_firstlineno, the decorator's line
    namespace = {}
    exec(compile(source, "mod.py", "exec"), namespace)
    assert namespace["Box"].size.__wrapped__.__code__.co_firstlineno == 11


def test_the_package_and_allow_list_are_read():
    defined = functions()
    assert "graded.kernel_basis.<locals>.check" in defined
    assert set(ALLOWED) <= set(defined)
    assert all(ALLOWED.values())


def test_readme_commands_are_cli_invocations():
    commands = readme_commands()
    assert len(commands) >= 10
    assert ["cover", "--n", "3", "--m", "1"] in commands
    assert all(argv[0] in ("cover", "deform", "check", "jacobian", "dn-table", "pic",
                           "torsion") for argv in commands)
