"""Text grammar for polynomials.

Accepted inputs are sums of terms like ``3*x0^2*x1 - 1/2*x1^3 + x0``:

* coefficients are integers or rationals ``p/q`` (mapped into the
  active field; a zero denominator, or over GF(p) a denominator
  divisible by p, raises ``ValueError``);
* variable powers are ``name`` or ``name^k`` joined by ``*``;
* recognised variable names: x, x0, x1, x2, u, v, w, z.

``parse_form`` returns a homogeneous :class:`~dihedralcovers.homog.HForm`
and rejects inhomogeneous input.  Formatting is the inverse, producing
strings the parser accepts, so round trips are byte stable;
``format_univar`` writes a :class:`~dihedralcovers.poly.Poly` in the
variable x (the CLI prints Mumford classes with it; the tests read it
back with their own ``parse_univar``).
"""

import re
from fractions import Fraction

from .homog import HForm

_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|(x0|x1|x2|[xuvwz])|(\^)|(\*)|(\+)|(-))")


def _tokens(s):
    pos = 0
    out = []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m or m.end() == pos:
            if s[pos:].strip():
                raise ValueError("cannot parse %r at position %d" % (s, pos))
            break
        num, name, caret, star, plus, minus = m.groups()
        if num:
            out.append(("num", num))
        elif name:
            out.append(("var", name))
        elif caret:
            out.append(("pow", None))
        elif star:
            out.append(("mul", None))
        elif plus:
            out.append(("add", None))
        else:
            out.append(("sub", None))
        pos = m.end()
    return out


def _terms(s):
    """Yield (Fraction coefficient, {var: exponent}) per term."""
    toks = _tokens(s)
    if not toks:
        raise ValueError("empty polynomial string")
    i = 0
    n = len(toks)
    while i < n:
        sign = 1
        while i < n and toks[i][0] in ("add", "sub"):
            if toks[i][0] == "sub":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError("dangling sign in %r" % s)
        coeff = Fraction(1)
        exps = {}
        expect_factor = True
        while i < n:
            kind, val = toks[i]
            if kind in ("add", "sub"):
                break
            if kind == "mul":
                i += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise ValueError("missing operator near %r in %r" % (val, s))
            if kind == "num":
                try:
                    coeff *= Fraction(val)
                except ZeroDivisionError:
                    raise ValueError("zero denominator in coefficient %s of %r"
                                     % (val, s)) from None
                i += 1
            elif kind == "var":
                name = val
                i += 1
                e = 1
                if i < n and toks[i][0] == "pow":
                    i += 1
                    if i >= n or toks[i][0] != "num":
                        raise ValueError("exponent expected in %r" % s)
                    e = int(toks[i][1])
                    i += 1
                exps[name] = exps.get(name, 0) + e
            else:
                raise ValueError("unexpected token in %r" % s)
            expect_factor = False
        yield sign * coeff, exps


def parse_form(s, field, nvars):
    """Parse a homogeneous form in x0,x1[,x2].  A bare ``x`` is taken
    as x0.  Raises on inhomogeneous input."""
    names = ("x0", "x1", "x2")[:nvars]
    terms = []
    for c, exps in _terms(s):
        exp = [0] * nvars
        for name, e in exps.items():
            if name == "x":
                name = "x0"
            if name not in names:
                raise ValueError("variable %r not allowed in a %d-variable form"
                                 % (name, nvars))
            exp[names.index(name)] += e
        terms.append((c, tuple(exp)))
    degs = {sum(e) for _, e in terms}
    if len(degs) > 1:
        raise ValueError("inhomogeneous polynomial %r (degrees %s)"
                         % (s, sorted(degs)))
    deg = degs.pop() if degs else 0
    acc = {}
    for c, e in terms:
        acc[e] = acc.get(e, Fraction(0)) + c
    p = field.characteristic
    for c in acc.values():
        if p and c.denominator % p == 0:
            raise ValueError("coefficient %s of %r has no value in GF(%d)" % (c, s, p))
    return HForm(field, nvars, deg, acc)


def _join_terms(terms):
    """Join (coefficient, monomial) pairs, highest first, as the parser
    reads them: "3*x^2 - x + 1/2"; no pairs give "0"."""
    parts = []
    for a, mono in terms:
        cs = "%s" % (a,)
        neg = cs.startswith("-")
        cs = cs.lstrip("-")
        if not mono:
            body = cs
        elif cs == "1":
            body = mono
        else:
            body = "%s*%s" % (cs, mono)
        if parts:
            parts.append(("- " if neg else "+ ") + body)
        else:
            parts.append(("-" if neg else "") + body)
    return " ".join(parts) or "0"


def format_univar(p):
    monos = ["", "x"] + ["x^%d" % i for i in range(2, len(p.c))]
    return _join_terms((a, monos[i]) for i, a in reversed(list(enumerate(p.c))) if a)


def format_form(f):
    names = ("x0", "x1", "x2")[:f.nvars]
    return _join_terms((f.terms[e], "*".join("%s^%d" % (n, k) if k > 1 else n
                                             for n, k in zip(names, e) if k))
                       for e in sorted(f.terms, reverse=True))
