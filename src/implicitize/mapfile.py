"""Reading and writing ring maps.

Two interchangeable formats:

* JSON, for programs: an object with fields `domain_vars`, `codomain_vars`,
  and `images`, where each image is a list of terms and each term is
  `[numerator, denominator, {variable_name: exponent, ...}]`. An optional
  `symmetries` field lists objects `{"domain": [...], "codomain": [...]}`,
  each naming the signed image of every variable in order (`"-p12"` for
  -p12).

* Text, for humans: optional `domain:` / `codomain:` header lines followed by
  one `name = expression` line per image, standard infix with `+ - * ^`,
  parentheses, and integer or `p/q` rational literals. `#` starts a comment.
  Each optional `symmetry:` header line declares one symmetry the same way,
  the domain images, a `;`, then the codomain images.
  Without headers, the domain is the left-hand sides in order and the
  codomain is every right-hand-side name in order of first appearance.
  Expansion is capped: a product or power that could exceed MAX_TERMS terms
  or grow a coefficient past MAX_COEFFICIENT_BITS, an expression whose
  products together multiply more than MAX_PRODUCTS pairs of terms, or
  nesting deeper than the interpreter's recursion limit, is a parse error.

A declared symmetry is checked exactly by `RingMap`; one that is not a signed
permutation of the variables, or does not commute with the map, is a parse
error.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb
from typing import Sequence

from .polyring import Monomial, Polynomial, RingMap, Symmetry, format_polynomial

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Most terms a text-map product or power may expand to, bounded before expanding.
MAX_TERMS = 1000
# Most term-by-term multiplications one text-map expression may spend, charged
# before expanding (the squarings and multiplications of `^` included):
# MAX_TERMS bounds a result's size, this bounds the work to compute it.
MAX_PRODUCTS = 60_000
# Most bits a text-map product or power may grow a numerator or denominator to,
# bounded before expanding: a power of a one-term base like `3^10000000` costs
# no term products, only big-integer work.
MAX_COEFFICIENT_BITS = 1 << 16


def _height(poly: Polynomial) -> int:
    """b with every numerator and denominator of `poly` at most 2^b in size,
    plus the carry of summing its terms; heights add under `*`."""
    bits = max(
        ((max(abs(c.numerator), c.denominator) - 1).bit_length() for c in poly.terms.values()),
        default=0,
    )
    return bits + (len(poly.terms) - 1).bit_length()


def _power_products(t: int, k: int) -> int:
    """Term pairs `Polynomial.__pow__` multiplies for a t-term base to the k,
    each power sized by the term cap's bound, which (a+b)-like bases attain."""

    def size(e: int) -> int:
        return comb(e + t - 1, t - 1)

    products, result, square = 0, 0, 1  # exponents of the two factors
    while k:
        if k & 1:
            products += size(result) * size(square)
            result += square
        k >>= 1
        if k:
            products += size(square) ** 2
            square *= 2
    return products


class MapParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        at = ""
        if line is not None:
            at = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + at)
        self.line = line
        self.column = column


def parse_map_file(path: str) -> RingMap:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_map(handle.read())


def parse_map(text: str) -> RingMap:
    """Dispatch on content: a leading '{' means JSON, anything else text."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_map_json(text)
    return parse_map_text(text)


def _check_names(names: Sequence[str], what: str) -> list[str]:
    if not names:
        raise MapParseError(f"empty {what} variable list")
    seen = set()
    for name in names:
        if not isinstance(name, str) or not _NAME.fullmatch(name):
            raise MapParseError(f"invalid {what} variable name {name!r}")
        if name in seen:
            raise MapParseError(f"duplicate variable name {name!r}")
        seen.add(name)
    return list(names)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _signed(names, variables: list[str], line: int | None = None) -> tuple[tuple[int, int], ...]:
    """(index, sign) of each signed name of a symmetry, such as `-p12`."""
    index = {name: k for k, name in enumerate(variables)}
    out = []
    for name in names:
        negated = isinstance(name, str) and name.startswith("-")
        target = index.get(name[1:] if negated else name) if isinstance(name, str) else None
        if target is None:
            raise MapParseError(f"unknown variable {name!r} in a symmetry", line)
        out.append((target, -1 if negated else 1))
    return tuple(out)


def _ring_map(images, domain, codomain, symmetries) -> RingMap:
    try:
        return RingMap(images, len(codomain), domain, codomain, symmetries)
    except ValueError as exc:
        raise MapParseError(str(exc)) from None


def _signed_names(part, variables: list[str]) -> list[str]:
    return [("-" if sign < 0 else "") + variables[k] for k, sign in part]


def parse_map_json(text: str) -> RingMap:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MapParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(data, dict):
        raise MapParseError("a JSON map must be an object")
    for key in ("domain_vars", "codomain_vars", "images"):
        if key not in data:
            raise MapParseError(f"missing field {key!r}")
        if not isinstance(data[key], list):
            raise MapParseError(f"field {key!r} must be a list")
    domain = _check_names(data["domain_vars"], "domain")
    codomain = _check_names(data["codomain_vars"], "codomain")
    if set(domain) & set(codomain):
        raise MapParseError("domain and codomain variable names overlap")
    index = {name: j for j, name in enumerate(codomain)}
    images_data = data["images"]
    if len(images_data) != len(domain):
        raise MapParseError(
            f"{len(domain)} domain variables but {len(images_data)} images"
        )
    images = []
    for i, terms in enumerate(images_data):
        if not isinstance(terms, list):
            raise MapParseError(f"image {i} must be a list of terms")
        poly_terms = []
        for term in terms:
            try:
                num, den, exps = term
            except (TypeError, ValueError):
                raise MapParseError(f"malformed term {term!r} in image {i}") from None
            if not _is_int(num) or not _is_int(den):
                raise MapParseError(f"non-integer coefficient in image {i}")
            if den == 0:
                raise MapParseError(f"zero denominator in image {i}")
            if not isinstance(exps, dict):
                raise MapParseError(f"exponents in image {i} must be an object")
            pairs = []
            for name, exp in exps.items():
                if name not in index:
                    raise MapParseError(f"unknown variable {name!r} in image {i}")
                if not _is_int(exp) or exp < 1:
                    raise MapParseError(f"bad exponent for {name!r} in image {i}")
                pairs.append((index[name], exp))
            poly_terms.append((Monomial(pairs), Fraction(num, den)))
        images.append(Polynomial(len(codomain), poly_terms))
    declared = data.get("symmetries", [])
    if not isinstance(declared, list):
        raise MapParseError("field 'symmetries' must be a list")
    symmetries = []
    for k, sym in enumerate(declared):
        parts = [sym.get("domain"), sym.get("codomain")] if isinstance(sym, dict) else []
        if len(parts) != 2 or not all(isinstance(part, list) for part in parts):
            raise MapParseError(f"symmetry {k} must be an object with lists 'domain' and 'codomain'")
        symmetries.append(Symmetry(_signed(parts[0], domain), _signed(parts[1], codomain)))
    return _ring_map(images, domain, codomain, symmetries)


def json_terms(poly: Polynomial, names: Sequence[str]) -> list:
    """The JSON term list of `poly`: `[numerator, denominator, {name: exponent}]` per term, sorted."""
    return [
        [coeff.numerator, coeff.denominator, {names[i]: e for i, e in mono.exps}]
        for mono, coeff in poly.sorted_terms()
    ]


def emit_map_json(phi: RingMap) -> str:
    payload = {
        "domain_vars": phi.domain_names,
        "codomain_vars": phi.codomain_names,
        "images": [json_terms(image, phi.codomain_names) for image in phi.images],
    }
    if phi.symmetries:
        payload["symmetries"] = [
            {
                "domain": _signed_names(sym.domain, phi.domain_names),
                "codomain": _signed_names(sym.codomain, phi.codomain_names),
            }
            for sym in phi.symmetries
        ]
    return json.dumps(payload, indent=2) + "\n"


def emit_map_text(phi: RingMap) -> str:
    lines = [
        "domain: " + " ".join(phi.domain_names),
        "codomain: " + " ".join(phi.codomain_names),
    ]
    for sym in phi.symmetries:
        domain = " ".join(_signed_names(sym.domain, phi.domain_names))
        codomain = " ".join(_signed_names(sym.codomain, phi.codomain_names))
        lines.append(f"symmetry: {domain} ; {codomain}")
    for name, image in zip(phi.domain_names, phi.images):
        lines.append(f"{name} = {format_polynomial(image, phi.codomain_names)}")
    return "\n".join(lines) + "\n"


# --- infix expression parsing for the text format ----------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str, line: int):
    pos = 0
    tokens = []
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise MapParseError(
                    f"unexpected character {text[pos:].strip()[0]!r}", line, pos + 1
                )
            break
        if match.group("name"):
            tokens.append(("name", match.group("name"), match.start("name")))
        elif match.group("int"):
            tokens.append(("int", int(match.group("int")), match.start("int")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    return tokens


class _ExprParser:
    """Recursive descent over: expr = term (+- term)*, term = factor (* factor)*,
    factor = atom (^ uint)?, atom = ( expr ) | name | rational | unary +-."""

    def __init__(self, tokens, names: dict[str, int], num_vars: int, line: int):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.num_vars = num_vars
        self.line = line
        self.products = 0  # term pairs multiplied so far, against MAX_PRODUCTS

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        token = self.peek()
        if token is None:
            raise MapParseError("unexpected end of expression", self.line)
        self.pos += 1
        return token

    def fail(self, message, token=None):
        column = token[2] + 1 if token else None
        raise MapParseError(message, self.line, column)

    def charge(self, products: int, height: int, token):
        self.products += products
        if self.products > MAX_PRODUCTS:
            self.fail(f"expansion may need more than {MAX_PRODUCTS} term products", token)
        if height > MAX_COEFFICIENT_BITS:
            self.fail(f"a coefficient may exceed {MAX_COEFFICIENT_BITS} bits", token)

    def parse(self) -> Polynomial:
        poly = self.expr()
        if self.peek() is not None:
            self.fail(f"trailing input {self.peek()[1]!r}", self.peek())
        return poly

    def expr(self) -> Polynomial:
        poly = self.term()
        while True:
            token = self.peek()
            if token and token[0] == "op" and token[1] in "+-":
                self.take()
                other = self.term()
                poly = poly + other if token[1] == "+" else poly - other
            else:
                return poly

    def term(self) -> Polynomial:
        poly = self.factor()
        while True:
            token = self.peek()
            if token and token[0] == "op" and token[1] == "*":
                self.take()
                other = self.factor()
                if len(poly.terms) * len(other.terms) > MAX_TERMS:
                    self.fail(f"product may exceed {MAX_TERMS} terms", token)
                self.charge(len(poly.terms) * len(other.terms), _height(poly) + _height(other), token)
                poly = poly * other
            else:
                return poly

    def factor(self) -> Polynomial:
        base = self.atom()
        token = self.peek()
        if token and token[0] == "op" and token[1] == "^":
            self.take()
            exp = self.take()
            if exp[0] != "int":
                self.fail("exponent must be a nonnegative integer", exp)
            t = len(base.terms)
            if t > 1 and comb(exp[1] + t - 1, t - 1) > MAX_TERMS:
                self.fail(f"power may exceed {MAX_TERMS} terms", token)
            self.charge(_power_products(t, exp[1]) if t > 1 else 0, exp[1] * _height(base), token)
            return base ** exp[1]
        return base

    def atom(self) -> Polynomial:
        token = self.take()
        if token[0] == "op" and token[1] == "(":
            poly = self.expr()
            closing = self.take()
            if closing[0] != "op" or closing[1] != ")":
                self.fail("expected ')'", closing)
            return poly
        if token[0] == "op" and token[1] in "+-":
            inner = self.factor()
            return inner if token[1] == "+" else -inner
        if token[0] == "name":
            index = self.names.get(token[1])
            if index is None:
                self.fail(f"unknown variable {token[1]!r}", token)
            return Polynomial.variable(self.num_vars, index)
        if token[0] == "int":
            value = Fraction(token[1])
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self.take()
                den = self.take()
                if den[0] != "int":
                    self.fail("expected integer denominator", den)
                if den[1] == 0:
                    self.fail("zero denominator", den)
                value = Fraction(token[1], den[1])
            return Polynomial.constant(self.num_vars, value)
        self.fail(f"unexpected token {token[1]!r}", token)


def parse_map_text(text: str) -> RingMap:
    domain_decl: list[str] | None = None
    codomain_decl: list[str] | None = None
    symmetry_decls: list[tuple[list[str], list[str], int]] = []
    assignments: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("domain:"):
            domain_decl = _check_names(line[len("domain:") :].split(), "domain")
            continue
        if line.startswith("codomain:"):
            codomain_decl = _check_names(line[len("codomain:") :].split(), "codomain")
            continue
        if line.startswith("symmetry:"):
            parts = line[len("symmetry:") :].split(";")
            if len(parts) != 2:
                raise MapParseError("expected 'symmetry: domain images ; codomain images'", lineno)
            symmetry_decls.append((parts[0].split(), parts[1].split(), lineno))
            continue
        if "=" not in line:
            raise MapParseError("expected 'name = expression'", lineno)
        lhs, rhs = line.split("=", 1)
        lhs = lhs.strip()
        if not _NAME.fullmatch(lhs):
            raise MapParseError(f"invalid variable name {lhs!r}", lineno)
        assignments.append((lhs, rhs, lineno))

    if not assignments:
        raise MapParseError("no images defined")
    domain = [name for name, _, _ in assignments]
    seen = set()
    for name, _, lineno in assignments:
        if name in seen:
            raise MapParseError(f"duplicate variable name {name!r}", lineno)
        seen.add(name)
    if domain_decl is not None and domain_decl != domain:
        raise MapParseError("domain declaration does not match assignment order")

    if codomain_decl is not None:
        codomain = codomain_decl
    else:
        codomain = []
        known = set(domain)
        for _, rhs, lineno in assignments:
            for match in _NAME.finditer(rhs):
                name = match.group()
                if name in known:
                    continue
                known.add(name)
                codomain.append(name)
        if not codomain:
            raise MapParseError("no codomain variables appear in any image")
    overlap = set(domain) & set(codomain)
    if overlap:
        raise MapParseError(f"domain names reused in codomain: {sorted(overlap)}")

    index = {name: j for j, name in enumerate(codomain)}
    images = []
    for name, rhs, lineno in assignments:
        tokens = _tokenize(rhs, lineno)
        parser = _ExprParser(tokens, index, len(codomain), lineno)
        try:
            images.append(parser.parse())
        except RecursionError:
            raise MapParseError("expression nested too deeply", lineno) from None
    symmetries = [
        Symmetry(_signed(names, domain, lineno), _signed(targets, codomain, lineno))
        for names, targets, lineno in symmetry_decls
    ]
    return _ring_map(images, domain, codomain, symmetries)
