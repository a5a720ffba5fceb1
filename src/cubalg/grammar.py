"""Text grammar and JSON rendering for cells and chains.

    factor   := ("p" | "s" | "i") "@" int
    cell     := "[" factor ("," factor)* "]"
    term     := [rational "*"] cell
    chain    := ["-"] term (("+" | "-") term)*
    rational := int | int "/" int

A bare cell is a term with coefficient 1.  Whitespace may appear between
tokens.  Parse errors carry the offending position.

Canonical form: terms sorted by per-axis (coordinate, kind) keys, each
rational in lowest terms, integers printed without a denominator, unit
coefficients omitted.
"""

from __future__ import annotations

from fractions import Fraction

from .cells import CHAR_KINDS, KIND_CHARS, Cell, Factor, make_cell
from .chain import Chain
from .lattice import LatticeSpec


class ChainParseError(ValueError):
    """Syntax error in the chain grammar, annotated with its position."""

    def __init__(self, message: str, text: str, pos: int):
        self.message = message
        self.text = text
        self.pos = pos
        caret = " " * pos + "^"
        super().__init__(f"{message} at position {pos}\n  {text}\n  {caret}")


class _Parser:
    def __init__(self, text: str, lattice: LatticeSpec):
        self.text = text
        self.lattice = lattice
        self.pos = 0

    def error(self, message: str) -> ChainParseError:
        return ChainParseError(message, self.text, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        if not "0" <= self.peek() <= "9":  # ASCII only: str.isdigit takes any Unicode digit
            self.pos = start
            raise self.error("expected an integer")
        while "0" <= self.peek() <= "9":
            self.pos += 1
        return int(self.text[start : self.pos])

    def parse_rational(self) -> Fraction:
        num = self.parse_int()
        self.skip_ws()
        if self.peek() == "/":
            self.pos += 1
            den = self.parse_int()
            if den == 0:
                raise self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def parse_factor(self) -> Factor:
        self.skip_ws()
        ch = self.peek()
        if ch not in CHAR_KINDS:
            raise self.error("expected factor kind 'p', 's' or 'i'")
        self.pos += 1
        self.skip_ws()
        self.expect("@")
        coord = self.parse_int()
        return Factor(CHAR_KINDS[ch], coord)

    def parse_cell(self) -> Cell:
        self.skip_ws()
        self.expect("[")
        factors = [self.parse_factor()]
        self.skip_ws()
        while self.peek() == ",":
            self.pos += 1
            factors.append(self.parse_factor())
            self.skip_ws()
        self.expect("]")
        if len(factors) != self.lattice.d:
            raise self.error(
                f"cell has {len(factors)} factors, lattice has dimension {self.lattice.d}"
            )
        return make_cell(factors, self.lattice)

    def parse_term(self, sign: int) -> tuple[Cell, Fraction]:
        self.skip_ws()
        if self.peek() == "[":
            return self.parse_cell(), Fraction(sign)
        coef = self.parse_rational()
        self.skip_ws()
        self.expect("*")
        return self.parse_cell(), sign * coef

    def parse_chain(self) -> Chain:
        terms: dict[Cell, Fraction] = {}
        self.skip_ws()
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        elif self.peek() == "+":
            self.pos += 1
        cell, coef = self.parse_term(sign)
        terms[cell] = terms.get(cell, Fraction(0)) + coef
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "":
                break
            if ch not in "+-":
                raise self.error("expected '+', '-' or end of input")
            self.pos += 1
            cell, coef = self.parse_term(1 if ch == "+" else -1)
            terms[cell] = terms.get(cell, Fraction(0)) + coef
        return Chain(self.lattice, terms)


def _parse_whole(text: str, lattice: LatticeSpec | None, what: str, parse):
    p = _Parser(text, lattice)
    value = parse(p)
    p.skip_ws()
    if p.pos != len(text):
        raise p.error(f"trailing input after {what}")
    return value


def parse_cell(text: str, lattice: LatticeSpec) -> Cell:
    return _parse_whole(text, lattice, "cell", _Parser.parse_cell)


def parse_chain(text: str, lattice: LatticeSpec) -> Chain:
    return _Parser(text, lattice).parse_chain()


# -- formatting ---------------------------------------------------------------


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _sorted_terms(chain: Chain) -> list[tuple[Cell, Fraction]]:
    return sorted(chain.terms.items(), key=lambda term: term[0].sort_key())


def format_chain(chain: Chain) -> str:
    if chain.is_zero():
        return "0"
    parts: list[str] = []
    for cell, coef in _sorted_terms(chain):
        mag = abs(coef)
        body = str(cell) if mag == 1 else f"{format_rational(mag)}*{cell}"
        if not parts:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if coef > 0 else '-'} {body}")
    return " ".join(parts)


def chain_to_json_dict(chain: Chain) -> dict:
    """Canonical JSON rendering with sorted terms."""
    terms = [
        {
            "cell": [[KIND_CHARS[f.kind], f.coord] for f in cell.factors],
            "coef": format_rational(coef),
        }
        for cell, coef in _sorted_terms(chain)
    ]
    return {"lattice": {"periods": list(chain.lattice.periods)}, "terms": terms}


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # a float would be truncated, a bool is no integer
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_coef(coef) -> Fraction:
    if type(coef) is int:
        return Fraction(coef)
    if isinstance(coef, str):
        return _parse_whole(coef, None, "rational", _Parser.parse_rational)
    # a float would become its binary fraction
    raise ValueError(f"coefficient must be an integer or a rational string, got {coef!r}")


def _json_key(data, key: str):
    try:
        return data[key]
    except (KeyError, TypeError):
        raise ValueError(f"chain JSON has no {key!r} key") from None


def _json_list(data, key: str) -> list:
    value = _json_key(data, key)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"chain JSON {key!r} must be a list, got {value!r}")
    return value


def _json_factor(factor) -> Factor:
    if not isinstance(factor, (list, tuple)) or len(factor) != 2:
        raise ValueError(f"a 'cell' factor must be [kind, coordinate], got {factor!r}")
    kind, coord = factor
    if not isinstance(kind, str) or kind not in CHAR_KINDS:
        raise ValueError(f"factor kind must be 'p', 's' or 'i', got {kind!r}")
    return Factor(CHAR_KINDS[kind], _json_int(coord, "coordinate"))


def chain_from_json_dict(data: dict) -> Chain:
    """Inverse of chain_to_json_dict.  Coordinates must be integers,
    coefficients integers or rational strings ("n" or "n/d") and kinds
    "p", "s" or "i"; anything else, floats, missing keys and values of the
    wrong shape included, raises ValueError."""
    periods = _json_list(_json_key(data, "lattice"), "periods")
    lattice = LatticeSpec(tuple(_json_int(n, "a 'periods' entry") for n in periods))
    terms: dict[Cell, Fraction] = {}
    for entry in _json_list(data, "terms"):
        cell = Cell(tuple(_json_factor(f) for f in _json_list(entry, "cell")))
        terms[cell] = terms.get(cell, Fraction(0)) + _json_coef(_json_key(entry, "coef"))
    return Chain(lattice, terms)
