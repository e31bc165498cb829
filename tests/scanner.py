"""Character-by-character polynomial parser: the reference oracle that the
library's token-based `parse_poly` is tested against.

It walks the text one character at a time with a position cursor, skipping
whitespace where the grammar allows it and restoring the cursor where a
lookahead fails. Every text must give the same `Poly`, or the same
`PolyParseError` message and position, under both parsers.
"""

from fractions import Fraction

from assoform.errors import PolyParseError
from assoform.poly import Poly, _coerce_space


def parse_poly(text, nvars, space):
    """Parse polynomial text into a Poly.

    Grammar: terms joined by + or -, each term [sign][coeff "*"]varpart
    with coeff = int or int/posint and varpart = ("z"|"e")index["^"exp]
    factors joined by "*". Whitespace is ignored. A bare rational is a
    degree-0 term, so "0" is the zero polynomial.

    >>> parse_poly("z1^4 + 1/2*z1^2*z2^2", 2, "z").items()
    [((4, 0), Fraction(1, 1)), ((2, 2), Fraction(1, 2))]
    """
    space = _coerce_space(space)
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_int(what):
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdecimal():
            pos += 1
        if pos == start:
            raise PolyParseError(f"expected {what}", start)
        return int(text[start:pos])

    def read_var(exps):
        nonlocal pos
        letter = text[pos]
        if letter != space.value:
            raise PolyParseError(
                f"variable letter {letter!r} does not match the {space.value}-space", pos
            )
        pos += 1
        idx_start = pos
        idx = read_int("variable index")
        if not 1 <= idx <= nvars:
            raise PolyParseError(f"variable index {idx} out of range 1..{nvars}", idx_start)
        exp = 1
        save = pos
        skip_ws()
        if pos < n and text[pos] == "^":
            pos += 1
            skip_ws()
            exp = read_int("exponent")
        else:
            pos = save
        exps[idx - 1] += exp

    terms = []
    skip_ws()
    if pos == n:
        raise PolyParseError("empty input", pos)
    first = True
    while pos < n:
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos += 1
            skip_ws()
        elif not first:
            raise PolyParseError("expected '+' or '-' between terms", pos)
        first = False
        coeff = Fraction(1)
        exps = [0] * nvars
        if pos < n and text[pos].isdecimal():
            num = read_int("integer")
            save = pos
            skip_ws()
            if pos < n and text[pos] == "/":
                pos += 1
                skip_ws()
                den_start = pos
                den = read_int("denominator")
                if den == 0:
                    raise PolyParseError("zero denominator", den_start)
                coeff = Fraction(num, den)
            else:
                pos = save
                coeff = Fraction(num)
            save = pos
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
                if pos >= n or not text[pos].isalpha():
                    raise PolyParseError("expected a variable after '*'", pos)
                read_var(exps)
            else:
                pos = save
                terms.append((tuple(exps), sign * coeff))
                skip_ws()
                continue
        elif pos < n and text[pos].isalpha():
            read_var(exps)
        else:
            raise PolyParseError("expected a term", pos)
        while True:
            save = pos
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
                if pos >= n or not text[pos].isalpha():
                    raise PolyParseError("expected a variable after '*'", pos)
                read_var(exps)
            else:
                pos = save
                break
        terms.append((tuple(exps), sign * coeff))
        skip_ws()
    return Poly(nvars, space, terms)
