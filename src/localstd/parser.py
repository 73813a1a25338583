"""Polynomial expression parser.

Grammar (explicit multiplication only, non-negative integer exponents):

    expr   := '+'? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-'* base ('^' INT)?
    base   := INT ('/' INT)? | NAME | '(' expr ')'

A NAME is a variable of the context, else a name bound by ``values`` (it
parses to its rational value), else a declared parameter.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, VarCtx


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (column %d)" % (message, pos + 1))
        self.pos = pos


class UndeclaredSymbolError(ParseError):
    pass


_TOKEN_CHARS = set("+-*/^()")


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            tokens.append(("INT", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("NAME", src[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, ctx: VarCtx, values):
        self.tokens = tokens
        self.k = 0
        self.ctx = ctx
        self.values = values

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("expected %s, found %r" % (kind, tok[1] or "end of input"), tok[2])
        return tok

    def parse(self) -> Poly:
        p = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError("unexpected %r" % tok[1], tok[2])
        return p

    def expr(self) -> Poly:
        if self.peek()[0] == "+":
            self.next()
        p = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Poly:
        p = self.factor()
        while self.peek()[0] == "*":
            self.next()
            p = p * self.factor()
        return p

    def factor(self) -> Poly:
        sign = 1
        while self.peek()[0] == "-":
            self.next()
            sign = -sign
        p = self.base()
        if self.peek()[0] == "^":
            caret = self.next()
            tok = self.peek()
            if tok[0] == "-":
                raise ParseError("negative exponent", tok[2])
            if tok[0] != "INT":
                raise ParseError("exponent must be a non-negative integer literal", caret[2])
            self.next()
            p = p ** int(tok[1])
            if self.peek()[0] == "^":
                raise ParseError("chained exponent; use parentheses", self.peek()[2])
        return -p if sign < 0 else p

    def base(self) -> Poly:
        tok = self.next()
        kind, text, pos = tok
        if kind == "INT":
            num = int(text)
            if self.peek()[0] == "/":
                self.next()
                den_tok = self.expect("INT")
                den = int(den_tok[1])
                if den == 0:
                    raise ParseError("zero denominator", den_tok[2])
                return self.ctx.constant(Fraction(num, den))
            return self.ctx.constant(Fraction(num))
        if kind == "NAME":
            if text in self.ctx.variables:
                return self.ctx.variable(text)
            if text in self.values:
                return self.ctx.constant(self.values[text])
            if text in self.ctx.parameters:
                return self.ctx.parameter(text)
            raise UndeclaredSymbolError(
                "symbol %r is neither a declared variable nor a parameter" % text, pos)
        if kind == "(":
            p = self.expr()
            self.expect(")")
            return p
        raise ParseError("unexpected %r" % (text or "end of input"), pos)


def parse_poly(src: str, ctx: VarCtx, values=None) -> Poly:
    """Parse an expression into a canonical polynomial over the context.

    A name bound by values parses to its rational value, so the result is the
    parse over the context specialized at that point.
    """
    if not src.strip():
        raise ParseError("empty input", 0)
    values = values or {}
    clash = set(values) & set(ctx.variables)
    if clash:
        raise ValueError("bound names %s are variables of the context" % sorted(clash))
    return _Parser(_tokenize(src), ctx, values).parse()
