"""Text formats: algebra files, term expressions, and decision reports.

Algebra file grammar (format version "maltsev-lab/1"):

    maltsev-lab/1          optional version line; always written on output
    algebra NAME
    size N
    op SYMBOL ARITY
    <N^ARITY whitespace-separated entries, row major, leftmost argument
     most significant, free line breaks>
    op ...                 further operation blocks

"#" starts a comment running to the end of the line.  Parse errors carry
1-based line and column positions.

Witness terms are parenthesized prefix expressions over variables x0, x1,
...: for example (f x0 (f x1 x2)), with nullary applications written (c).
"""
from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _encode

from .algebra import Apply, FiniteAlgebra, Operation, Term, Variable
from .decision import DecisionReport
from .errors import AlgebraFormatError, TermError

FORMAT_VERSION = "maltsev-lab/1"

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*\Z")
_VARIABLE = re.compile(r"x(\d+)\Z")


class _Tokens:
    def __init__(self, text):
        self.items = []  # (token, line, column)
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0]
            for piece in re.finditer(r"\S+", line):
                self.items.append((piece.group(0), lineno, piece.start() + 1))
        self.pos = 0
        self.last = (len(text.splitlines()) or 1, 1)

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def take(self, what: str):
        got = self.peek()
        if got is None:
            raise AlgebraFormatError(f"unexpected end of file: expected {what}", self.last[0])
        self.pos += 1
        return got

    def take_int(self, what: str) -> tuple[int, int, int]:
        token, line, column = self.take(what)
        try:
            return int(token), line, column
        except ValueError:
            raise AlgebraFormatError(
                f"expected {what}, got {token!r}", line, column
            ) from None


def parse_algebra(text: str) -> FiniteAlgebra:
    """Parse an algebra file; raises AlgebraFormatError with a position."""
    tokens = _Tokens(text)
    head = tokens.peek()
    if head is None:
        raise AlgebraFormatError("empty algebra file")
    if head[0].startswith("maltsev-lab/"):
        tokens.take("format version")
        if head[0] != FORMAT_VERSION:
            raise AlgebraFormatError(
                f"unsupported format version {head[0]!r}", head[1], head[2]
            )
    token, line, column = tokens.take("keyword 'algebra'")
    if token != "algebra":
        raise AlgebraFormatError(f"expected 'algebra', got {token!r}", line, column)
    name, line, column = tokens.take("algebra name")
    if not _IDENT.match(name):
        raise AlgebraFormatError(f"bad algebra name {name!r}", line, column)
    token, line, column = tokens.take("keyword 'size'")
    if token != "size":
        raise AlgebraFormatError(f"expected 'size', got {token!r}", line, column)
    size, line, column = tokens.take_int("universe size")
    if size < 1:
        raise AlgebraFormatError("size must be at least 1", line, column)
    ops = []
    seen_symbols = set()
    while True:
        nxt = tokens.peek()
        if nxt is None:
            break
        token, line, column = tokens.take("keyword 'op'")
        if token != "op":
            raise AlgebraFormatError(f"expected 'op', got {token!r}", line, column)
        symbol, line, column = tokens.take("operation symbol")
        if not _IDENT.match(symbol):
            raise AlgebraFormatError(f"bad operation symbol {symbol!r}", line, column)
        if symbol in seen_symbols:
            raise AlgebraFormatError(
                f"duplicate operation symbol {symbol!r}", line, column
            )
        seen_symbols.add(symbol)
        arity, line, column = tokens.take_int("operation arity")
        if arity < 0:
            raise AlgebraFormatError("arity must be nonnegative", line, column)
        # decided before the power is taken, which for a huge arity would
        # not finish: size^arity > left holds once 2^arity > left
        left = len(tokens.items) - tokens.pos
        if size > 1 and (arity >= left.bit_length() or size**arity > left):
            raise AlgebraFormatError(
                f"arity {arity} needs a table entry for each of the "
                f"{size}^{arity} argument tuples, but only {left} tokens are left",
                line,
                column,
            )
        expected = size**arity
        table = []
        for _ in range(expected):
            value, line, column = tokens.take_int("table entry")
            if not 0 <= value < size:
                raise AlgebraFormatError(
                    f"table entry {value} outside universe 0..{size - 1}",
                    line,
                    column,
                )
            table.append(value)
        ops.append(Operation(symbol, arity, tuple(table)))
    if not ops:
        raise AlgebraFormatError("algebra must declare at least one operation")
    return FiniteAlgebra(name, size, tuple(ops))


def format_algebra(alg: FiniteAlgebra) -> str:
    """Serialize an algebra; parse(format(a)) reproduces a exactly."""
    lines = [FORMAT_VERSION, f"algebra {alg.name}", f"size {alg.size}"]
    for op in alg.ops:
        lines.append(f"op {op.symbol} {op.arity}")
        if op.arity == 0:
            lines.append(str(op.table[0]))
        else:
            row = alg.size
            for start in range(0, len(op.table), row):
                lines.append(" ".join(map(str, op.table[start:start + row])))
    return "\n".join(lines) + "\n"


def format_term(t: Term) -> str:
    """Parenthesized prefix form, variables as x<i>."""
    if isinstance(t, Variable):
        return f"x{t.index}"
    inner = " ".join([t.symbol] + [format_term(c) for c in t.children])
    return f"({inner})"


def parse_term(text: str) -> Term:
    """Parse a parenthesized prefix expression into a term."""
    tokens = re.findall(r"\(|\)|[^\s()]+", text)
    pos = 0

    def parse_one() -> Term:
        nonlocal pos
        if pos >= len(tokens):
            raise TermError("unexpected end of term expression")
        token = tokens[pos]
        pos += 1
        if token == "(":
            if pos >= len(tokens) or tokens[pos] in ("(", ")"):
                raise TermError("expected an operation symbol after '('")
            symbol = tokens[pos]
            if not _IDENT.match(symbol):
                raise TermError(f"bad operation symbol {symbol!r}")
            pos += 1
            children = []
            while pos < len(tokens) and tokens[pos] != ")":
                children.append(parse_one())
            if pos >= len(tokens):
                raise TermError("missing ')' in term expression")
            pos += 1
            return Apply(symbol, tuple(children))
        if token == ")":
            raise TermError("unbalanced ')' in term expression")
        m = _VARIABLE.match(token)
        if not m:
            raise TermError(f"expected a variable like x0, got {token!r}")
        return Variable(int(m.group(1)))

    term = parse_one()
    if pos != len(tokens):
        raise TermError("trailing tokens after term expression")
    return term


def _render_value(v) -> str:
    if isinstance(v, tuple):
        return "(" + ",".join(map(str, v)) + ")"
    return str(v)


def _term_texts(witnesses) -> dict[int, str]:
    """Each distinct witness term's text, by its id."""
    terms = {id(w.term): w.term for w in witnesses}
    return {key: format_term(t) for key, t in terms.items()}


def report_to_text(report: DecisionReport, include_witnesses: bool = False) -> str:
    lines = [f"problem: {report.problem}", f"algebra: {report.algebra}"]
    if report.parameters:
        lines.append(
            "parameters: " + " ".join(f"{k}={v}" for k, v in report.parameters)
        )
    lines.append(f"answer: {'yes' if report.answer else 'no'}")
    if report.refutation is not None:
        parts = " ".join(
            f"{k}={_render_value(v)}" for k, v in zip(report.pair_names, report.refutation)
        )
        lines.append(f"refuted at: {parts}")
    if include_witnesses:
        texts = _term_texts(report.witnesses)
        for w in report.witnesses:
            parts = ", ".join(
                f"{k}={_render_value(v)}" for k, v in zip(report.pair_names, w.pair)
            )
            lines.append(f"witness ({parts}): {texts[id(w.term)]}")
            for identity in w.identities:
                lines.append(f"  satisfies: {identity}")
    s = report.stats
    lines.append(
        f"stats: pairs={s.pairs_checked} tuples={s.tuples_generated} "
        f"rounds={s.rounds_max} elapsed={s.elapsed_seconds:.3f}s"
    )
    return "\n".join(lines) + "\n"


def _jsonable(v):
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    return v


def report_to_dict(report: DecisionReport, include_witnesses: bool = False) -> dict:
    out = {
        "format": FORMAT_VERSION,
        "problem": report.problem,
        "algebra": report.algebra,
        "parameters": {k: v for k, v in report.parameters},
        "answer": "yes" if report.answer else "no",
        "refutation": None,
        "stats": dict(vars(report.stats)),
    }
    if report.refutation is not None:
        out["refutation"] = {
            k: _jsonable(v) for k, v in zip(report.pair_names, report.refutation)
        }
    if include_witnesses:
        texts = _term_texts(report.witnesses)
        out["witnesses"] = [
            {
                **{k: _jsonable(v) for k, v in zip(report.pair_names, w.pair)},
                "term": texts[id(w.term)],
                "result": _jsonable(w.result),
                "identities": list(w.identities),
            }
            for w in report.witnesses
        ]
    return out


def _template(v, pad: str) -> str:
    """The %-template of the values shaped like v, laid out as
    json.dumps(v, indent=2) writes v on a line indented by pad: a tuple as
    a list, %d for an int, %s for a string, which is filled in encoded."""
    if type(v) is not tuple:
        return "%s" if isinstance(v, str) else "%d"
    inner = pad + "  "
    items = ",\n".join(inner + _template(x, inner) for x in v)
    return f"[\n{items}\n{pad}]" if v else "[]"


def _entry_template(names, w) -> str:
    """The %-template of the witness entries shaped like w: its points,
    then its term, result and identities."""
    pad = "      "
    fields = [f"{pad}{k}: {_template(v, pad)}" for k, v in zip(names, w.pair)]
    fields += [
        f'{pad}"term": %s',
        f'{pad}"result": {_template(w.result, pad)}',
        f'{pad}"identities": {_template(w.identities, pad)}',
    ]
    return "{\n" + ",\n".join(fields) + "\n    }"


def report_to_json(report: DecisionReport, include_witnesses: bool = False) -> str:
    """json.dumps(report_to_dict(...), indent=2) and a newline.  Witness
    entries are written here, since an indent puts json.dumps on its Python
    path: each from a %-template per shape, for points and results that are
    ints or tuples of ints, as ``decide`` makes them."""
    head = json.dumps(report_to_dict(report), indent=2)
    if not include_witnesses:
        return head + "\n"
    terms = {key: _encode(text) for key, text in _term_texts(report.witnesses).items()}
    names = [_encode(k).replace("%", "%%") for k in report.pair_names]
    templates: dict = {}
    entries = []
    for w in report.witnesses:
        first, second = w.pair
        if type(first) is tuple:
            points, shape = first + second, (len(first), len(second))
        else:
            points, shape = w.pair, None
        shape = (shape, len(w.result), len(w.identities))
        template = templates.get(shape)
        if template is None:
            template = templates[shape] = _entry_template(names, w)
        entries.append(template % (
            *points, terms[id(w.term)], *w.result, *map(_encode, w.identities)
        ))
    witnesses = "[\n    " + ",\n    ".join(entries) + "\n  ]" if entries else "[]"
    # head ends in "\n}"
    return f'{head[:-2]},\n  "witnesses": {witnesses}\n}}\n'
