"""SMI (MIB) compiler: tokenize, parse, and a loadable compiled format.

The lexer is one regular expression with a named group per token kind,
matched from each position to the next; a token's line and column come
from its offset.

The parser covers the SMI subset that real-world MIB files are written in:
plain OBJECT IDENTIFIER assignments, OBJECT-TYPE / MODULE-IDENTITY macro
invocations, SEQUENCE row schemas and IMPORTS.  Macro invocations it does
not understand but that still end in ``::= { parent n }`` compile to plain
assignments; anything else is skipped with a warning.

Compiled modules serialize to a line-oriented text format (``CMIB 1``)
that loads back into an oid Registry.
"""

from __future__ import annotations

import bisect
import io
import re
from dataclasses import dataclass, field

from .errors import MibLexError, MibLoadError, MibParseError, NotATableError
from .oids import OidRef

_KEYWORDS = {
    "DEFINITIONS", "BEGIN", "END", "IMPORTS", "EXPORTS", "FROM",
    "OBJECT", "IDENTIFIER", "OBJECT-TYPE", "OBJECT-IDENTITY",
    "MODULE-IDENTITY", "NOTIFICATION-TYPE", "TRAP-TYPE",
    "TEXTUAL-CONVENTION", "OBJECT-GROUP", "NOTIFICATION-GROUP",
    "MODULE-COMPLIANCE", "AGENT-CAPABILITIES", "MACRO",
    "SEQUENCE", "OF", "SYNTAX", "UNITS", "MAX-ACCESS", "ACCESS",
    "STATUS", "DESCRIPTION", "REFERENCE", "INDEX", "AUGMENTS", "DEFVAL",
}


@dataclass(frozen=True)
class MibToken:
    kind: str  # name | number | string | punctuation | assign | range | keyword
    text: str
    line: int
    column: int

    @property
    def number(self):
        return int(self.text)


# One alternative per token kind, tried in order at each position; the
# unnamed first line is whitespace and comments, which run to a closing
# "--" or to the end of the line.  A name ends before a "--".
_TOKEN = re.compile(r"""
      [ \t\n\r\f\v]+ | --.*?(?:--|$)
    | "(?P<string>[^"]*)"
    | (?P<assign>::=)
    | (?P<range>\.\.)
    | (?P<number>-?[0-9]+)
    | (?P<name>[^\W\d_](?:\w|-(?!-))*)
    | (?P<punctuation>[{}(),;|\[\]])
""", re.VERBOSE | re.MULTILINE)


def tokenize(source):
    """Turn MIB source text into a token list; comments and whitespace vanish."""
    line_starts = [0] + [m.end() for m in re.finditer("\n", source)]
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None or m.lastgroup:
            line = bisect.bisect_right(line_starts, pos)
            column = pos - line_starts[line - 1] + 1
            # \w also admits digits that are not decimal, such as superscript
            # two; a name starts with a letter
            if m is None or (m.lastgroup == "name" and not source[pos].isalpha()):
                c = source[pos]
                raise MibLexError("unterminated string" if c == '"' else
                                  f"unexpected character {c!r}", line, column)
            kind = m.lastgroup
            text = m[kind]
            if kind == "name" and text in _KEYWORDS:
                kind = "keyword"
            tokens.append(MibToken(kind, text, line, column))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# Compiled records


@dataclass(frozen=True)
class OidAssignment:
    module: str
    name: str
    parent: str  # parent name, dotted name+arcs, or "0" for the tree root
    arc: int
    node_kind: str = "plain"
    syntax: str | None = None
    max_access: str | None = None
    status: str | None = None
    description: str | None = None
    syntax_constraint: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class RowSchema:
    module: str
    type_name: str
    columns: tuple  # ordered (column name, syntax name) pairs

    def column_names(self):
        return [c[0] for c in self.columns]


@dataclass(frozen=True)
class ModuleHeader:
    name: str
    imports: tuple  # (symbol, from-module) pairs


@dataclass
class CompiledMibModule:
    header: ModuleHeader
    records: list
    warnings: list = field(default_factory=list, compare=False)

    @property
    def name(self):
        return self.header.name


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.warnings = []

    def peek(self, ahead=0):
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise MibParseError("unexpected end of module")
        self.pos += 1
        return tok

    def expect(self, text=None, kind=None):
        tok = self.next()
        if text is not None and tok.text != text:
            raise MibParseError(f"expected {text!r}, got {tok.text!r}",
                                tok.line, tok.column, expected=(text,))
        if kind is not None and tok.kind != kind:
            raise MibParseError(f"expected {kind} token, got {tok.text!r}",
                                tok.line, tok.column, expected=(kind,))
        return tok

    def accept(self, text):
        tok = self.peek()
        if tok is not None and tok.text == text:
            self.pos += 1
            return tok
        return None

    def warn(self, message):
        self.warnings.append(message)

    # -- module -------------------------------------------------------------

    def parse_module(self):
        name = self.expect(kind="name").text
        self.expect("DEFINITIONS")
        self.expect("::=")
        self.expect("BEGIN")
        imports = []
        records = []
        self.module = name
        while True:
            tok = self.peek()
            if tok is None:
                raise MibParseError("missing END")
            if tok.text == "END":
                self.next()
                break
            if tok.text == "IMPORTS":
                self.next()
                imports.extend(self._parse_imports())
                continue
            if tok.text == "EXPORTS":
                self.next()
                while self.next().text != ";":
                    pass
                continue
            if tok.kind in ("name", "keyword"):
                rec = self._parse_statement()
                if rec is not None:
                    records.append(rec)
                continue
            raise MibParseError(f"unexpected token {tok.text!r}",
                                tok.line, tok.column)
        header = ModuleHeader(name, tuple(imports))
        mod = CompiledMibModule(header, records)
        mod.warnings = self.warnings
        return mod

    def _parse_imports(self):
        imports = []
        pending = []
        while True:
            tok = self.next()
            if tok.text == ";":
                break
            if tok.text == ",":
                continue
            if tok.text == "FROM":
                from_mod = self.expect(kind="name").text
                imports.extend((sym, from_mod) for sym in pending)
                pending = []
                continue
            pending.append(tok.text)
        return imports

    # -- statements ---------------------------------------------------------

    # macros whose body is skipped up to their OID path: macro -> node kind
    _SKIP_TO_PATH_MACROS = {
        "MODULE-IDENTITY": "module-identity", "OBJECT-IDENTITY": "other",
        "NOTIFICATION-TYPE": "other", "OBJECT-GROUP": "other",
        "NOTIFICATION-GROUP": "other", "MODULE-COMPLIANCE": "other",
        "AGENT-CAPABILITIES": "other",
    }

    def _parse_statement(self):
        name_tok = self.next()
        name = name_tok.text
        tok = self.peek()
        if tok is None:
            raise MibParseError("dangling name at end of module",
                                name_tok.line, name_tok.column)
        if tok.text == "OBJECT" and self.peek(1) and self.peek(1).text == "IDENTIFIER":
            self.next()
            self.next()
            self.expect("::=")
            parent, arc = self._parse_oid_path()
            return OidAssignment(self.module, name, parent, arc)
        if tok.text == "OBJECT-TYPE":
            self.next()
            return self._parse_object_type(name)
        if tok.text in self._SKIP_TO_PATH_MACROS:
            self.next()
            desc = self._skip_macro_body()
            parent, arc = self._parse_oid_path()
            return OidAssignment(self.module, name, parent, arc,
                                 node_kind=self._SKIP_TO_PATH_MACROS[tok.text],
                                 description=desc)
        if tok.text == "TRAP-TYPE":
            self.next()
            self._skip_macro_body()
            self.expect(kind="number")  # v1 trap number, not a tree arc
            self.warn(f"TRAP-TYPE {name} skipped (no OID arc)")
            return None
        if tok.text == "MACRO":
            self.next()
            self.expect("::=")
            self._skip_balanced("BEGIN", "END")
            return None
        if tok.text == "::=":
            self.next()
            return self._parse_type_assignment(name)
        raise MibParseError(
            f"cannot parse statement starting {name!r} {tok.text!r}",
            name_tok.line, name_tok.column,
            expected=("OBJECT", "OBJECT-TYPE", "::="))

    def _parse_object_type(self, name):
        syntax = None
        constraint = None
        access = None
        status = None
        description = None
        while True:
            tok = self.peek()
            if tok is None:
                raise MibParseError(f"unterminated OBJECT-TYPE {name}")
            if tok.text == "::=":
                self.next()
                break
            self.next()
            if tok.text == "SYNTAX":
                syntax, constraint = self._parse_type()
            elif tok.text in ("MAX-ACCESS", "ACCESS"):
                access = self.next().text
            elif tok.text == "STATUS":
                status = self.next().text
            elif tok.text == "DESCRIPTION":
                description = _normalize_ws(self.expect(kind="string").text)
            elif tok.text in ("UNITS", "REFERENCE"):
                self.expect(kind="string")
            elif tok.text in ("INDEX", "AUGMENTS", "DEFVAL"):
                self._skip_balanced("{", "}")
            else:
                raise MibParseError(f"unknown OBJECT-TYPE clause {tok.text!r}",
                                    tok.line, tok.column)
        parent, arc = self._parse_oid_path()
        return OidAssignment(self.module, name, parent, arc,
                             node_kind="object-type", syntax=syntax,
                             max_access=access, status=status,
                             description=description,
                             syntax_constraint=constraint)

    def _parse_type_assignment(self, name):
        tok = self.peek()
        if tok.text == "SEQUENCE" and self.peek(1) and self.peek(1).text == "{":
            self.next()
            return self._parse_row_schema(name)
        if tok.text == "TEXTUAL-CONVENTION":
            self.next()
            while self.peek() is not None and self.peek().text != "SYNTAX":
                t = self.next()
                if t.kind in ("keyword", "name") and self.peek() and \
                        self.peek().kind == "string":
                    self.next()
            self.expect("SYNTAX")
            base, _ = self._parse_type()
            self.warn(f"textual convention {name} recorded as alias of {base} only")
            return None
        # plain type alias (e.g. DisplayString ::= OCTET STRING (SIZE (0..255)))
        base, _ = self._parse_type()
        self.warn(f"type alias {name} ::= {base} skipped")
        return None

    def _parse_row_schema(self, type_name):
        self.expect("{")
        columns = []
        while True:
            col = self.expect(kind="name").text
            syntax, _ = self._parse_type()
            columns.append((col, syntax))
            tok = self.next()
            if tok.text == "}":
                break
            if tok.text != ",":
                raise MibParseError(f"expected ',' or '}}', got {tok.text!r}",
                                    tok.line, tok.column, expected=(",", "}"))
        return RowSchema(self.module, type_name, tuple(columns))

    def _parse_type(self):
        """Return (base type text, raw constraint text or None)."""
        tok = self.next()
        if tok.text == "OCTET":
            self.expect("STRING")
            base = "OCTET STRING"
        elif tok.text == "OBJECT":
            self.expect("IDENTIFIER")
            base = "OBJECT IDENTIFIER"
        elif tok.text == "SEQUENCE":
            self.expect("OF")
            base = "SEQUENCE OF " + self.next().text
        else:
            base = tok.text
        constraint = None
        nxt = self.peek()
        if nxt is not None and nxt.text in ("(", "{"):
            close = ")" if nxt.text == "(" else "}"
            constraint = self._skip_balanced(nxt.text, close)
        return base, constraint

    def _skip_balanced(self, open_text, close_text):
        """Consume a balanced group; return its raw token text."""
        self.expect(open_text)
        parts = [open_text]
        depth = 1
        while depth:
            tok = self.next()
            if tok.text == open_text:
                depth += 1
            elif tok.text == close_text:
                depth -= 1
            parts.append(tok.text)
        return " ".join(parts)

    def _skip_macro_body(self):
        """Skip macro clauses up to the closing ``::=``; keep any DESCRIPTION."""
        description = None
        while True:
            tok = self.peek()
            if tok is None:
                raise MibParseError("unterminated macro invocation")
            if tok.text == "::=":
                self.next()
                return description
            if tok.text in ("{", "("):
                self._skip_balanced(tok.text, "}" if tok.text == "{" else ")")
                continue
            self.next()
            if tok.text == "DESCRIPTION" and self.peek() and self.peek().kind == "string":
                description = _normalize_ws(self.next().text)

    def _parse_oid_path(self):
        """Parse ``{ parent n ... }``; return (parent spec text, final arc)."""
        brace = self.expect("{")
        elements = []
        while True:
            tok = self.next()
            if tok.text == "}":
                break
            if tok.kind == "number":
                elements.append(("num", tok.number))
            elif tok.kind in ("name", "keyword"):
                if self.accept("("):
                    num = self.expect(kind="number").number
                    self.expect(")")
                    elements.append(("num", num))
                    if not elements[:-1]:
                        # leading name(number): keep the name as the anchor
                        elements[-1] = ("name", tok.text)
                elif not elements:
                    elements.append(("name", tok.text))
                else:
                    raise MibParseError(
                        f"bare name {tok.text!r} mid-path needs its arc",
                        tok.line, tok.column)
            else:
                raise MibParseError(f"bad OID path element {tok.text!r}",
                                    tok.line, tok.column)
        if len(elements) < 2:
            raise MibParseError("OID path needs a parent and an arc",
                                brace.line, brace.column)
        if elements[-1][0] != "num":
            raise MibParseError("OID path must end with a number",
                                brace.line, brace.column)
        arc = elements[-1][1]
        head = elements[:-1]
        kind0, first = head[0]
        if kind0 == "name":
            parent = ".".join([first] + [str(v) for _, v in head[1:]])
        else:
            # numeric anchor: a leading 0 is the tree root itself
            nums = [v for _, v in head]
            if nums[0] == 0:
                nums = nums[1:]
            parent = "0" if not nums else "0." + ".".join(str(v) for v in nums)
        return parent, arc


def _normalize_ws(text):
    return " ".join(text.split())


def parse_module(tokens):
    return _Parser(list(tokens)).parse_module()


def compile_text(source):
    return parse_module(tokenize(source))


# ---------------------------------------------------------------------------
# Compiled-MIB file format (CMIB 1)

_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n"})
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n"}
_ESCAPED = re.compile(r"\\(.)", re.DOTALL)


def _escape(text):
    return text.translate(_ESCAPES) if text else "-"


def _unescape(text):
    if text == "-":
        return None
    return _ESCAPED.sub(lambda m: _UNESCAPES.get(m[1], m[0]), text)


def emit(module, sink):
    """Write a CompiledMibModule to a binary sink in CMIB 1 format."""
    lines = [f"CMIB 1", f"MODULE {module.header.name}"]
    for sym, from_mod in module.header.imports:
        lines.append(f"IMP\t{sym}\t{from_mod}")
    for rec in module.records:
        if isinstance(rec, OidAssignment):
            lines.append("\t".join([
                "OID", rec.name, rec.parent, str(rec.arc), rec.node_kind,
                _escape(rec.syntax), _escape(rec.max_access),
                _escape(rec.status), _escape(rec.description),
            ]))
        elif isinstance(rec, RowSchema):
            lines.append(f"ROWBEGIN\t{rec.type_name}")
            for col, syntax in rec.columns:
                lines.append(f"COL\t{col}\t{_escape(syntax)}")
            lines.append("ROWEND")
        else:
            raise MibLoadError(f"cannot emit record {rec!r}")
    sink.write(("\n".join(lines) + "\n").encode("utf-8"))


def emit_bytes(module):
    buf = io.BytesIO()
    emit(module, buf)
    return buf.getvalue()


def read_compiled(source):
    """Parse a CMIB byte source back into a CompiledMibModule."""
    data = source.read() if hasattr(source, "read") else bytes(source)
    text = data.decode("utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "CMIB 1":
        raise MibLoadError("not a CMIB 1 file (bad or missing magic line)")
    if len(lines) < 2 or not lines[1].startswith("MODULE "):
        raise MibLoadError("missing MODULE line")
    module = lines[1][len("MODULE "):]
    imports = []
    records = []
    row = None
    for lineno, line in enumerate(lines[2:], start=3):
        fields = line.split("\t")
        tag = fields[0]
        if tag == "IMP":
            imports.append((fields[1], fields[2]))
        elif tag == "OID":
            if len(fields) != 9:
                raise MibLoadError(f"malformed OID record at line {lineno}")
            records.append(OidAssignment(
                module, fields[1], fields[2], int(fields[3]), fields[4],
                _unescape(fields[5]), _unescape(fields[6]),
                _unescape(fields[7]), _unescape(fields[8])))
        elif tag == "ROWBEGIN":
            row = (fields[1], [])
        elif tag == "COL":
            if row is None:
                raise MibLoadError(f"COL outside a row at line {lineno}")
            row[1].append((fields[1], _unescape(fields[2])))
        elif tag == "ROWEND":
            if row is None:
                raise MibLoadError(f"ROWEND without ROWBEGIN at line {lineno}")
            records.append(RowSchema(module, row[0], tuple(row[1])))
            row = None
        else:
            raise MibLoadError(f"unknown record kind {tag!r} at line {lineno}")
    return CompiledMibModule(ModuleHeader(module, tuple(imports)), records)


def _resolve_parent(registry, module, spec):
    if spec == "0":
        return OidRef(registry.root)
    first, dot, rest = spec.partition(".")
    local = registry.module_index.get(module, {})
    if first in local:
        base = OidRef(local[first])
        if rest:
            base = OidRef(base.node, tuple(int(a) for a in rest.split(".")))
        return base
    return registry.resolve(spec)


def load_records(registry, module):
    """Apply a CompiledMibModule's records to a registry (idempotent)."""
    for rec in module.records:
        if isinstance(rec, OidAssignment):
            try:
                parent = _resolve_parent(registry, rec.module, rec.parent)
            except Exception as exc:
                raise MibLoadError(
                    f"unresolvable parent {rec.parent!r} for "
                    f"{rec.module}::{rec.name}: {exc}") from exc
            registry.register(rec.module, rec.name, parent, rec.arc,
                              node_kind=rec.node_kind, syntax=rec.syntax,
                              max_access=rec.max_access, status=rec.status,
                              description=rec.description)
        elif isinstance(rec, RowSchema):
            registry.row_schemas[(rec.module, rec.type_name)] = rec
    return module.header.name


def load_compiled(registry, source):
    """Load a CMIB byte source into the registry; returns the module name."""
    return load_records(registry, read_compiled(source))


def table_schema(registry, table_name):
    """Return (table node, row-entry node, RowSchema) for a conceptual table."""
    ref = registry.resolve(table_name)
    node = ref.node
    if ref.rest or not node.syntax or not node.syntax.startswith("SEQUENCE OF "):
        raise NotATableError(f"{table_name!r} is not a SEQUENCE OF table")
    entry_type = node.syntax[len("SEQUENCE OF "):]
    children = list(node.children.values())
    if len(children) != 1:
        raise NotATableError(
            f"table {table_name!r} has {len(children)} children, expected one row entry")
    entry = children[0]
    schema = registry.row_schemas.get((node.module, entry_type))
    if schema is None:
        # entry types may be imported; fall back to any module defining it
        for (mod, tname), s in registry.row_schemas.items():
            if tname == entry_type:
                schema = s
                break
    if schema is None:
        raise NotATableError(f"no row schema compiled for {entry_type!r}")
    return node, entry, schema
