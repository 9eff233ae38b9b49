"""SMI (MIB) compiler: tokenize, parse, and a loadable compiled format.

The lexer is one regular expression with a named group per token kind,
matched from each position to the next; a token's line and column come
from its offset.

The parser covers the SMI subset that real-world MIB files are written in.
The statements that end in an OID path, OBJECT IDENTIFIER and the macros,
are read through one table: OBJECT-TYPE clauses through a table of clause
readers, other macro bodies by one skip to their ``::=``.  SEQUENCE types
are row schemas; TRAP-TYPE and other type assignments warn and are skipped.

Compiled modules serialize to a line-oriented text format (``CMIB 1``)
that loads back into an oid Registry.  Malformed source is a MibLexError
or MibParseError, and a malformed compiled file a MibLoadError.
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
    # name | number | string | binstring | punctuation | assign | range |
    # keyword; a binstring is a hex or binary string, '0A'H or '1010'B
    kind: str
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
    | (?P<binstring>'[0-9A-Fa-f]*'[Hh]|'[01]*'[Bb])
    | (?P<assign>::=)
    | (?P<range>\.\.)
    | (?P<number>-?[0-9]+)
    | (?P<name>[^\W\d_](?:\w|-(?!-))*)
    | (?P<punctuation>[{}(),;|\[\]])
""", re.VERBOSE | re.MULTILINE)


_LEX_ERRORS = {'"': "unterminated string",
               "'": "malformed hex or binary string"}


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
                raise MibLexError(_LEX_ERRORS.get(
                    c, f"unexpected character {c!r}"), line, column)
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
    parent: str  # parent name, dotted name+arcs, or "0" (the root) + arcs
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


# The token after the last one; its text matches nothing the grammar reads
_END = MibToken("end", "", 0, 0)

# group brackets that a type constraint or a macro clause may open
_CLOSE = {"{": "}", "(": ")"}

# type names of more than one token; None stands for any token
_TYPE_WORDS = {"OCTET": ("STRING",), "OBJECT": ("IDENTIFIER",),
               "SEQUENCE": ("OF", None)}


class _Parser:
    def __init__(self, tokens):
        self.tokens = [*tokens, _END]
        self.pos = 0
        self.warnings = []

    def peek(self, ahead=0):
        return self.tokens[self.pos + ahead]

    def next(self):
        tok = self.tokens[self.pos]
        if tok is _END:
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
        return self.next() if self.peek().text == text else None

    # -- module -------------------------------------------------------------

    def parse_module(self):
        self.module = self.expect(kind="name").text
        for word in ("DEFINITIONS", "::=", "BEGIN"):
            self.expect(word)
        imports = []
        records = []
        while not self.accept("END"):
            tok = self.next()
            if tok.text == "IMPORTS":
                imports.extend(self._parse_imports())
            elif tok.text == "EXPORTS":
                while self.next().text != ";":
                    pass
            elif tok.kind in ("name", "keyword"):
                rec = self._parse_statement(tok)
                if rec is not None:
                    records.append(rec)
            else:
                raise MibParseError(f"unexpected token {tok.text!r}",
                                    tok.line, tok.column)
        return CompiledMibModule(ModuleHeader(self.module, tuple(imports)),
                                 records, self.warnings)

    def _parse_imports(self):
        imports = []
        pending = []
        while (tok := self.next()).text != ";":
            if tok.text == "FROM":
                from_mod = self.expect(kind="name").text
                imports.extend((sym, from_mod) for sym in pending)
                pending = []
            elif tok.text != ",":
                pending.append(tok.text)
        return imports

    # -- statements ---------------------------------------------------------

    def _parse_statement(self, name_tok):
        name = name_tok.text
        tok = self.next()
        if tok.text in self._PATH_STATEMENTS:
            node_kind, read_body = self._PATH_STATEMENTS[tok.text]
            fields = read_body(self)
            parent, arc = self._parse_oid_path()
            return OidAssignment(self.module, name, parent, arc, node_kind,
                                 **fields)
        if tok.text == "TRAP-TYPE":
            self._skip_clauses()
            self.expect(kind="number")  # v1 trap number, not a tree arc
            self.warnings.append(f"TRAP-TYPE {name} skipped (no OID arc)")
            return None
        if tok.text == "MACRO":
            self.expect("::=")
            self._skip_balanced("BEGIN", "END")
            return None
        if tok.text == "::=":
            return self._parse_type_assignment(name)
        raise MibParseError(
            f"cannot parse statement starting {name!r} {tok.text!r}",
            name_tok.line, name_tok.column,
            expected=("OBJECT", "OBJECT-TYPE", "::="))

    def _read_identifier(self):
        self.expect("IDENTIFIER")
        self.expect("::=")
        return {}

    def _read_object_type(self):
        """Read OBJECT-TYPE clauses up to ``::=``; return the fields they set."""
        fields = {}
        while not self.accept("::="):
            tok = self.next()
            if tok.text not in self._OBJECT_TYPE_CLAUSES:
                raise MibParseError(f"unknown OBJECT-TYPE clause {tok.text!r}",
                                    tok.line, tok.column)
            field_name, read = self._OBJECT_TYPE_CLAUSES[tok.text]
            fields[field_name] = read(self)
        fields.pop(None, None)
        fields["syntax"], fields["syntax_constraint"] = \
            fields.get("syntax", (None, None))
        return fields

    def _skip_clauses(self):
        """Skip macro clauses up to ``::=``; keep the first DESCRIPTION,
        the macro's own, not a REVISION's, GROUP's or VARIATION's."""
        description = None
        while not self.accept("::="):
            tok = self.peek()
            if tok.text in _CLOSE:
                self._skip_balanced(tok.text, _CLOSE[tok.text])
            elif self.next().text == "DESCRIPTION" and \
                    self.peek().kind == "string":
                text = self._text()
                if description is None:
                    description = text
        return {"description": description}

    def _word(self):
        return self.next().text

    def _text(self):
        return _normalize_ws(self.expect(kind="string").text)

    def _parse_type_assignment(self, name):
        if self.peek().text == "SEQUENCE" and self.peek(1).text == "{":
            self.next()
            return self._parse_row_schema(name)
        convention = self.accept("TEXTUAL-CONVENTION")
        if convention:
            while self.peek().text != "SYNTAX":
                if self.next().kind in ("keyword", "name") and \
                        self.peek().kind == "string":
                    self.next()
            self.expect("SYNTAX")
        base, _ = self._parse_type()
        self.warnings.append(
            f"textual convention {name} recorded as alias of {base} only"
            if convention else f"type alias {name} ::= {base} skipped")
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
        words = [self.next().text]
        words += [self.expect(w).text for w in _TYPE_WORDS.get(words[0], ())]
        opening = self.peek().text
        constraint = self._skip_balanced(opening, _CLOSE[opening]) \
            if opening in _CLOSE else None
        return " ".join(words), constraint

    def _skip_balanced(self, open_text="{", close_text="}"):
        """Consume a balanced group; return its raw token text."""
        parts = [self.expect(open_text).text]
        depth = 1
        while depth:
            tok = self.next()
            if tok.text == open_text:
                depth += 1
            elif tok.text == close_text:
                depth -= 1
            parts.append(tok.text)
        return " ".join(parts)

    def _parse_oid_path(self):
        """Parse ``{ anchor n ... }``; return (parent spec text, final arc)."""
        brace = self.expect("{")
        anchor = None
        if self.peek().kind in ("name", "keyword"):
            # a leading name is the anchor; its own number, if any, is dropped
            anchor = self.peek().text
            if self.peek(1).text == "(":
                self._arc()
            else:
                self.next()
        arcs = []
        while not self.accept("}"):
            arcs.append(self._arc())
        if len(arcs) < (2 if anchor is None else 1):
            raise MibParseError("OID path needs a parent and an arc",
                                brace.line, brace.column)
        *head, arc = arcs
        if anchor is None:  # numeric: every arc lies below the tree root
            anchor = "0"
        return ".".join([anchor, *map(str, head)]), arc

    def _arc(self):
        """Read one OID path arc, ``n`` or ``name(n)``; return n."""
        named = self.peek().kind in ("name", "keyword")
        if named:
            name = self.next()
            if not self.accept("("):
                raise MibParseError(
                    f"bare name {name.text!r} mid-path needs its arc",
                    name.line, name.column)
        tok = self.expect(kind="number")
        if tok.number < 0:
            raise MibParseError(f"negative arc {tok.text}", tok.line,
                                tok.column)
        if named:
            self.expect(")")
        return tok.number

    # statements that end in an OID path: keyword -> (node kind, reader of
    # the rest up to its ``::=``, returning the record fields it sets)
    _PATH_STATEMENTS = {
        "OBJECT": ("plain", _read_identifier),
        "OBJECT-TYPE": ("object-type", _read_object_type),
        "MODULE-IDENTITY": ("module-identity", _skip_clauses),
        **dict.fromkeys(["OBJECT-IDENTITY", "NOTIFICATION-TYPE",
                         "OBJECT-GROUP", "NOTIFICATION-GROUP",
                         "MODULE-COMPLIANCE", "AGENT-CAPABILITIES"],
                        ("other", _skip_clauses)),
    }

    # OBJECT-TYPE clause -> (record field or None, reader of its value)
    _OBJECT_TYPE_CLAUSES = {
        "SYNTAX": ("syntax", _parse_type),
        "ACCESS": ("max_access", _word), "MAX-ACCESS": ("max_access", _word),
        "STATUS": ("status", _word),
        "DESCRIPTION": ("description", _text),
        "UNITS": (None, _text), "REFERENCE": (None, _text),
        "INDEX": (None, _skip_balanced), "AUGMENTS": (None, _skip_balanced),
        "DEFVAL": (None, _skip_balanced),
    }


def _normalize_ws(text):
    return " ".join(text.split())


def parse_module(tokens):
    return _Parser(tokens).parse_module()


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


# CMIB record kind -> its number of tab-separated fields
_CMIB_FIELDS = {"IMP": 3, "OID": 9, "ROWBEGIN": 2, "COL": 3, "ROWEND": 1}


def read_compiled(source):
    """Parse a CMIB byte source back into a CompiledMibModule."""
    data = source.read() if hasattr(source, "read") else bytes(source)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MibLoadError(f"not a CMIB 1 file: {exc}") from exc
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
        if _CMIB_FIELDS.get(tag) != len(fields):
            raise MibLoadError(f"malformed record {tag!r} at line {lineno}")
        if tag in ("COL", "ROWEND") and row is None:
            raise MibLoadError(f"{tag} outside a row at line {lineno}")
        if tag == "IMP":
            imports.append((fields[1], fields[2]))
        elif tag == "OID":
            if not (fields[3].isascii() and fields[3].isdigit()):
                raise MibLoadError(f"bad arc {fields[3]!r} at line {lineno}")
            records.append(OidAssignment(
                module, fields[1], fields[2], int(fields[3]), fields[4],
                _unescape(fields[5]), _unescape(fields[6]),
                _unescape(fields[7]), _unescape(fields[8])))
        elif tag == "ROWBEGIN":
            if row is not None:
                raise MibLoadError(f"row {row[0]!r} not closed before "
                                   f"line {lineno}")
            row = (fields[1], [])
        elif tag == "COL":
            row[1].append((fields[1], _unescape(fields[2])))
        elif tag == "ROWEND":
            records.append(RowSchema(module, row[0], tuple(row[1])))
            row = None
    if row is not None:
        raise MibLoadError(f"row {row[0]!r} not closed")
    return CompiledMibModule(ModuleHeader(module, tuple(imports)), records)


def _resolve_parent(registry, module, spec):
    first, dot, rest = spec.partition(".")
    if first == "0":  # the tree root, then arcs
        return registry.resolve(tuple(int(a) for a in rest.split(".") if a))
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
