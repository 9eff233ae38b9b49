import hashlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from snmpkit import smi
from snmpkit.errors import (MibError, MibLexError, MibLoadError,
                            MibParseError, NotATableError)
from snmpkit.mibs import CORE_MODULES, compile_bundled, load_core
from snmpkit.oids import Registry, number_list

SAMPLE = """
TEST-MIB DEFINITIONS ::= BEGIN

IMPORTS
    OBJECT-TYPE, enterprises
        FROM SNMPv2-SMI;

test OBJECT IDENTIFIER ::= { enterprises 7700 }

testScalar OBJECT-TYPE
    SYNTAX      OCTET STRING (SIZE (0..255))
    MAX-ACCESS  read-only
    STATUS      current
    DESCRIPTION
        "A scalar used by the
         compiler tests."
    ::= { test 1 }

testTable OBJECT-TYPE
    SYNTAX      SEQUENCE OF TestEntry
    MAX-ACCESS  not-accessible
    STATUS      current
    DESCRIPTION "A tiny table."
    ::= { test 2 }

testEntry OBJECT-TYPE
    SYNTAX      TestEntry
    MAX-ACCESS  not-accessible
    STATUS      current
    DESCRIPTION "One row."
    INDEX       { testIndex }
    ::= { testTable 1 }

TestEntry ::= SEQUENCE {
    testIndex   INTEGER,
    testName    OCTET STRING
}

testIndex OBJECT-TYPE
    SYNTAX      INTEGER (1..100)
    MAX-ACCESS  read-only
    STATUS      current
    DESCRIPTION "Row index."
    ::= { testEntry 1 }

testName OBJECT-TYPE
    SYNTAX      OCTET STRING
    MAX-ACCESS  read-only
    STATUS      current
    DESCRIPTION "Row name."
    ::= { testEntry 2 }

END
"""


class TestTokenizer:
    def test_comments_stripped(self):
        tokens = smi.tokenize("a -- comment to eol\nb -- inline -- c\n")
        texts = [t.text for t in tokens]
        assert texts == ["a", "b", "c"]

    def test_strings_keep_content(self):
        tokens = smi.tokenize('"line one\n  two"')
        assert tokens[0].kind == "string"
        assert "line one" in tokens[0].text

    def test_unterminated_string_positions(self):
        with pytest.raises(MibLexError) as exc:
            smi.tokenize('x ::= "never closed')
        assert exc.value.line == 1

    def test_assignment_token(self):
        kinds = [t.kind for t in smi.tokenize("a ::= { b 1 }")]
        assert "assign" in kinds


_LEX_CASES = [
    ("a -- x -- b", [("name", "a", 1, 1), ("name", "b", 1, 11)]),
    ("if-mib", [("name", "if-mib", 1, 1)]),
    ("a--b", [("name", "a", 1, 1)]),
    ("-5", [("number", "-5", 1, 1)]),
    ("1..2", [("number", "1", 1, 1), ("range", "..", 1, 2),
              ("number", "2", 1, 4)]),
    ("x::={", [("name", "x", 1, 1), ("assign", "::=", 1, 2),
               ("punctuation", "{", 1, 5)]),
    ("a\tb\rc\fd\ve", [("name", t, 1, c)
                         for t, c in zip("abcde", (1, 3, 5, 7, 9))]),
    ('"one\ntwo" OBJECT', [("string", "one\ntwo", 1, 1),
                           ("keyword", "OBJECT", 2, 6)]),
    ("{ ''H '0a'h '1010'B }", [
        ("punctuation", "{", 1, 1), ("binstring", "''H", 1, 3),
        ("binstring", "'0a'h", 1, 7), ("binstring", "'1010'B", 1, 13),
        ("punctuation", "}", 1, 21)]),
]

_LEX_ERRORS = [
    ('a\n  "open', "unterminated string", 2, 3),
    ("a\nb @", "unexpected character '@'", 2, 3),
    ("DEFVAL { '0A }", "malformed hex or binary string", 1, 10),
    ("x\n  '0A", "malformed hex or binary string", 2, 3),
    ("'12'B", "malformed hex or binary string", 1, 1),
    ("{ b \u00b2 }", "unexpected character '\u00b2'", 1, 5),
]


class TestLexerEdges:
    @pytest.mark.parametrize("source,expected", _LEX_CASES)
    def test_tokens(self, source, expected):
        assert [(t.kind, t.text, t.line, t.column)
                for t in smi.tokenize(source)] == expected

    @pytest.mark.parametrize("source,message,line,column", _LEX_ERRORS)
    def test_errors(self, source, message, line, column):
        with pytest.raises(MibLexError) as exc:
            smi.tokenize(source)
        assert str(exc.value).startswith(message)
        assert (exc.value.line, exc.value.column) == (line, column)


_SMI_PIECES = st.sampled_from(
    ["a", "Z", "9", "0", "-", "_", ".", ":", "::=", "..", "--", '"', " ",
     "\t", "\r", "\n", "\f", "\v", "{", "}", "(", ")", ",", ";", "|",
     "[", "]", "OBJECT", "\u00b2", "\u0663", "\u00e9", "@"])


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(max_size=60),
                 st.lists(_SMI_PIECES, max_size=40).map("".join)))
def test_tokens_locate_themselves(source):
    """tokenize gives tokens or a MibLexError; each token's line and
    column point at its text, and each number parses as an int."""
    try:
        tokens = smi.tokenize(source)
    except MibLexError:
        return
    line_starts = [0] + [i + 1 for i, c in enumerate(source) if c == "\n"]
    for tok in tokens:
        at = line_starts[tok.line - 1] + tok.column - 1
        text = f'"{tok.text}"' if tok.kind == "string" else tok.text
        assert source.startswith(text, at)
        if tok.kind == "number":
            int(tok.text)


# a name and "::=", the commonest tokens in SMI source, drawn as often as
# all the other tokens and keywords together
_SMI_WORDS = st.sampled_from(["a", "::="]) | st.sampled_from(
    sorted(smi._KEYWORDS) + ["B", "7", "0", "-1", "..", "{", "}", "(", ")",
                             ",", ";", "|", '"s"', '"SYNTAX"'])


@settings(max_examples=500, deadline=None)
@given(st.lists(_SMI_WORDS, max_size=30))
def test_source_compiles_or_is_a_mib_error(words):
    """A module header followed by any soup of SMI tokens compiles or
    raises a MibError."""
    try:
        smi.compile_text("M DEFINITIONS ::= BEGIN\n" + " ".join(words))
    except MibError:
        pass


class TestCompile:
    def test_sample_module(self):
        module = smi.compile_text(SAMPLE)
        assert module.header.name == "TEST-MIB"
        names = [r.name for r in module.records
                 if isinstance(r, smi.OidAssignment)]
        assert names == ["test", "testScalar", "testTable", "testEntry",
                         "testIndex", "testName"]

    def test_description_whitespace_normalized(self):
        module = smi.compile_text(SAMPLE)
        scalar = next(r for r in module.records if r.name == "testScalar")
        assert scalar.description == "A scalar used by the compiler tests."

    def test_imports_recorded(self):
        module = smi.compile_text(SAMPLE)
        assert ("OBJECT-TYPE", "SNMPv2-SMI") in module.header.imports
        assert ("enterprises", "SNMPv2-SMI") in module.header.imports

    def test_row_schema_extracted(self):
        module = smi.compile_text(SAMPLE)
        schemas = [r for r in module.records if isinstance(r, smi.RowSchema)]
        assert len(schemas) == 1
        assert schemas[0].type_name == "TestEntry"
        assert schemas[0].column_names() == ["testIndex", "testName"]

    @pytest.mark.parametrize("defval", ["''H", "'0A'H", "'1010'B"])
    def test_hex_and_binary_defvals_compile(self, defval):
        source = SAMPLE.replace('compiler tests."\n',
                                f'compiler tests."\n    DEFVAL {{ {defval} }}\n')
        assert defval in source
        assert smi.compile_text(source).records == \
            smi.compile_text(SAMPLE).records

    def test_parse_error_carries_position(self):
        with pytest.raises(MibParseError) as exc:
            smi.compile_text("BROKEN-MIB DEFINITIONS ::= BEGIN\nx ::= { }\nEND")
        assert exc.value.line is not None

    def test_trap_type_skipped_with_warning(self):
        source = """T DEFINITIONS ::= BEGIN
coldStartTrap TRAP-TYPE
    ENTERPRISE test
    DESCRIPTION "legacy"
    ::= 0
END"""
        module = smi.compile_text(source)
        assert any("TRAP-TYPE" in w for w in module.warnings)
        assert not [r for r in module.records
                    if isinstance(r, smi.OidAssignment)]

    def test_macro_definition_skipped(self):
        module = smi.compile_text("""T DEFINITIONS ::= BEGIN
NESTED-MACRO MACRO ::=
BEGIN
    TYPE NOTATION ::= "SYNTAX" type(Syntax)
    INNER ::= BEGIN VALUE NOTATION ::= value(VALUE ObjectName) END
END
after OBJECT IDENTIFIER ::= { enterprises 5 }
END""")
        assert module.records == [smi.OidAssignment("T", "after",
                                                    "enterprises", 5)]

    def test_exports_skipped(self):
        module = smi.compile_text("""T DEFINITIONS ::= BEGIN
EXPORTS a, b;
a OBJECT IDENTIFIER ::= { enterprises 5 }
END""")
        assert [r.name for r in module.records] == ["a"]

    def test_textual_convention_with_display_hint(self):
        module = smi.compile_text("""T DEFINITIONS ::= BEGIN
Foo ::= TEXTUAL-CONVENTION
    DISPLAY-HINT "255a"
    STATUS       current
    DESCRIPTION  "Text."
    SYNTAX       OCTET STRING (SIZE (0..255))
END""")
        assert module.records == []
        assert module.warnings == [
            "textual convention Foo recorded as alias of OCTET STRING only"]

    def test_oid_path_of_named_numbers(self):
        module = smi.compile_text("""T DEFINITIONS ::= BEGIN
x OBJECT IDENTIFIER ::= { iso(1) org(3) 99 }
END""")
        (record,) = module.records
        assert (record.parent, record.arc) == ("iso.3", 99)

    @pytest.mark.parametrize("path,column", [
        ("{ enterprises -1 }", 39), ("{ a b(-2) 3 }", 31), ("{ -1 3 }", 27),
        ("{ iso(-1) 3 }", 31)])
    def test_negative_arc_is_refused(self, path, column):
        with pytest.raises(MibParseError) as exc:
            smi.compile_text("T DEFINITIONS ::= BEGIN\n"
                             f"x OBJECT IDENTIFIER ::= {path}\nEND")
        assert str(exc.value).startswith("negative arc -")
        assert (exc.value.line, exc.value.column) == (2, column)


class TestEmitReload:
    def test_emit_read_round_trip(self):
        module = smi.compile_text(SAMPLE)
        data = smi.emit_bytes(module)
        assert data.decode("utf-8").splitlines()[0] == "CMIB 1"
        reloaded = smi.read_compiled(data)
        assert reloaded.header == module.header
        assert reloaded.records == module.records

    def test_emit_idempotent(self):
        module = smi.compile_text(SAMPLE)
        first = smi.emit_bytes(module)
        second = smi.emit_bytes(smi.read_compiled(first))
        assert first == second

    def test_escaping_survives(self):
        source = SAMPLE.replace("Row name.", "has\ttab and\nnewline-ish")
        module = smi.compile_text(source)
        reloaded = smi.read_compiled(smi.emit_bytes(module))
        assert reloaded.records == module.records

    def test_emit_to_sink(self):
        module = smi.compile_text(SAMPLE)
        sink = io.BytesIO()
        smi.emit(module, sink)
        assert sink.getvalue() == smi.emit_bytes(module)


_CMIB_LINE = st.builds(
    lambda tag, fields: "\t".join([tag, *fields]),
    st.sampled_from(["IMP", "OID", "ROWBEGIN", "COL", "ROWEND", "MODULE", ""]),
    st.lists(st.sampled_from(["x", "-", "7", "-1", "1.3", "\\n", "\u00b2", ""])
             | st.text(max_size=3), max_size=10))


@settings(max_examples=500, deadline=None)
@given(st.lists(_CMIB_LINE, max_size=6), st.sampled_from([b"", b"\xff"]))
def test_malformed_cmib_is_a_load_error(lines, tail):
    """A CMIB header followed by any record lines reads as a module or
    raises MibLoadError."""
    data = ("CMIB 1\nMODULE X\n" + "\n".join(lines)).encode() + tail
    try:
        module = smi.read_compiled(data)
    except MibLoadError:
        return
    assert module.header.name == "X"


@pytest.mark.parametrize("data", [
    b"CMIB 1\nMODULE X\nIMP\n",
    b"CMIB 1\nMODULE X\nOID\ta\tb\tone\tplain\t-\t-\t-\t-\n",
    b"CMIB 1\nMODULE X\nOID\ta\tb\t-1\tplain\t-\t-\t-\t-\n",
    b"CMIB 1\nMODULE \xe9\n",
])
def test_read_compiled_refuses(data):
    with pytest.raises(MibLoadError):
        smi.read_compiled(data)


@pytest.mark.parametrize("data, match", [
    (b"CMIB 1\nMODULE X\nROWBEGIN\tE\nCOL\ta\tINTEGER\n", "'E' not closed"),
    (b"CMIB 1\nMODULE X\nROWBEGIN\tE\nCOL\ta\tINTEGER\nROWBEGIN\tF\n"
     b"ROWEND\n", "'E' not closed before line 5"),
], ids=["at the end", "by another ROWBEGIN"])
def test_read_compiled_refuses_an_unclosed_row(data, match):
    with pytest.raises(MibLoadError, match=match):
        smi.read_compiled(data)


# SHA-256 of the CMIB bytes of each core module and of SAMPLE
_CMIB_SHA256 = {
    "SNMPv2-SMI":
        "96bb09a8107b0ed26d1be2c7f4f406e37330b4715ba730eb832312ef63d7f0e6",
    "SNMPv2-MIB":
        "77223453c7fda2ee2f9e3f2f5ebe189ff5e4c53419071bd70302d8f27c2969ac",
    "IF-MIB":
        "17928b630ac95ea2fcb6198d014d321568821885c24f511d558592326c2bf50f",
    "APP-MIB":
        "ede759cbd23d708fca3a2d20f73d292bd55fa9d93507830aa8e53b9e2339b63f",
    "SAMPLE":
        "4ed95370c03505c19111e91c771c5af9d85916242be74004edade29be54796c5",
}


# Every statement kind and OBJECT-TYPE clause the bundled corpus lacks
MACROS_SAMPLE = """
MACROS-MIB DEFINITIONS ::= BEGIN

IMPORTS
    MODULE-IDENTITY, OBJECT-TYPE, NOTIFICATION-TYPE, enterprises
        FROM SNMPv2-SMI
    TEXTUAL-CONVENTION FROM SNMPv2-TC
    OBJECT-GROUP, MODULE-COMPLIANCE, AGENT-CAPABILITIES
        FROM SNMPv2-CONF;

macrosMib MODULE-IDENTITY
    LAST-UPDATED "202601010000Z"
    ORGANIZATION "snmpkit"
    CONTACT-INFO "nobody"
    DESCRIPTION  "The module."
    REVISION     "202601010000Z"
    DESCRIPTION  "Second revision."
    REVISION     "202501010000Z"
    DESCRIPTION  "First revision."
    ::= { enterprises 7703 }

OLD-MACRO MACRO ::=
BEGIN
    TYPE NOTATION ::= "SYNTAX" type(Syntax)
    VALUE NOTATION ::= value(VALUE ObjectName)
END

Level ::= TEXTUAL-CONVENTION
    DISPLAY-HINT "d"
    STATUS       current
    DESCRIPTION  "A level."
    SYNTAX       INTEGER (0..9)

Label ::= OCTET STRING (SIZE (0..32))

mObjects OBJECT IDENTIFIER ::= { macrosMib 1 }

mLevel OBJECT-TYPE
    SYNTAX      INTEGER { up(1), down(2) }
    UNITS       "levels"
    MAX-ACCESS  read-write
    STATUS      current
    DESCRIPTION "The level."
    REFERENCE   "RFC 2578"
    DEFVAL      { up }
    ::= { mObjects 1 }

mFlags OBJECT-TYPE
    SYNTAX      BITS { a(0), b(1) }
    ACCESS      read-only
    STATUS      mandatory
    DESCRIPTION "Flags."
    ::= { mObjects 2 }

mTable OBJECT-TYPE
    SYNTAX      SEQUENCE OF MEntry
    MAX-ACCESS  not-accessible
    STATUS      current
    DESCRIPTION "A table."
    ::= { mObjects 3 }

mEntry OBJECT-TYPE
    SYNTAX      MEntry
    MAX-ACCESS  not-accessible
    STATUS      current
    DESCRIPTION "A row."
    INDEX       { mIndex }
    ::= { mTable 1 }

MEntry ::= SEQUENCE {
    mIndex  INTEGER (1..10),
    mName   Label
}

mIndex OBJECT-TYPE
    SYNTAX      INTEGER (1..10)
    MAX-ACCESS  not-accessible
    STATUS      current
    DESCRIPTION "Row index."
    ::= { mEntry 1 }

mExtEntry OBJECT-TYPE
    SYNTAX      MExtEntry
    MAX-ACCESS  not-accessible
    STATUS      current
    DESCRIPTION "An augmenting row."
    AUGMENTS    { mEntry }
    ::= { mTable 2 }

mEvent NOTIFICATION-TYPE
    OBJECTS     { mLevel, mFlags }
    STATUS      current
    DESCRIPTION "Something happened."
    ::= { macrosMib 2 }

mOldTrap TRAP-TYPE
    ENTERPRISE  macrosMib
    VARIABLES   { mLevel }
    DESCRIPTION "A v1 trap."
    ::= 3

mGroup OBJECT-GROUP
    OBJECTS     { mLevel, mFlags }
    STATUS      current
    DESCRIPTION "The objects."
    ::= { macrosMib 4 }

mCompliance MODULE-COMPLIANCE
    STATUS      current
    DESCRIPTION "Comply."
    MODULE
        MANDATORY-GROUPS { mGroup }
        GROUP       mGroup
        DESCRIPTION "Group detail."
    ::= { macrosMib 5 }

mCapability AGENT-CAPABILITIES
    PRODUCT-RELEASE "1.0"
    STATUS      current
    DESCRIPTION "Capable."
    SUPPORTS    MACROS-MIB
        INCLUDES { mGroup }
        VARIATION mLevel
            ACCESS read-only
            DESCRIPTION "Read only here."
    ::= { macrosMib 6 }

mIso OBJECT IDENTIFIER ::= { iso(1) org(3) 5 }
mZero OBJECT IDENTIFIER ::= { 0 0 }
mNumeric OBJECT IDENTIFIER ::= { 1 3 6 99 }

END
"""

# CMIB SHA-256 and warnings of MACROS_SAMPLE; a macro's description is
# its own, the first DESCRIPTION, not a REVISION's, GROUP's or VARIATION's
_MACROS_SAMPLE_GOLDEN = (
    "d63ef4f26c0a694eb431ba3a082c2656585acd25e7393ff81a09c1814b820801",
    ["textual convention Level recorded as alias of INTEGER only",
     "type alias Label ::= OCTET STRING skipped",
     "TRAP-TYPE mOldTrap skipped (no OID arc)"],
)


class TestMacrosSample:
    def test_cmib_and_warnings_golden(self):
        module = smi.compile_text(MACROS_SAMPLE)
        sha, warnings = _MACROS_SAMPLE_GOLDEN
        assert hashlib.sha256(smi.emit_bytes(module)).hexdigest() == sha
        assert module.warnings == warnings

    def test_records(self):
        module = smi.compile_text(MACROS_SAMPLE)
        by_name = {r.name: r for r in module.records
                   if isinstance(r, smi.OidAssignment)}
        assert by_name["macrosMib"].description == "The module."
        assert by_name["mCompliance"].description == "Comply."
        assert by_name["mCapability"].description == "Capable."
        assert by_name["mLevel"].syntax_constraint == "{ up ( 1 ) , down ( 2 ) }"
        assert by_name["mFlags"].syntax == "BITS"
        assert by_name["mTable"].syntax == "SEQUENCE OF MEntry"
        assert [(by_name[n].parent, by_name[n].arc)
                for n in ("mIso", "mZero", "mNumeric")] == \
            [("iso.3", 5), ("0.0", 0), ("0.1.3.6", 99)]

    @pytest.mark.parametrize("clause,message,column", [
        ('COLOUR "red"', "unknown OBJECT-TYPE clause 'COLOUR'", 5),
        ("UNITS levels", "expected string token, got 'levels'", 11),
    ])
    def test_bad_object_type_clause(self, clause, message, column):
        source = ("T DEFINITIONS ::= BEGIN\n"
                  "x OBJECT-TYPE\n"
                  "    SYNTAX INTEGER\n"
                  f"    {clause}\n"
                  "    ::= { enterprises 1 }\n"
                  "END")
        with pytest.raises(MibParseError) as exc:
            smi.compile_text(source)
        assert str(exc.value).startswith(message)
        assert (exc.value.line, exc.value.column) == (4, column)


class TestBundledCorpus:
    @pytest.mark.parametrize("name", sorted(_CMIB_SHA256))
    def test_cmib_golden(self, name):
        module = smi.compile_text(SAMPLE) if name == "SAMPLE" \
            else compile_bundled(name)
        assert hashlib.sha256(smi.emit_bytes(module)).hexdigest() == \
            _CMIB_SHA256[name]

    @pytest.mark.parametrize("name", CORE_MODULES)
    def test_compiles(self, name):
        module = compile_bundled(name)
        assert module.header.name == name

    @pytest.mark.parametrize("name", CORE_MODULES)
    def test_emit_idempotent(self, name):
        module = compile_bundled(name)
        first = smi.emit_bytes(module)
        second = smi.emit_bytes(smi.read_compiled(first))
        assert first == second

    def test_if_entry_has_22_ordered_columns(self, registry):
        _, _, schema = smi.table_schema(registry, "ifTable")
        assert len(schema.columns) == 22
        assert schema.column_names()[0] == "ifIndex"
        assert schema.column_names()[1] == "ifDescr"
        assert schema.column_names()[21] == "ifSpecific"

    def test_if_descr_at_arc_2(self, registry):
        assert number_list(registry.resolve("ifDescr"))[-1] == 2

    def test_enterprise_root(self, registry):
        assert number_list(registry.resolve("app")) == \
            (1, 3, 6, 1, 4, 1, 31609)


class TestLoad:
    def test_load_into_registry(self):
        registry = load_core(Registry())
        module = smi.compile_text(SAMPLE)
        smi.load_records(registry, module)
        assert number_list(registry.resolve("testName")) == \
            (1, 3, 6, 1, 4, 1, 7700, 2, 1, 2)
        assert registry.resolve("testScalar").node.max_access == "read-only"

    def test_load_compiled_text(self):
        registry = load_core(Registry())
        smi.load_compiled(registry, smi.emit_bytes(smi.compile_text(SAMPLE)))
        assert number_list(registry.resolve("testIndex"))[-2:] == (1, 1)

    def test_table_schema_lookup(self):
        registry = load_core(Registry())
        smi.load_records(registry, smi.compile_text(SAMPLE))
        table, entry, schema = smi.table_schema(registry, "testTable")
        assert table.name == "testTable"
        assert entry.name == "testEntry"
        assert schema.column_names() == ["testIndex", "testName"]

    def test_not_a_table(self, registry):
        with pytest.raises(NotATableError):
            smi.table_schema(registry, "sysDescr")
