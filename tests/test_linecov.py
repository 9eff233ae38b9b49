import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "linecov.py"
_spec = importlib.util.spec_from_file_location("linecov", _PATH)
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

SOURCE = '''"""A module."""
count = 0


def bump():
    """Docstring."""
    global count
    count += 1
    total = count

    def add(n):
        nonlocal total
        total += n
    add(1)
    return total
'''


class TestStatements:
    def test_declarations_and_docstrings_are_no_statements(self):
        """global and nonlocal emit no line event when they run, so they
        are left out, as docstrings are."""
        assert linecov.statements(SOURCE) == {
            n: range(n, n + 1) for n in (2, 5, 8, 9, 11, 13, 14, 15)}

    def test_a_compound_statement_owns_its_header_and_decorators(self):
        source = "@wrap\ndef f(\n    a,\n):\n    return a\n"
        assert linecov.statements(source) == {2: range(1, 5), 5: range(5, 6)}
