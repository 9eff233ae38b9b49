"""Line coverage of src/snmpkit with the stdlib alone: a pytest plugin.

    PYTHONPATH=src python -m pytest -q -p tools.linecov

Tracing starts before pytest loads any conftest, which imports snmpkit,
through sys.settrace for this thread and threading.settrace for
threads started later, such as the agent's service thread.  Only frames
of files under src/snmpkit are traced line by line.

A statement is one ast.stmt of those files, docstrings and the global
and nonlocal declarations, which emit no line event, left out.  It ran
when a line event came from one of its own lines: a simple statement's
lines, a compound statement's header up to its body, or a decorated
definition's decorators.  The terminal summary prints, per file, how many
statements ran and the first lines of those that did not.  It is a report
with no threshold; the suite runs about five times slower under it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "snmpkit") + os.sep

_hits = defaultdict(set)  # file name -> lines that ran


def _trace(frame, event, arg):
    """The global tracer: a frame of the package gets the line tracer."""
    if frame.f_code.co_filename.startswith(PACKAGE):
        return _lines
    return None


def _lines(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _lines


def _stop():
    sys.settrace(None)
    threading.settrace(None)


def _is_docstring(node):
    return isinstance(node, ast.Expr) and \
        isinstance(node.value, ast.Constant) and \
        isinstance(node.value.value, str)


def statements(source):
    """{first line: own lines} of each statement in source, docstrings of
    modules, classes and functions, and global and nonlocal declarations,
    left out."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and body and \
                _is_docstring(body[0]):
            docstrings.add(body[0])
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings or \
                isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body \
            else node.end_lineno
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        found[node.lineno] = range(first, max(last, node.lineno) + 1)
    return found


def _ranges(lines):
    """Sorted ints as text, runs of consecutive ones as a-b."""
    out, start = [], None
    for i, n in enumerate(lines):
        if start is None:
            start = n
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            out.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return ", ".join(out)


def report():
    """(file, statements, those that ran, first lines of the others) for
    each file of the package, in name order."""
    rows = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = PACKAGE + name
        with open(path, encoding="utf-8") as fh:
            found = statements(fh.read())
        hit = _hits.get(path, set())
        missed = sorted(n for n, own in found.items()
                        if not hit.intersection(own))
        rows.append((name, len(found), len(found) - len(missed), missed))
    return rows


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_unconfigure(config):
    _stop()


def pytest_terminal_summary(terminalreporter):
    _stop()
    write = terminalreporter.write_line
    terminalreporter.section("statements of src/snmpkit not run")
    total = ran = 0
    for name, count, done, missed in report():
        total, ran = total + count, ran + done
        write(f"{name}: {done}/{count} run" +
              (f"; not run: {_ranges(missed)}" if missed else ""))
    write(f"total: {ran}/{total} statements run, {total - ran} not")
