"""List every statement of src/adnet that a pytest run never executes.

    python3 tests/line_coverage.py [PYTEST_ARGS...]

runs pytest in this process (by default the whole suite, as
`pytest -q --continue-on-collection-errors` from the checkout's root)
under `sys.settrace`, tracing only frames whose code lies in src/adnet,
then prints for each file of src/adnet its count of statements not run
and each of them as `line: source`. A statement is a node of the file's
syntax tree that compiles to code: docstrings, `try:` and the like have
none. A compound statement counts as run when its header (its decorators
and the lines before its body) runs. Hypothesis's deadline is lifted,
because tracing slows every test, and its examples are derandomized, so
that two runs list the same statements. It needs only the standard
library and the test dependencies; pytest does not collect this file.

Code that the suite reaches only in a child process, such as the
`adnet_subprocess` runs in tests/test_cli.py and
`test_closed_stdout_is_one_error_line`, is not traced, so it shows as
not run.
"""

import ast
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "adnet"


def code_lines(code: types.CodeType) -> set[int]:
    """The lines that code and the code nested in it compile to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def statements(path: Path) -> list[tuple[int, range]]:
    """(first line, lines that run it) of every statement of a file that
    compiles to code, in line order."""
    source = path.read_text()
    compiled = code_lines(compile(source, str(path), "exec"))
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        lines = range(first, last + 1)
        if compiled.intersection(lines):
            found.append((first, lines))
    return sorted(found, key=lambda item: item[0])


class TracedHypothesis:
    """A pytest plugin that, before any test module is collected, lifts
    Hypothesis's deadline and fixes its examples."""

    @staticmethod
    def pytest_configure(config):
        import hypothesis

        hypothesis.settings.register_profile("line_coverage", deadline=None, derandomize=True)
        hypothesis.settings.load_profile("line_coverage")


def trace(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for argv, and the lines it ran per traced file."""
    import pytest

    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(argv, plugins=[TracedHypothesis()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), executed


def main() -> int:
    argv = sys.argv[1:] or ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                            str(ROOT)]
    code, executed = trace(argv)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(str(path), set())
        missed = [first for first, lines in statements(path) if not ran.intersection(lines)]
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} statements not run")
        source = path.read_text().splitlines()
        for first in missed:
            print(f"  {first}: {source[first - 1].strip()}")
    print(f"{total} statements not run; pytest exited {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
