"""Line coverage of src/tinyasr, with the standard library alone.

    python tools/linecov.py [PYTEST ARGS...]

Runs pytest in this process with the given arguments, under a sys.settrace
hook that traces only frames whose code lives under src/tinyasr, then
prints each executable line of the package (from its code objects'
co_lines()) that no test ran, as `path:line: source`. Exits with pytest's
exit code. Tracing makes the suite about three times slower.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tinyasr"


def _lines(code) -> set:
    """The line numbers of code and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _lines(const)
    return lines


def main(argv) -> int:
    package = {}  # each code file name: its resolved path, or None outside the package
    ran = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in package:
            path = Path(filename).resolve()
            package[filename] = path if path.parent == PACKAGE else None
        if package[filename] is None:
            return None
        ran.add((filename, frame.f_lineno))
        return trace_lines

    sys.settrace(trace_calls)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)

    ran = {(package[filename], line) for filename, line in ran}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in sorted(_lines(compile(source, str(path), "exec"))):
            if (path, line) not in ran:
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
