"""List the lines of ``src/walkcover`` that a pytest run never executes.

Usage (from the repository root)::

    python scripts/untraced_lines.py [pytest arguments ...]

Runs pytest in this process under ``sys.settrace`` and
``threading.settrace``, with line events taken only in frames whose code
lives in ``src/walkcover``, then prints ``file:line: source`` for every
executable line that never ran.  The executable lines are those that the
compiled module's code objects name in ``co_lines``.  Code run in a
subprocess is not traced, so a line that only a subprocess runs is
listed.  The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "walkcover"


def executable_lines(path: Path) -> set[int]:
    """Lines named by the code objects compiled from ``path``."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit status and the lines run in each package file."""
    import pytest

    ran: dict[Path, set[int]] = {}
    owner: dict[str, set[int] | None] = {}  # co_filename -> its lines, None outside

    def lines_of(filename: str) -> set[int] | None:
        if filename not in owner:
            path = Path(filename).resolve()
            owner[filename] = (ran.setdefault(path, set())
                               if path.parent == PACKAGE and path.suffix == ".py" else None)
        return owner[filename]

    def on_call(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main() -> int:
    status, ran = run_traced(sys.argv[1:])
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran.get(path, set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines never ran", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
