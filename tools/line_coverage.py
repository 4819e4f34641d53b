"""Print every statement of ``src/specshift`` that a command never runs.

    python tools/line_coverage.py                # tier 1 (pytest over testpaths)
    python tools/line_coverage.py --commands     # the command paths
    python tools/line_coverage.py -- CMD ARG...  # any command

Runs the command from the root of the checkout this file sits in, with a
``sitecustomize`` module first on ``PYTHONPATH`` and that checkout's ``src``
second.  Python imports the module at the start of every process, the
command's and each subprocess it starts, and it installs a ``sys.settrace``
collector that traces only frames whose code lies under ``src/specshift``.
Each process writes the lines it ran on exit.

The command paths are ``tests/test_cli.py``, ``tools/artifact_digests.py``
and a one-second ``perfbench/run.py`` smoke of each workload, untraced and
traced: what a command of the package runs, without the direct unit tests.

A statement counts as run when any line of it runs; a compound statement
(``if``, ``def``, ``with``, ...) counts by its header lines, and ``try``,
docstrings, ``global`` and ``nonlocal`` are not counted.  Prints one
``path:line: source`` line per statement never run, sorted, and nothing
else on stdout; the commands' own output goes to stderr.  Exits with the
first non-zero exit code of the commands, or 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from code_lines import docstring_lines  # the tools directory is first on sys.path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "specshift"
TIER1 = [[sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]]
COMMANDS = [[sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_cli.py"],
            [sys.executable, "tools/artifact_digests.py"],
            *([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", trace] for trace in ("0", "1") for workload in ("shift_bench", "diagnose"))]

# imported as sitecustomize by every process of the command
COLLECTOR = '''
import atexit, os, sys, threading

_root = os.environ["LINE_COVERAGE_ROOT"]
_out = os.environ["LINE_COVERAGE_OUT"]
_ran = set()
_mine = {}


def _local(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _mine:
        _mine[name] = name.startswith(_root)
    return _local if _mine[name] else None


def _write():
    sys.settrace(None)
    with open(os.path.join(_out, f"{os.getpid()}.lines"), "a") as fh:
        fh.writelines(f"{name}\\t{line}\\n" for name, line in _ran)


atexit.register(_write)
threading.settrace(_global)
sys.settrace(_global)
'''


UNCOUNTED = (ast.Try, ast.Global, ast.Nonlocal)


def statements(tree: ast.AST) -> list[tuple[int, range]]:
    """(first line, the lines any of which runs it) for each counted statement."""
    docstrings = docstring_lines(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, UNCOUNTED) or node.lineno in docstrings:
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out.append((node.lineno, range(first, max(last, node.lineno) + 1)))
    return out


def unrun(ran: dict[str, set[int]]) -> list[str]:
    """``path:line: source`` for each counted statement of the package that never ran."""
    report = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        hit = ran.get(str(path), set())
        for lineno, span in sorted(statements(ast.parse(source))):
            if hit.isdisjoint(span):
                report.append(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    return report


def run(commands: list[list[str]]) -> tuple[int, dict[str, set[int]]]:
    """Run each command under the collector; (first non-zero exit code or 0,
    {source path: the lines run in it})."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "sitecustomize.py").write_text(COLLECTOR)
        out = Path(tmp) / "lines"
        out.mkdir()
        path = os.pathsep.join(p for p in (tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "PYTHONPATH": path, "LINE_COVERAGE_ROOT": str(PACKAGE) + os.sep,
               "LINE_COVERAGE_OUT": str(out)}
        code = 0
        for argv in commands:
            status = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr).returncode
            code = code or status
        ran: dict[str, set[int]] = {}
        for part in out.iterdir():
            for row in part.read_text().splitlines():
                name, line = row.split("\t")
                ran.setdefault(name, set()).add(int(line))
    return code, ran


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", action="store_true", help="run the command paths instead of tier 1")
    parser.add_argument("argv", nargs="*", help="a command to run instead (after --)")
    args = parser.parse_args()
    commands = [args.argv] if args.argv else COMMANDS if args.commands else TIER1
    code, ran = run(commands)
    for line in unrun(ran):
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
