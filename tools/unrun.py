"""Print the lines of jetstrata's functions that the tier-1 tests never run.

    python3 tools/unrun.py [--source DIR] [PYTEST_ARGS...]

The tests run once, in a child ``python -m pytest`` started from the root
of the repository, with this file loaded as a pytest plugin (``-p unrun``).
The plugin records, with a ``sys.settrace`` line tracer, every line that
runs in a file under DIR (default ``src/jetstrata``).  Only the standard
library is used, so no coverage tool is needed.

A function-body line is a line of the code of a function, lambda or
comprehension, other than its first line (the ``def`` or decorator line, run
when the function is defined, not when it is called).  For each module under
DIR, one line gives the count of its function-body lines that never ran,
then one line per run of consecutive such lines in one function, as
``module.py:first-last qualified.name`` (``module.py:line`` for a run of
one).  Then one line counts the failed tests, and one line names each.  A
test bounded by wall-clock time may fail under tracing; the lines are
reported regardless, and the exit status is 0 unless the child pytest could
not run the tests at all.

PYTEST_ARGS default to the tier-1 run (the ``tests`` directory).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


# The plugin half, loaded by the child pytest.

def pytest_addoption(parser):
    parser.addoption("--unrun-source", help="trace the lines run in files under this directory")
    parser.addoption("--unrun-out", help="write the lines run and the failed tests to this JSON file")


def pytest_configure(config):
    if config.getoption("unrun_out"):
        config.pluginmanager.register(LineTracer(config.getoption("unrun_source"), config.getoption("unrun_out")))


class LineTracer:
    """Records the lines run in files under ``source`` from configure to
    unconfigure, and the tests that failed, then writes both to ``out``."""

    def __init__(self, source: str, out: str):
        self.prefix = os.path.realpath(source) + os.sep
        self.out = out
        self.lines: dict[str, set[int]] = {}  # real path -> lines run
        self.files: dict[str, set[int] | None] = {}  # co_filename -> its set in lines, None when not traced
        self.failed: set[str] = set()
        sys.settrace(self.call)
        threading.settrace(self.call)

    def call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            lines = self.files[filename]
        except KeyError:
            path = os.path.realpath(filename)
            lines = self.files[filename] = self.lines.setdefault(path, set()) if path.startswith(self.prefix) else None
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.add(report.nodeid)

    def pytest_unconfigure(self, config):
        sys.settrace(None)
        threading.settrace(None)
        result = {"lines": {path: sorted(lines) for path, lines in self.lines.items()}, "failed": sorted(self.failed)}
        Path(self.out).write_text(json.dumps(result), encoding="utf-8")


# The report half.

def function_lines(path: Path) -> dict[int, str]:
    """Each function-body line of a source file, mapped to the qualified
    name of the innermost function that holds it."""
    found: dict[int, str] = {}

    def walk(code):
        for const in code.co_consts:
            if inspect.iscode(const):
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    name = getattr(const, "co_qualname", const.co_name)  # co_qualname is new in 3.11
                    for _, _, line in const.co_lines():
                        if line is not None and line != const.co_firstlineno:
                            found[line] = name
                walk(const)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
    return found


def unrun_report(source: Path, lines_run: dict[str, list[int]], failed: list[str]) -> list[str]:
    out = []
    for path in sorted(source.glob("*.py")):
        ran = set(lines_run.get(os.path.realpath(path), ()))
        unrun = sorted((line, name) for line, name in function_lines(path).items() if line not in ran)
        out.append(f"{path.name}: {len(unrun)} function-body lines never ran")
        runs: list[list] = []  # [first, last, name]
        for line, name in unrun:
            if runs and runs[-1][2] == name and runs[-1][1] == line - 1:
                runs[-1][1] = line
            else:
                runs.append([line, line, name])
        for first, last, name in runs:
            span = first if first == last else f"{first}-{last}"
            out.append(f"  {path.name}:{span} {name}")
    out.append(f"failed tests: {len(failed)}")
    out.extend(f"  {nodeid}" for nodeid in failed)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--source", type=Path, default=REPO / "src" / "jetstrata", help="directory of the traced modules")
    args, pytest_args = parser.parse_known_args(argv)  # the rest goes to pytest
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "tools"), str(REPO / "src"), env.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "lines.json"
        command = [sys.executable, "-m", "pytest", "-p", "unrun", "--unrun-source", str(args.source),
                   "--unrun-out", str(out), *(pytest_args or TIER1)]
        done = subprocess.run(command, cwd=REPO, env=env, stdout=subprocess.DEVNULL)
        if not out.exists():
            sys.stderr.write(f"pytest exited {done.returncode} before its tests ran\n")
            return 1
        result = json.loads(out.read_text(encoding="utf-8"))
    print("\n".join(unrun_report(args.source, result["lines"], result["failed"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
