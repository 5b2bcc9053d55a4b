"""The start and exit of one CLI process: which modules each command
imports, the package's public names resolved on first use, and a report
that arrives whole after the heap is frozen at exit."""

import ast
import contextlib
import gc
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetstrata
from jetstrata import cli, gring, symbols

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(cli.__file__).resolve().parent.parent
LIBRARY = {"gring", "charclass", "criteria", "filtration", "selfcheck"}
# Printed by a fresh interpreter after its code ran: the jetstrata modules loaded.
LOADED = "print(sorted(name for name in sys.modules if name.split('.')[0] == 'jetstrata'))"


def fresh(*argv, code=None):
    """Run ``python -c code argv`` (``python -m jetstrata.cli argv`` when
    ``code`` is None) in a fresh interpreter that imports this checkout's
    jetstrata; its completed process, with stdout and stderr as bytes."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    head = ["-m", "jetstrata.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *argv], env=env, capture_output=True)


def in_process(*argv):
    """Status, stdout and stderr of ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))
    return status, out.getvalue(), err.getvalue()


def session_files(tmp_path):
    """The ring and bundle documents of a 515-label mod-2 ring, the shape of
    the ring-session workload's."""
    ring = gring.truncated_polynomial_ring("mod2", 18, [("a", 1), ("b", 2), ("c", 3), ("d", 4)], fundamental="a^18")
    ring_path, bundle_path = tmp_path / "ring.json", tmp_path / "bundle.json"
    ring_path.write_text(json.dumps(ring.serialize()), encoding="utf-8")
    total = [{"label": label, "coeff": 1} for label in ("1", "a", "b", "c", "d")]
    bundle_path.write_text(json.dumps({"totalPositive": total, "totalNegativePulled": [total[0]]}), encoding="utf-8")
    return ["--ring", str(ring_path), "--bundle", str(bundle_path)]


# -- the import graph ---------------------------------------------------------


def test_importing_the_cli_loads_only_the_cli_and_symbols():
    done = fresh(code=f"import sys, jetstrata.cli; {LOADED}")
    assert done.stdout == b"['jetstrata', 'jetstrata.cli', 'jetstrata.symbols']\n"


@pytest.mark.parametrize(
    "argv, library",
    [
        (["codim", "--symbol", "2,1,0", "--n", "3", "--p", "3"], set()),
        (["codim", "--symbol", "2,1,0", "--n", "3"], set()),  # exits 2 in argparse
        (["criteria", "w", "--n", "4", "--p", "4", "--i", "2", "--k", "inf"], {"gring", "charclass", "criteria"}),
        (["filtration", "next-index", "--l", "5"], {"gring", "charclass", "filtration"}),
        (["porteous", "--variant", "sw", "@", "--i", "2", "--n", "18", "--p", "18"], {"gring", "charclass"}),
        (["wtable", "@", "--p", "8"], {"gring", "charclass"}),  # exits 2: the ring is mod 2
        (["verdict", "@", "--i", "3", "--l", "0", "--k", "inf", "--target-dim", "18"],
         {"gring", "charclass", "criteria"}),
        (["selfcheck"], LIBRARY),
    ],
)
def test_each_command_imports_only_the_library_modules_it_runs(tmp_path, argv, library):
    documents = session_files(tmp_path) if "@" in argv else []
    argv = [part for arg in argv for part in (documents if arg == "@" else [arg])]
    code = f"import sys; from jetstrata import cli; cli.main(sys.argv[1:]); {LOADED}"
    loaded = ast.literal_eval(fresh(*argv, code=code).stdout.decode().splitlines()[-1])
    assert set(loaded) == {"jetstrata", "jetstrata.cli", "jetstrata.symbols"} | {f"jetstrata.{m}" for m in library}


def test_star_import_binds_every_public_name_to_its_submodule_attribute():
    # Each name is looked up in the submodule that defines it (its
    # ``__module__``), and through the package.
    code = (
        "import sys; from jetstrata import *; import jetstrata; "
        "names = [n for n in jetstrata.__all__ if n != '__version__']; "
        "print(all(globals()[n] is getattr(sys.modules[globals()[n].__module__], n) is getattr(jetstrata, n) "
        "for n in names), __version__, sorted(set(jetstrata.__all__) - set(dir(jetstrata))))"
    )
    assert fresh(code=code).stdout == b"True 0.1.0 []\n"


def test_submodules_resolve_after_importing_the_package_and_unknown_names_do_not():
    code = "import jetstrata; print(jetstrata.gring.__name__, jetstrata.ManifoldRing is jetstrata.gring.ManifoldRing)"
    assert fresh(code=code).stdout == b"jetstrata.gring True\n"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        jetstrata.no_such_name
    with pytest.raises(ImportError):
        exec("from jetstrata import no_such_name", {})


def tracer_targets():
    """``TARGETS`` of the traced benchmark, read from its source."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    value, = [node.value for node in tree.body
              if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]]
    return ast.literal_eval(value)


@pytest.mark.parametrize("module, attribute, span", tracer_targets())
def test_every_traced_name_is_bound_once_its_module_is_imported(module, attribute, span):
    assert callable(getattr(importlib.import_module(f"jetstrata.{module}"), attribute, None))


# -- the exit path ------------------------------------------------------------


def test_a_report_of_several_megabytes_arrives_whole_through_a_pipe(tmp_path):
    argv = ["porteous", "--variant", "sw", *session_files(tmp_path), "--i", "2", "--n", "18", "--p", "18"]
    status, out, err = in_process(*argv)
    assert (status, err) == (0, "") and len(out) > 10**6
    done = fresh(*argv)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == out.encode("utf-8")
    report = tmp_path / "report.json"
    done = fresh(*argv, "--out", str(report))
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert report.read_bytes() == out.encode("utf-8")


def test_exit_statuses_are_unchanged(monkeypatch):
    assert fresh("codim", "--symbol", "2,1,0", "--n", "3", "--p", "3").returncode == 0
    assert fresh("codim", "--symbol", "2,1,0", "--n", "3").returncode == 2  # argparse
    done = fresh("codim", "--symbol", "1,2", "--n", "3", "--p", "3")  # NotMonotone
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"NotMonotone: symbol entries increase: 1 < 2 in (1, 2)\n"

    def inconsistent(*args):
        raise symbols.ConsistencyError("induced")

    monkeypatch.setattr(symbols, "codim_lower_bound", inconsistent)
    assert in_process("codim", "--symbol", "2,1,0", "--n", "3", "--p", "3") == (
        1, "", "internal inconsistency: induced\n"
    )
    code = (
        "from jetstrata import cli, symbols\n"
        "def inconsistent(*args): raise symbols.ConsistencyError('induced')\n"
        "symbols.codim_lower_bound = inconsistent; cli.entry()"
    )
    done = fresh("codim", "--symbol", "2,1,0", "--n", "3", "--p", "3", code=code)
    assert (done.returncode, done.stdout, done.stderr) == (1, b"", b"internal inconsistency: induced\n")


def test_entry_freezes_the_heap_and_finalization_still_runs():
    code = (
        "import atexit, gc, sys; from jetstrata import cli; "
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr)); "
        "print('before', gc.get_freeze_count(), file=sys.stderr); cli.entry()"
    )
    done = fresh("codim", "--symbol", "2,1,0", "--n", "3", "--p", "3", code=code)
    assert (done.returncode, done.stderr) == (0, b"before 0\nfrozen True\n")
    assert json.loads(done.stdout)["intermediates"]["bound"] == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["codim", "--symbol", "2,1,0", "--n", "3", "--p", "3"],
        ["codim", "--symbol", "2,1,0", "--n", "3"],  # exits 2 in argparse
        ["filtration", "next-index", "--l", "5"],
        ["selfcheck"],
    ],
)
def test_main_leaves_the_freeze_count_and_the_collector_as_it_found_them(argv):
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            frozen = gc.get_freeze_count()
            in_process(*argv)
            assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    finally:
        (gc.enable if was else gc.disable)()
