"""tools/unrun.py on a throwaway module and test."""

import unrun

MODULE = '''\
def covered(flag):
    if flag:
        return "yes"
    return "no"
'''

TESTS = '''\
from pkg.mod import covered


def test_passes():
    assert covered(True) == "yes"


def test_fails():
    assert covered(True) == "no"
'''


def test_unrun_names_the_one_line_no_test_runs(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "test_mod.py").write_text(TESTS)
    status = unrun.main(["--source", str(package), "-q", "-p", "no:cacheprovider", str(tmp_path / "test_mod.py")])
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    assert lines[:-1] == [
        "__init__.py: 0 function-body lines never ran",
        "mod.py: 1 function-body lines never ran",
        "  mod.py:4 covered",
        "failed tests: 1",
    ]
    assert lines[-1].startswith("  ") and lines[-1].endswith("test_mod.py::test_fails")
