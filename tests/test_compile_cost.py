"""tools/compile_cost.py on a throwaway directory of two modules."""

import ast
import re

import compile_cost

SOURCES = {"b.py": "def f(x):\n    return x + 1\n", "a.py": "X = [1, 2, 3]\n"}


def test_compile_cost_prints_each_module_and_the_totals(tmp_path, capsys):
    for name, source in SOURCES.items():
        (tmp_path / name).write_text(source)
    (tmp_path / "notes.txt").write_text("not a module")
    assert compile_cost.main([str(tmp_path)]) == 0
    rows = [re.fullmatch(r"(\S+) +(\d+\.\d\d) ms +(\d+) nodes", line) for line in capsys.readouterr().out.splitlines()]
    assert all(rows)
    nodes = {name: sum(1 for _ in ast.walk(ast.parse(source))) for name, source in SOURCES.items()}
    assert [(row[1], int(row[3])) for row in rows] == [
        ("a.py", nodes["a.py"]), ("b.py", nodes["b.py"]), ("total", nodes["a.py"] + nodes["b.py"])
    ]
    ms = [float(row[2]) for row in rows]
    assert min(ms) >= 0 and abs(ms[0] + ms[1] - ms[2]) <= 0.011
