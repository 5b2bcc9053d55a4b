"""The README's examples run and give what their comments claim.

Each command line is looked up verbatim in ``README.md`` before it runs, so
an edit to the README that changes an example fails here until the claim is
checked again.
"""

import json
import re
from pathlib import Path

import pytest

from test_cli import parse_report, run_cli, write_json

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README, re.M | re.S)


def _block(language, holds):
    return next(text for lang, text in BLOCKS if lang == language and holds in text)


def _run(capsys, line):
    # ``line`` as the README writes it, a continued line included.
    assert line in README
    argv = [word for word in line.split("#")[0].split() if word != "\\"]
    assert argv[0] == "jetstrata"
    status, out, err = run_cli(capsys, *argv[1:])
    assert (status, err) == (0, "")
    return parse_report(out)


@pytest.mark.parametrize(
    "line, claims",
    [
        (
            "jetstrata codim --symbol 2,1,0 --n 3 --p 3            # bound 5",
            {"bound": 5},
        ),
        (
            "jetstrata criteria w --n 8 --p 8 --i 3 --l 1 --k 18   # Established: 9 >= 9, k >= 10",
            {"verdict": "Established", "lhs": 9, "rhs": 9, "kRequired": 10},
        ),
        (
            "jetstrata criteria stabilized --n 20 --p 20 --i 3 --l 1 --k 100   # shift m = 12",
            {"shiftUsed": 12},
        ),
        (
            "jetstrata filtration next-index --l 0                 # index 2, stage dimension 32",
            {"index": 2, "stageDim": 32},
        ),
    ],
)
def test_command_examples_give_their_comments(capsys, line, claims):
    intermediates = _run(capsys, line)["intermediates"]
    assert {key: intermediates[key] for key in claims} == claims


def test_porteous_example_on_the_readme_documents(capsys, tmp_path, monkeypatch):
    # The example reads ring.json and bundle.json: the README's own ring and
    # bundle documents.
    write_json(tmp_path / "ring.json", json.loads(_block("json", '"basis"')))
    write_json(tmp_path / "bundle.json", json.loads(_block("json", '"totalPositive"')))
    monkeypatch.chdir(tmp_path)
    report = _run(
        capsys,
        "jetstrata porteous --variant pontrjagin --ring ring.json --bundle bundle.json \\\n    --i 2 --n 4 --p 4\n",
    )
    assert report["verdict"] == "Nonzero"
    assert report["intermediates"]["obstruction"]["components"] == [{"coeff": 3, "label": "x2"}]


def test_library_example_runs():
    namespace = {}
    exec(_block("python", "from jetstrata import"), namespace)
    obstruction = namespace["product_obstruction"](namespace["run"], 0)
    assert not obstruction.is_zero
    assert obstruction.value.support_degrees() == (16,)
