import copy
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from jetstrata import charclass, cli, filtration, gring, symbols, tensor
from jetstrata.selfcheck import check_determinant_oracle, check_ring_fixture

from conftest import FOUR_MANIFOLD_SPEC

DATA = Path(__file__).parent / "data"
DEPTH2_RUN = json.loads((DATA / "filtration_depth2_run.json").read_text(encoding="utf-8"))


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def parse_report(out):
    return json.loads(out)


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")


@pytest.fixture
def ring_file(tmp_path):
    path = tmp_path / "ring.json"
    write_json(path, FOUR_MANIFOLD_SPEC)
    return path


@pytest.fixture
def bundle_file(tmp_path):
    path = tmp_path / "bundle.json"
    write_json(
        path,
        {
            "totalPositive": [{"label": "1", "coeff": 1}, {"label": "x2", "coeff": 3}],
            "totalNegativePulled": [{"label": "1", "coeff": 1}],
        },
    )
    return path


def test_codim_command(capsys):
    status, out, _ = run_cli(capsys, "codim", "--symbol", "2,1,0", "--n", "3", "--p", "3")
    assert status == 0
    report = parse_report(out)
    assert report["command"] == "codim"
    assert report["intermediates"]["bound"] == 5
    assert report["intermediates"]["firstOrderCodim"] == 4
    assert report["verdict"] is None
    assert report["citations"]


def test_codim_reports_jet_dimension_for_finite_order(capsys):
    status, out, _ = run_cli(
        capsys, "codim", "--symbol", "1,0", "--n", "2", "--p", "3", "--k", "2"
    )
    assert status == 0
    assert parse_report(out)["intermediates"]["jetFiberDim"] == 15


def test_codim_invalid_symbol_exits_2(capsys):
    status, _, err = run_cli(capsys, "codim", "--symbol", "1,2", "--n", "3", "--p", "3")
    assert status == 2
    assert "NotMonotone" in err


def test_criteria_w_command(capsys):
    status, out, _ = run_cli(
        capsys,
        "criteria", "w", "--n", "8", "--p", "8", "--i", "3", "--l", "1", "--k", "18",
    )
    assert status == 0
    report = parse_report(out)
    assert report["verdict"] == "Established"
    assert report["intermediates"]["lhs"] == 9
    assert report["intermediates"]["kRequired"] == 10


def test_criteria_stabilized_command(capsys):
    status, out, _ = run_cli(
        capsys,
        "criteria", "stabilized",
        "--n", "20", "--p", "20", "--i", "3", "--l", "1", "--k", "100",
    )
    assert status == 0
    report = parse_report(out)
    assert report["verdict"] == "Established"
    assert report["intermediates"]["shiftUsed"] == 12


@pytest.mark.parametrize(
    "argv",
    [
        ["nonstable", "--n", "-5", "--p", "0", "--i", "1", "--k", "inf"],
        ["nonstable", "--n", "4", "--p", "0", "--i", "1", "--k", "inf"],
        ["w", "--n", "0", "--p", "3", "--i", "1", "--l", "0", "--k", "inf"],
        ["stabilized", "--n", "0", "--p", "3", "--i", "1", "--l", "1", "--k", "inf"],
    ],
)
def test_criteria_nonpositive_dimension_exits_2(capsys, argv):
    status, out, err = run_cli(capsys, "criteria", *argv)
    assert status == 2
    assert out == ""
    assert "dimensions must be positive" in err
    assert "Traceback" not in err


def test_criteria_accepts_kernel_rank_above_n(capsys):
    status, out, _ = run_cli(capsys, "criteria", "nonstable", "--n", "2", "--p", "5", "--i", "4", "--k", "inf")
    assert status == 0
    assert parse_report(out)["verdict"] in ("Established", "NotEstablished")


def test_filtration_next_index_command(capsys):
    status, out, _ = run_cli(capsys, "filtration", "next-index", "--l", "0")
    assert status == 0
    report = parse_report(out)
    assert report["intermediates"]["index"] == 2
    assert report["intermediates"]["stageDim"] == 32


def test_porteous_command(capsys, ring_file, bundle_file):
    status, out, _ = run_cli(
        capsys,
        "porteous", "--variant", "pontrjagin",
        "--ring", str(ring_file), "--bundle", str(bundle_file),
        "--i", "2", "--n", "4", "--p", "4",
    )
    assert status == 0
    report = parse_report(out)
    assert report["verdict"] == "Nonzero"
    assert report["intermediates"]["matrixSize"] == 1
    assert report["intermediates"]["obstruction"]["components"] == [
        {"label": "x2", "coeff": 3}
    ]


def test_wtable_command(capsys, tmp_path):
    ring_spec = {
        "mode": "integer_mod_torsion",
        "topDim": 8,
        "basis": [
            {"label": "1", "degree": 0},
            {"label": "a", "degree": 4},
            {"label": "b", "degree": 8},
            {"label": "aa", "degree": 8},
        ],
        "products": [{"a": "a", "b": "a", "result": [{"label": "aa", "coeff": 1}]}],
        "fundamental": "b",
    }
    ring_path = tmp_path / "r8.json"
    write_json(ring_path, ring_spec)
    bundle_path = tmp_path / "b8.json"
    write_json(
        bundle_path,
        {
            "totalPositive": [
                {"label": "1", "coeff": 1},
                {"label": "a", "coeff": 1},
                {"label": "b", "coeff": 1},
            ],
            "totalNegativePulled": [{"label": "1", "coeff": 1}],
        },
    )
    status, out, _ = run_cli(
        capsys, "wtable", "--p", "8", "--ring", str(ring_path), "--bundle", str(bundle_path)
    )
    assert status == 0
    report = parse_report(out)
    assert report["verdict"] == "Nonzero"
    components = {c["label"]: c["coeff"] for c in report["intermediates"]["obstruction"]["components"]}
    assert components == {"b": 9, "aa": 3}


def test_verdict_command_identity_is_inconclusive(capsys, ring_file, tmp_path):
    bundle_path = tmp_path / "trivial.json"
    write_json(
        bundle_path,
        {
            "totalPositive": [{"label": "1", "coeff": 1}],
            "totalNegativePulled": [{"label": "1", "coeff": 1}],
        },
    )
    status, out, _ = run_cli(
        capsys,
        "verdict", "--ring", str(ring_file), "--bundle", str(bundle_path),
        "--i", "2", "--l", "0", "--k", "20", "--target-dim", "4",
    )
    assert status == 0
    report = parse_report(out)
    assert report["verdict"] == "Inconclusive"


def test_filtration_run_command(capsys, tmp_path):
    ring_spec = {
        "mode": "integer_mod_torsion",
        "topDim": 32,
        "basis": [{"label": "1", "degree": 0}]
        + [{"label": f"t{j}", "degree": 4 * j} for j in range(1, 9)],
        "products": [
            {
                "a": f"t{a}",
                "b": f"t{b}",
                "result": [{"label": f"t{a + b}", "coeff": 1}],
            }
            for a in range(1, 8)
            for b in range(a, 8)
            if a + b <= 8
        ],
        "fundamental": "t8",
    }
    document = {
        "d": 0,
        "schedule": [8, 9],
        "stages": [
            {
                "ring": ring_spec,
                "bundle": {
                    "totalPositive": [
                        {"label": "1", "coeff": 1},
                        {"label": "t1", "coeff": 1},
                        {"label": "t2", "coeff": 1},
                    ],
                    "totalNegativePulled": [{"label": "1", "coeff": 1}],
                },
            }
        ],
    }
    spec_path = tmp_path / "run.json"
    write_json(spec_path, document)
    status, out, _ = run_cli(capsys, "filtration", "run", "--spec", str(spec_path))
    assert status == 0
    report = parse_report(out)
    assert report["verdict"] == "RunVerified"
    stage = report["intermediates"]["stages"][0]
    assert stage["dim"] == 32
    assert stage["productObstruction"]["isZero"] is False


def test_depth2_filtration_run_report_is_unchanged(capsys):
    # Stages of dimension 32/72/128 on one generator each, of degree 8/12/16:
    # a 315-label product ring.  The expected report was recorded with the
    # implementation that stored the full Künneth product table.
    status = cli.main(["filtration", "run", "--spec", str(DATA / "filtration_depth2_run.json")])
    out = capsys.readouterr().out
    assert status == 0
    assert out.encode("utf-8") == (DATA / "filtration_depth2_report.json").read_bytes()


def test_reports_are_byte_identical(capsys, ring_file, bundle_file):
    argv = [
        "porteous", "--variant", "pontrjagin",
        "--ring", str(ring_file), "--bundle", str(bundle_file),
        "--i", "2", "--n", "4", "--p", "4",
    ]
    status_a, out_a, _ = run_cli(capsys, *argv)
    status_b, out_b, _ = run_cli(capsys, *argv)
    assert status_a == status_b == 0
    assert out_a == out_b


def test_report_ring_echo_round_trips(capsys, ring_file, bundle_file, tmp_path):
    argv = [
        "porteous", "--variant", "pontrjagin",
        "--ring", str(ring_file), "--bundle", str(bundle_file),
        "--i", "2", "--n", "4", "--p", "4",
    ]
    _, out_a, _ = run_cli(capsys, *argv)
    report = parse_report(out_a)
    ring_echo = tmp_path / "ring_echo.json"
    bundle_echo = tmp_path / "bundle_echo.json"
    write_json(ring_echo, report["inputs"]["ring"])
    write_json(bundle_echo, report["inputs"]["bundle"])
    _, out_b, _ = run_cli(
        capsys,
        "porteous", "--variant", "pontrjagin",
        "--ring", str(ring_echo), "--bundle", str(bundle_echo),
        "--i", "2", "--n", "4", "--p", "4",
    )
    assert out_a == out_b


def test_out_flag_writes_only_the_report_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out_path = tmp_path / "report.json"
    status = cli.main(
        ["codim", "--symbol", "2,1", "--n", "3", "--p", "3", "--out", str(out_path)]
    )
    assert status == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(out_path.read_text())["intermediates"]["bound"] == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


# The most digits an integer option or JSON number reads in with.
NINES = "9" * 4300


@pytest.mark.parametrize(
    "argv, named",
    [
        # The report cannot be written: FileNotFoundError.
        (["codim", "--symbol", "1", "--n", "2", "--p", "2", "--out", "/nonexistent/dir/x.json"],
         "FileNotFoundError"),
        # lhs = i^2(i-1)/2 has about 4,500 digits, past the int-to-str limit
        # json.dumps meets when it prints the report.
        (["criteria", "w", "--n", "5", "--p", "5", "--i", str(10**1500), "--k", "inf"],
         "report integer has more than"),
        # jetFiberDim would have more than 4,300 digits; refused before printing.
        (["codim", "--symbol", "1", "--n", "10000", "--p", "10000", "--k", "10000"], "digits"),
        # The matrix size p - n + i has 4,301 digits: past the cap, and past
        # the printing limit for its message.
        (["porteous", "--variant", "sw", "--ring", "@ring.json", "--bundle", "@bundle.json",
          "--i", NINES, "--n", "1", "--p", NINES],
         "CharClassError: matrix size of more than 4300 digits exceeds the cap MAX_MATRIX_SIZE = 23"),
        (["verdict", "--ring", "@ring.json", "--bundle", "@bundle.json",
          "--i", NINES, "--l", "0", "--k", "inf", "--target-dim", NINES],
         "CharClassError: matrix size of more than 4300 digits exceeds the cap MAX_MATRIX_SIZE = 23"),
        # A schedule of no budgets for a depth d whose d + 1 has 4,301 digits.
        (["filtration", "run", "--spec", "@run.json"],
         "ScheduleNotIncreasing: schedule must list budgets l_0..l_(d+1) for a depth d of more than 4300 digits"),
    ],
)
def test_emit_failures_exit_2_with_one_line(capsys, tmp_path, argv, named):
    documents, _ = PORTEOUS_CASES["line"]
    documents = {**documents, "run": {"d": int(NINES), "schedule": [], "stages": []}}
    for name, document in documents.items():
        write_json(tmp_path / f"{name}.json", document)
    status, out, err = run_cli(capsys, *(str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv))
    assert status == 2
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert named in err
    assert "Traceback" not in err and "set_int_max_str_digits" not in err


def test_report_integer_past_the_printing_limit_is_named(capsys, tmp_path):
    # The bundle's coefficient 2^13000 + 1 reads in (3,914 digits); the class
    # it gives has more digits than the interpreter prints.
    ring = {
        "mode": "integer_mod_torsion",
        "topDim": 8,
        "basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 4}, {"label": "x2", "degree": 8}],
        "products": [{"a": "x", "b": "x", "result": [{"label": "x2", "coeff": 1}]}],
        "fundamental": "x2",
    }
    bundle = {
        "totalPositive": [{"label": "1", "coeff": 1}, {"label": "x", "coeff": 2**13000 + 1}],
        "totalNegativePulled": [{"label": "1", "coeff": 1}],
    }
    write_json(tmp_path / "ring.json", ring)
    write_json(tmp_path / "bundle.json", bundle)
    argv = [
        "porteous", "--variant", "pontrjagin", "--ring", str(tmp_path / "ring.json"),
        "--bundle", str(tmp_path / "bundle.json"), "--i", "2", "--n", "6", "--p", "8",
    ]
    message = (
        f"ValueError: report integer has more than {sys.get_int_max_str_digits()} digits, "
        "the limit for printing an integer\n"
    )
    assert run_cli(capsys, *argv) == (2, "", message)
    assert run_cli(capsys, *argv, "--out", str(tmp_path / "report.json")) == (2, "", message)
    assert not (tmp_path / "report.json").exists()


# Each integer option of each command, with valid values for the rest.
INTEGER_OPTIONS = {
    "codim": (["codim", "--symbol", "1", "--n", "7", "--p", "7", "--k", "9"], ["--n", "--p"]),
    "porteous": (
        ["porteous", "--variant", "pontrjagin", "--ring", "@ring", "--bundle", "@bundle",
         "--i", "2", "--n", "4", "--p", "4"],
        ["--i", "--n", "--p"],
    ),
    "wtable": (["wtable", "--p", "8", "--ring", "@ring", "--bundle", "@bundle"], ["--p"]),
    "criteria": (["criteria", "w", "--n", "8", "--p", "8", "--i", "3", "--l", "1", "--k", "18"],
                 ["--n", "--p", "--i", "--l"]),
    "verdict": (
        ["verdict", "--ring", "@ring", "--bundle", "@bundle", "--i", "2", "--l", "0", "--k", "20",
         "--target-dim", "4"],
        ["--i", "--l", "--target-dim"],
    ),
    "next-index": (["filtration", "next-index", "--l", "0"], ["--l"]),
}
SPELLINGS = [" 7", "1_0", "+7", "٣"]


@pytest.mark.parametrize("spelling", SPELLINGS)
@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, (_, options) in INTEGER_OPTIONS.items() for option in options],
)
def test_integer_options_refuse_other_spellings(capsys, ring_file, bundle_file, command, option, spelling):
    files = {"@ring": str(ring_file), "@bundle": str(bundle_file)}
    argv = [files.get(a, a) for a in INTEGER_OPTIONS[command][0]]
    status, out, err = run_cli(capsys, *argv)
    assert status == 0, err
    argv[argv.index(option) + 1] = spelling
    status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert out == ""
    assert f"argument {option}: invalid parse_integer value: {spelling!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["codim", "--symbol", " 1_0,٣", "--n", "20", "--p", "20", "--k", " 1_0"], "argument --symbol"),
        (["codim", "--symbol", "1", "--n", " 7", "--p", "7"], "argument --n"),
        (["codim", "--symbol", "2,+1", "--n", "3", "--p", "3"], "argument --symbol"),
        (["codim", "--symbol", "1", "--n", "3", "--p", "3", "--k", " 1_0"], "' 1_0'"),
        (["criteria", "nonstable", "--n", "4", "--p", "4", "--i", "3", "--k", "+5"], "'+5'"),
        (["criteria", "nonstable", "--n", "4", "--p", "4", "--i", "3", "--k", "0"],
         "jet order must be a positive integer or inf"),
    ],
)
def test_rejected_spellings_exit_2_naming_the_option(capsys, argv, named):
    status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert out == ""
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, expected",
    [([], 2), (["--help"], 0), (["codim", "--help"], 0), (["nonsense"], 2), (["codim"], 2),
     (["filtration"], 2), (["criteria", "w", "--n", "1"], 2)],
)
def test_main_returns_the_exit_status(argv, expected):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == expected


def test_porteous_past_the_matrix_cap_exits_2_at_once(capsys, ring_file, bundle_file):
    start = time.perf_counter()
    status, out, err = run_cli(
        capsys,
        "porteous", "--variant", "pontrjagin",
        "--ring", str(ring_file), "--bundle", str(bundle_file),
        "--i", "200000", "--n", "4", "--p", "4",
    )
    assert time.perf_counter() - start < 1.0
    assert status == 2
    assert out == ""
    assert err.startswith("CharClassError") and f"MAX_MATRIX_SIZE = {charclass.MAX_MATRIX_SIZE}" in err


def _stage_run_document(depth):
    # Every stage on the 9-label ring of dimension 32 (stage index 2 for
    # budgets 0..depth+1), so the product ring has 9^(depth+1) labels.
    ring_spec = {
        "mode": "integer_mod_torsion",
        "topDim": 32,
        "basis": [{"label": "1", "degree": 0}] + [{"label": f"t{j}", "degree": 4 * j} for j in range(1, 9)],
        "products": [
            {"a": f"t{a}", "b": f"t{b}", "result": [{"label": f"t{a + b}", "coeff": 1}]}
            for a in range(1, 8)
            for b in range(a, 8)
            if a + b <= 8
        ],
        "fundamental": "t8",
    }
    bundle = {
        "totalPositive": [{"label": label, "coeff": 1} for label in ("1", "t1", "t2")],
        "totalNegativePulled": [{"label": "1", "coeff": 1}],
    }
    return {"d": depth, "schedule": list(range(depth + 2)), "stages": [{"ring": ring_spec, "bundle": bundle}] * (depth + 1)}


def test_filtration_run_past_the_product_cap_exits_2_at_once(capsys, tmp_path):
    spec_path = tmp_path / "run.json"
    write_json(spec_path, _stage_run_document(5))
    start = time.perf_counter()
    status, out, err = run_cli(capsys, "filtration", "run", "--spec", str(spec_path))
    assert time.perf_counter() - start < 1.0
    assert status == 2
    assert out == ""
    assert err == (
        "PresentationError: tensor product basis of 531441 labels exceeds the cap "
        "MAX_PRODUCT_BASIS = 100000\n"
    )


def test_filtration_run_with_colliding_tensor_labels_exits_2(capsys, tmp_path):
    # With t2 relabelled "t1⊗t1", the tensors t1⊗t1 ⊗ t1 and t1 ⊗ t1⊗t1 of a
    # depth-1 run share a label; a depth-0 run joins no labels.
    def run(depth):
        spec_path = tmp_path / f"run{depth}.json"
        write_json(spec_path, json.loads(json.dumps(_stage_run_document(depth)).replace('"t2"', '"t1⊗t1"')))
        return run_cli(capsys, "filtration", "run", "--spec", str(spec_path))

    assert run(1) == (
        2,
        "",
        "PresentationError: tensor basis label 't1⊗t1⊗t1' names two tensors: "
        "factor labels contain TENSOR_SEPARATOR = '⊗'\n",
    )
    status, out, err = run(0)
    assert (status, err) == (0, "")
    assert parse_report(out)["verdict"] == "RunVerified"


def test_porteous_on_a_ring_past_the_triple_cap_exits_2(capsys, tmp_path, bundle_file):
    # 400 degree-1 labels under a degree-3 fundamental class and no products:
    # 10,746,800 bounded triples, several seconds to walk them all.  The
    # associativity check stops once it would pass the cap of a million.
    basis = [{"label": "1", "degree": 0}, *({"label": f"e{j}", "degree": 1} for j in range(400))]
    ring_path = tmp_path / "wide.json"
    write_json(ring_path, {"mode": "mod2", "topDim": 3, "basis": [*basis, {"label": "top", "degree": 3}], "fundamental": "top"})
    bundle_path = tmp_path / "unit.json"
    write_json(bundle_path, {"totalPositive": [{"label": "1", "coeff": 1}], "totalNegativePulled": [{"label": "1", "coeff": 1}]})
    start = time.perf_counter()
    status, out, err = run_cli(
        capsys,
        "porteous", "--variant", "sw",
        "--ring", str(ring_path), "--bundle", str(bundle_path),
        "--i", "1", "--n", "3", "--p", "3",
    )
    assert time.perf_counter() - start < 3.0
    assert status == 2
    assert out == ""
    assert err == "PresentationError: associativity check exceeds the cap MAX_ASSOC_TRIPLES = 1000000 triples\n"


@pytest.mark.parametrize("dim, citation", [(8, "self-map-table-dimension-8"), (6, "self-map-table-vanishing-5-7")])
def test_verdict_on_the_table_route_cites_the_table(capsys, tmp_path, dim, citation):
    # Odd dimensions carry no integer fundamental class, so 6 stands for 5..7.
    basis = [{"label": "1", "degree": 0}, {"label": "a", "degree": 4}, {"label": "top", "degree": dim}]
    ring = {"mode": "integer_mod_torsion", "topDim": dim, "basis": basis, "fundamental": "top"}
    write_json(tmp_path / "ring.json", ring)
    write_json(
        tmp_path / "bundle.json",
        {"totalPositive": [{"label": "1", "coeff": 1}, {"label": "a", "coeff": 1}],
         "totalNegativePulled": [{"label": "1", "coeff": 1}]},
    )
    status, out, _ = run_cli(
        capsys,
        "verdict", "--ring", str(tmp_path / "ring.json"), "--bundle", str(tmp_path / "bundle.json"),
        "--i", "2", "--l", str(dim - 1), "--k", "20", "--target-dim", str(dim),
    )
    assert status == 0
    report = parse_report(out)
    assert report["intermediates"]["route"] == "wtable"
    assert report["citations"] == ["nonexistence-from-nonvanishing-obstruction", citation]
    assert report["intermediates"]["obstruction"]["variant"] == "wtable"


def test_verdict_without_an_orientation_reports_no_obstruction(capsys, tmp_path, bundle_file):
    write_json(tmp_path / "ring.json", {**FOUR_MANIFOLD_SPEC, "orientable": False})
    status, out, _ = run_cli(
        capsys,
        "verdict", "--ring", str(tmp_path / "ring.json"), "--bundle", str(bundle_file),
        "--i", "2", "--l", "0", "--k", "20", "--target-dim", "4",
    )
    assert status == 0
    report = parse_report(out)
    assert report["verdict"] == "Inconclusive"
    assert report["intermediates"]["route"] == "pontrjagin"
    assert report["intermediates"]["obstruction"] is None
    assert any("orientation" in note for note in report["intermediates"]["notes"])


def test_missing_input_file_exits_2(capsys, bundle_file):
    status, _, err = run_cli(
        capsys,
        "porteous", "--variant", "sw",
        "--ring", "/nonexistent/ring.json", "--bundle", str(bundle_file),
        "--i", "1", "--n", "3", "--p", "3",
    )
    assert status == 2
    assert err


def test_malformed_ring_exits_2_naming_invariant(capsys, tmp_path, bundle_file):
    bad = dict(FOUR_MANIFOLD_SPEC)
    bad["basis"] = [{"label": "1", "degree": 0}, {"label": "x", "degree": 2}]
    bad["fundamental"] = "x"
    path = tmp_path / "bad.json"
    write_json(path, bad)
    status, _, err = run_cli(
        capsys,
        "porteous", "--variant", "pontrjagin",
        "--ring", str(path), "--bundle", str(bundle_file),
        "--i", "2", "--n", "4", "--p", "4",
    )
    assert status == 2
    assert "MissingFundamental" in err or "PresentationError" in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("orientable", "no"),
        ("basis", 5),
        ("products", 5),
        ("result", 5),
    ],
)
def test_ill_typed_ring_field_exits_2_naming_it(capsys, tmp_path, bundle_file, field, value):
    bad = dict(FOUR_MANIFOLD_SPEC)
    if field == "result":
        bad["products"] = [{"a": "x", "b": "x", "result": value}]
    else:
        bad[field] = value
    path = tmp_path / "bad.json"
    write_json(path, bad)
    status, out, err = run_cli(
        capsys,
        "porteous", "--variant", "pontrjagin",
        "--ring", str(path), "--bundle", str(bundle_file),
        "--i", "2", "--n", "4", "--p", "4",
    )
    assert status == 2
    assert out == ""
    assert err.startswith("PresentationError") and repr(field) in err
    assert "Traceback" not in err


# Valid porteous inputs to corrupt: the ring and bundle documents, then the
# command's options.
PORTEOUS_CASES = {
    "four": (
        {
            "ring": FOUR_MANIFOLD_SPEC,
            "bundle": {
                "totalPositive": [{"label": "1", "coeff": 1}, {"label": "x2", "coeff": 3}],
                "totalNegativePulled": [{"label": "1", "coeff": 1}],
            },
        },
        ["--variant", "pontrjagin", "--i", "2", "--n", "4", "--p", "4"],
    ),
    "line": (
        {
            "ring": {
                "mode": "mod2",
                "topDim": 1,
                "basis": [{"label": "1", "degree": 0}, {"label": "w", "degree": 1}],
                "products": [],
                "fundamental": "w",
            },
            "bundle": {
                "totalPositive": [{"label": "1", "coeff": 1}, {"label": "w", "coeff": 1}],
                "totalNegativePulled": [{"label": "1", "coeff": 1}],
            },
        },
        ["--variant", "sw", "--i", "1", "--n", "1", "--p", "1"],
    ),
}


def _replaced(document, path, value):
    document = copy.deepcopy(document)
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return document


@pytest.mark.parametrize(
    "base, path, value, named",
    [
        ("line", ["ring", "basis", 1, "degree"], True, "degree"),
        ("line", ["ring", "topDim"], True, "top dimension"),
        ("four", ["ring", "products", 0, "result", 0, "coeff"], True, "coefficient"),
        ("four", ["ring", "products", 0, "a"], ["x"], "'a'"),
        ("four", ["ring", "products", 0, "b"], {"x": 1}, "'b'"),
        ("four", ["ring", "products", 0, "result", 0, "label"], ["x2"], "'label'"),
        ("four", ["ring", "fundamental"], ["x2"], "fundamental"),
        ("four", ["bundle", "totalPositive", 1, "coeff"], True, "coefficient"),
        ("four", ["bundle", "totalPositive", 1, "label"], ["x2"], "label"),
        ("four", ["bundle", "totalPositive"], 5, "element"),
        ("four", ["bundle", "totalNegativePulled", 0], "1", "element entries"),
        ("run", ["d"], True, "depth"),
        ("run", ["schedule", 0], True, "budgets"),
        ("run", ["schedule"], 5, "'schedule'"),
        ("run", ["stages"], None, "'stages'"),
        ("four", ["bundle", "totalPositive", 1, "label"], "q", "PresentationError: unknown basis label 'q'"),
        ("four", ["bundle", "totalPositive", 1, "label"], "1", "PresentationError: duplicate label '1' in element"),
        ("run", ["d"], 0, "FiltrationError: expected 1 stage bundles for depth 0, got 2"),
        ("run", ["stages"], DEPTH2_RUN["stages"][:1], "FiltrationError: expected 2 stage bundles for depth 1, got 1"),
        ("run", ["stages", 0, "ring", "mode"], "mod2", "ModeMismatch: stage 0 ring must use integer coefficients"),
    ],
)
def test_ill_typed_json_value_exits_2_naming_it(capsys, tmp_path, base, path, value, named):
    if base == "run":
        # A valid depth-1 run document: the first two stages of the depth-2 one.
        document = {"d": 1, "schedule": DEPTH2_RUN["schedule"][:3], "stages": DEPTH2_RUN["stages"][:2]}
        write_json(tmp_path / "run.json", _replaced(document, path, value))
        argv = ["filtration", "run", "--spec", str(tmp_path / "run.json")]
    else:
        documents, options = PORTEOUS_CASES[base]
        documents = _replaced(documents, path, value)
        for name in ("ring", "bundle"):
            write_json(tmp_path / f"{name}.json", documents[name])
        argv = [
            "porteous", *options,
            "--ring", str(tmp_path / "ring.json"), "--bundle", str(tmp_path / "bundle.json"),
        ]
    status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert out == ""
    assert named in err
    assert "Traceback" not in err


def test_deeply_nested_json_exits_2_naming_the_limit(capsys, tmp_path, bundle_file):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    status, out, err = run_cli(
        capsys,
        "porteous", "--variant", "pontrjagin",
        "--ring", str(path), "--bundle", str(bundle_file),
        "--i", "2", "--n", "4", "--p", "4",
    )
    assert status == 2
    assert out == ""
    assert err.startswith("PresentationError") and "nests deeper" in err


@pytest.mark.parametrize(
    "name, text",
    [
        ("ring", '{"mode": "integer_mod_torsion", "topDim": ' + "4" * 5000 + "}"),
        ("bundle", '{"totalPositive": [{"label": "1", "coeff": ' + "3" * 5000 + '}], "totalNegativePulled": []}'),
    ],
    ids=["ring", "bundle"],
)
def test_overlong_integer_literal_exits_2_naming_the_file(capsys, tmp_path, ring_file, bundle_file, name, text):
    # json.load refuses an integer literal past the interpreter's
    # integer-to-string limit with a bare ValueError; the file it is in must
    # be named, since both documents are read.
    path = tmp_path / f"long-{name}.json"
    path.write_text(text, encoding="utf-8")
    files = {"ring": str(ring_file), "bundle": str(bundle_file), name: str(path)}
    status, out, err = run_cli(
        capsys,
        "porteous", "--variant", "pontrjagin",
        "--ring", files["ring"], "--bundle", files["bundle"],
        "--i", "2", "--n", "4", "--p", "4",
    )
    assert (status, out) == (2, "")
    assert err.startswith(f"PresentationError: {path}: Exceeds the limit") and err.count("\n") == 1


def test_repeated_json_key_exits_2_naming_file_and_key(capsys, tmp_path, ring_file):
    path = tmp_path / "bundle.json"
    # json.load alone would keep only the second total; the first must not vanish silently.
    path.write_text(
        '{"totalPositive": [{"label": "1", "coeff": 1}, {"label": "x2", "coeff": 3}],'
        ' "totalPositive": [{"label": "1", "coeff": 1}],'
        ' "totalNegativePulled": [{"label": "1", "coeff": 1}]}',
        encoding="utf-8",
    )
    status, out, err = run_cli(
        capsys,
        "porteous", "--variant", "pontrjagin",
        "--ring", str(ring_file), "--bundle", str(path),
        "--i", "2", "--n", "4", "--p", "4",
    )
    assert status == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"PresentationError: {path}: repeated key 'totalPositive'")


@pytest.mark.parametrize("content", [b"{", b"\xff"], ids=["not-json", "not-utf-8"])
@pytest.mark.parametrize("option", ["--ring", "--bundle", "--spec"])
def test_undecodable_input_file_exits_2_naming_it(capsys, tmp_path, ring_file, bundle_file, option, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    if option == "--spec":
        argv = ["filtration", "run", "--spec", str(path)]
    else:
        files = {"--ring": str(ring_file), "--bundle": str(bundle_file), option: str(path)}
        argv = ["porteous", "--variant", "pontrjagin", "--ring", files["--ring"], "--bundle", files["--bundle"],
                "--i", "2", "--n", "4", "--p", "4"]
    status, out, err = run_cli(capsys, *argv)
    assert (status, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith(f"PresentationError: {path}: ")


def test_porteous_sw_command(capsys, tmp_path):
    ring_spec = {
        "mode": "mod2",
        "topDim": 4,
        "basis": [{"label": "1", "degree": 0}]
        + [{"label": f"w{j}", "degree": j} for j in range(1, 5)],
        "products": [
            {"a": f"w{a}", "b": f"w{b}", "result": [{"label": f"w{a + b}", "coeff": 1}]}
            for a in range(1, 4)
            for b in range(a, 4)
            if a + b <= 4
        ],
        "fundamental": "w4",
    }
    ring_path = tmp_path / "m2.json"
    write_json(ring_path, ring_spec)
    bundle_path = tmp_path / "bm2.json"
    write_json(
        bundle_path,
        {
            "totalPositive": [{"label": "1", "coeff": 1}, {"label": "w2", "coeff": 1}],
            "totalNegativePulled": [{"label": "1", "coeff": 1}],
        },
    )
    status, out, _ = run_cli(
        capsys,
        "porteous", "--variant", "sw",
        "--ring", str(ring_path), "--bundle", str(bundle_path),
        "--i", "2", "--n", "4", "--p", "4",
    )
    assert status == 0
    report = parse_report(out)
    # det [[W2, W1], [W3, W2]] with only W2 nonzero is W2^2 = w4
    assert report["verdict"] == "Nonzero"
    assert report["intermediates"]["obstruction"]["components"] == [
        {"label": "w4", "coeff": 1}
    ]


def test_selfcheck_passes(capsys):
    status, out, _ = run_cli(capsys, "selfcheck")
    assert status == 0
    assert "failed 0" in out


def test_selfcheck_failure_exits_1(capsys, monkeypatch):
    from jetstrata import selfcheck as selfcheck_module

    def failing():
        return [selfcheck_module.CheckResult("synthetic-failure", False, "induced")]

    monkeypatch.setattr(selfcheck_module, "run_selfcheck", failing)
    status, out, _ = run_cli(capsys, "selfcheck")
    assert status == 1
    assert "FAIL synthetic-failure" in out


@pytest.mark.parametrize(
    "module, name, error, failing",
    [
        (gring, "invert_total_class", gring.NotAUnit, "total-class-inverse-involution"),
        (filtration, "next_index", symbols.ConsistencyError, "stage-index-recursion"),
    ],
)
def test_selfcheck_reports_a_raising_check_as_a_failure(capsys, monkeypatch, module, name, error, failing):
    def raising(*args):
        raise error("induced")

    monkeypatch.setattr(module, name, raising)
    status, out, err = run_cli(capsys, "selfcheck")
    assert status == 1
    assert err == ""
    lines = out.splitlines()
    assert f"FAIL {failing}: {error.__name__}: induced" in lines
    assert sum(line.startswith("ok ") for line in lines) == 6
    assert lines[-1] == "passed 6 failed 1"


def test_selfcheck_detects_corrupted_fixture():
    corrupted = {
        "mode": "integer_mod_torsion",
        "topDim": 4,
        "basis": [
            {"label": "1", "degree": 0},
            {"label": "x", "degree": 2},
            {"label": "x2", "degree": 4},
        ],
        # generator square redirected to the wrong degree
        "products": [{"a": "x", "b": "x", "result": [{"label": "x", "coeff": 1}]}],
        "fundamental": "x2",
    }
    with pytest.raises(gring.PresentationError):
        check_ring_fixture(corrupted)

    weaker = dict(corrupted)
    weaker["products"] = [{"a": "x", "b": "x", "result": [{"label": "x2", "coeff": 2}]}]
    assert "pairing" in check_ring_fixture(weaker)


def test_determinant_oracle_check_runs():
    assert check_determinant_oracle() is None


def fresh_python(code, *argv):
    """Run ``code`` with ``argv`` in a fresh interpreter that imports this
    checkout's jetstrata; its completed process, which must exit 0."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # In a fresh interpreter: the modules the import adds, whatever the
    # interpreter's own start-up already loaded.
    code = (
        "import sys; before = set(sys.modules); import jetstrata.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    assert fresh_python(code).stdout == "[]\n"


def test_main_leaves_the_cyclic_collector_as_it_found_it(capsys, ring_file, bundle_file):
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv in (
                ["porteous", "--variant", "pontrjagin", "--ring", str(ring_file), "--bundle", str(bundle_file),
                 "--i", "2", "--n", "4", "--p", "4"],
                ["porteous", "--variant", "sw", "--ring", str(ring_file), "--bundle", str(bundle_file),
                 "--i", "2", "--n", "4", "--p", "4"],  # exits 2: the ring is not mod 2
                ["codim", "--symbol", "2,1,0", "--n", "3"],  # exits 2 in argparse
            ):
                run_cli(capsys, *argv)
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_entry_runs_the_command_with_the_cyclic_collector_off():
    code = (
        "import gc, sys; from jetstrata import cli; "
        "codim = cli._run_codim; "
        "cli._run_codim = lambda args: (print('collector', gc.isenabled(), file=sys.stderr), codim(args))[1]; "
        "print('before', gc.isenabled(), file=sys.stderr); cli.entry()"
    )
    done = fresh_python(code, "codim", "--symbol", "2,1,0", "--n", "3", "--p", "3")
    assert done.stderr == "before True\ncollector False\n"
    assert json.loads(done.stdout)["intermediates"]["bound"] == 5


def test_the_cyclic_garbage_of_a_command_does_not_grow_with_its_ring(tmp_path):
    # With the collector off, gc.collect() after one porteous command counts
    # the unreachable cycles it left.  The count differs between
    # interpreters, so an 8-label and a 515-label ring are compared.
    code = (
        "import gc, sys; from jetstrata import cli; gc.disable(); gc.collect(); "
        "status = cli.main(sys.argv[1:]); print(status, gc.collect())"
    )
    counts = []
    for name, ring, dim in [
        ("small", tensor.truncated_polynomial_ring("mod2", 7, [("w", 1)]), 7),
        ("session", tensor.truncated_polynomial_ring("mod2", 18, [("a", 1), ("b", 2), ("c", 3), ("d", 4)],
                                                     fundamental="a^18"), 18),
    ]:
        ring_path, bundle_path = tmp_path / f"{name}-ring.json", tmp_path / f"{name}-bundle.json"
        write_json(ring_path, ring.serialize())
        write_json(bundle_path, {"totalPositive": [{"label": "1", "coeff": 1}, {"label": ring.labels[1], "coeff": 1}],
                                 "totalNegativePulled": [{"label": "1", "coeff": 1}]})
        argv = ["porteous", "--variant", "sw", "--ring", str(ring_path), "--bundle", str(bundle_path),
                "--i", "2", "--n", str(dim), "--p", str(dim), "--out", str(tmp_path / "report.json")]
        status, count = fresh_python(code, *argv).stdout.split()
        assert (len(ring.labels), status) == ({"small": 8, "session": 515}[name], "0")
        counts.append(int(count))
    assert counts[0] == counts[1]
