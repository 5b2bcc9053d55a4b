"""The report emitter.

Its bytes are exactly ``json.dumps(report, indent=2, sort_keys=True,
ensure_ascii=False) + "\\n"`` for any JSON value, with or without echoed
rings, however many pieces an echoed ring's products take.  The text is
written piece by piece and never joined whole, but only once every piece
encodes: a report that cannot be encoded writes nothing, not even an empty
``--out`` file, and fails as the one-shot text would, naming the same
position.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from jetstrata import cli, gring, tensor

from test_check_oracles import SHAPES, twisted_rings
from test_cli import run_cli, write_json


def emitted(value) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(value, None)
    return out.getvalue()


def indented(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False, default=gring.ManifoldRing.serialize) + "\n"


# Brackets, quotes, backslashes and the escapes they form, control
# characters, line separators the encoding leaves raw, a lone surrogate and
# a character outside the BMP, among any others.
_CHARS = st.sampled_from(list('[]{}"\\,: \n\t\x00\x1f\x7f\u2028\u2029\ud800\U0001f600é')) | st.characters()
_TEXT = st.text(_CHARS, max_size=8) | st.sampled_from(['\\"', '"[', "]\\", "[]", "{}", '\\\\"'])
_SCALARS = st.none() | st.booleans() | st.integers() | st.integers(-(10**60), 10**60) | st.floats() | _TEXT
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


def _nest(value_and_keys):
    # A key nests the value in a one-entry object, None in a one-item list.
    value, keys = value_and_keys
    for key in keys:
        value = [value] if key is None else {key: value}
    return value


_DEEP = st.tuples(_JSON, st.lists(st.none() | _TEXT, min_size=50, max_size=80)).map(_nest)


# A one-label ring, echoed beside the other values of a report.
_POINT = gring.ManifoldRing("mod2", 0, [("1", 0)])


def _padded(value, size):
    # ``value`` beside a string of ``size`` characters that the encoder
    # escapes or that look like its layout.
    return [value, ('"\\\n[]{},: ' * size)[:size]]


@pytest.mark.parametrize("size", [1, 7, 1 << 16])
@settings(max_examples=60)
@given(value=_JSON | _DEEP)
def test_emitter_matches_indented_json_dumps(size, value):
    # Alone, and one level down beside an echo, so that its text is re-based
    # to that depth, next to a string from one character to past 64K.
    assert emitted(value) == indented(value)
    padded = _padded(value, size)
    assert emitted({"ring": _POINT, "value": padded}) == indented(
        {"ring": _POINT.serialize(), "value": padded}
    )


@pytest.mark.parametrize("at", [1000, 1 << 16])
def test_unencodable_report_fails_as_the_one_shot_text(capsys, tmp_path, at):
    # A lone surrogate is a legal JSON label but cannot be written as UTF-8;
    # it ends a label of the echoed ring, which is written from the ring's
    # table, ``at`` characters into the label and so past ``at`` in the report.
    spec = tensor.truncated_polynomial_ring("mod2", 8, [("w", 1)]).serialize()
    ring_path, bundle_path = tmp_path / "ring.json", tmp_path / "bundle.json"
    write_json(ring_path, json.loads(json.dumps(spec).replace('"w^4"', json.dumps("w" * at + "\ud800"))))
    write_json(bundle_path, {"totalPositive": [{"label": "1", "coeff": 1}], "totalNegativePulled": [{"label": "1", "coeff": 1}]})
    argv = ["porteous", "--variant", "sw", "--ring", str(ring_path), "--bundle", str(bundle_path),
            "--i", "1", "--n", "3", "--p", "3"]
    args = cli._build_parser().parse_args(argv)
    report = args.handler(args)
    assert indented(report).index("\ud800") > at
    with pytest.raises(UnicodeEncodeError) as raised:
        indented(report).encode("utf-8")
    assert run_cli(capsys, *argv) == (2, "", f"UnicodeEncodeError: {raised.value}\n")


def products_ring(count):
    """A mod-2 ring with ``count`` nonzero products: the first ``count``
    pairs of degree-1 labels each multiply to the top label."""
    size = next(m for m in range(count + 1) if m * (m + 1) // 2 >= count)
    labels = [f"x{n}" for n in range(size)]
    pairs = [(a, b) for n, a in enumerate(labels) for b in labels[n:]][:count]
    basis = [("1", 0), *((label, 1) for label in labels), ("t", 2)]
    return gring.ManifoldRing("mod2", 2, basis, {pair: {"t": 1} for pair in pairs})


@pytest.mark.parametrize("count", [cli._CHUNK_ENTRIES, cli._CHUNK_ENTRIES + 1])
def test_products_of_one_chunk_and_one_entry_past_it_match_indented_json_dumps(count):
    ring = products_ring(count)
    assert len(ring.serialize()["products"]) == count
    # Twice, so that the text after a chunked ring is checked too.
    report = {"first": ring, "second": [ring, "end"]}
    assert emitted(report) == indented(report)


@pytest.mark.parametrize("to_file", [False, True])
def test_a_report_unencodable_past_the_first_chunk_writes_nothing(capsys, tmp_path, to_file):
    # A depth-1 run whose first stage ring has two chunks of products, and
    # whose second stage ring has a label ending in a lone surrogate: the
    # report's text fails to encode only past the first ring's first chunk.
    run = json.loads((Path(__file__).parent / "data" / "filtration_depth2_run.json").read_text(encoding="utf-8"))
    first = tensor.truncated_polynomial_ring("integer_mod_torsion", 32, [("x", 8), ("a", 4), ("b", 4)], fundamental="x^4")
    second = json.loads(json.dumps(run["stages"][1]["ring"]).replace('"x^3"', json.dumps("x^3\ud800")))
    write_json(tmp_path / "run.json", {"d": 1, "schedule": run["schedule"][:3], "stages": [
        {"ring": first.serialize(), "bundle": run["stages"][0]["bundle"]},
        {"ring": second, "bundle": run["stages"][1]["bundle"]},
    ]})
    argv = ["filtration", "run", "--spec", str(tmp_path / "run.json")]
    args = cli._build_parser().parse_args(argv)
    report = args.handler(args)
    pieces = []
    cli._encode(report, 0, ["\n"], pieces, gring.ManifoldRing)
    unencodable = next(n for n, piece in enumerate(pieces) if "\ud800" in piece)
    assert [piece.count('"a": ') for piece in pieces[:unencodable]].count(cli._CHUNK_ENTRIES) == 1
    with pytest.raises(UnicodeEncodeError) as raised:
        indented(report).encode("utf-8")
    out_path = tmp_path / "report.json"
    out = ["--out", str(out_path)] if to_file else []
    assert run_cli(capsys, *argv, *out) == (2, "", f"UnicodeEncodeError: {raised.value}\n")
    assert not out_path.exists()


def test_unprintable_report_creates_no_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    status, out, err = run_cli(
        capsys, "criteria", "w", "--n", "5", "--p", "5", "--i", str(10**1500), "--k", "inf", "--out", str(out_path)
    )
    assert (status, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"ValueError: report integer has more than {limit} digits, the limit for printing an integer\n"
    assert not out_path.exists()


@st.composite
def echoed_rings(draw):
    """A twisted ring of the oracle tests, relabelled from ``_TEXT``; its top
    degree is drawn too, so that some rings have one label or no product."""
    mode = draw(st.sampled_from(sorted(SHAPES)))
    step = 1 if mode == "mod2" else 2  # a degree that carries a label
    top = draw(st.sampled_from(range(0, SHAPES[mode][1] + 1, step)))
    twisted = draw(twisted_rings(mode, 1 if mode == "mod2" else draw(st.sampled_from([1, 2, 3])), top))
    labels = draw(st.lists(_TEXT.filter(bool), min_size=len(twisted.labels), max_size=len(twisted.labels), unique=True))
    name = dict(zip(twisted.labels, labels))
    products = {
        (name[a], name[b]): {name[t]: c for t, c in result.items()} for (a, b), result in twisted.products().items()
    }
    return gring.ManifoldRing(
        mode, twisted.top, [(name[l], d) for l, d in twisted.basis()], products, name[twisted.fundamental()],
        orientable=draw(st.booleans()),
    )


def _report(ring_value, stage_values, value):
    return {
        "command": "filtration",
        "inputs": {"ring": ring_value, "k": value, "stages": [{"bundle": value, "ring": r} for r in stage_values]},
        "intermediates": value,
    }


@pytest.mark.parametrize("size", [1, 7, 1 << 16])
@settings(max_examples=40)
@given(ring=echoed_rings(), stages=st.lists(echoed_rings(), max_size=2), value=_JSON)
def test_ring_echo_matches_indented_json_dumps(size, ring, stages, value):
    # Echoes at two depths, among other values beside a string of ``size``
    # characters, against the report holding each ring's document.
    value = _padded(value, size)
    report = _report(ring, stages, value)
    expected = indented(_report(ring.serialize(), [r.serialize() for r in stages], value))
    assert emitted(report) == expected
    assert indented(report) == expected


def test_ring_echo_covers_one_label_and_empty_products():
    point = gring.ManifoldRing("mod2", 0, [("{\\", 0)])
    line = gring.ManifoldRing("mod2", 1, [("1", 0), ("]", 1)])
    for ring in (point, line):
        assert ring.serialize()["products"] == []
        assert emitted({"ring": ring}) == indented({"ring": ring.serialize()})
