"""The report emitter.

Its bytes are exactly ``json.dumps(report, indent=2, sort_keys=True,
ensure_ascii=False) + "\\n"`` for any JSON value, with or without echoed
rings, and a report that cannot be written fails as that one-shot text
would: in one write, naming the same position, writing nothing.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from jetstrata import cli, gring

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
    spec = gring.truncated_polynomial_ring("mod2", 8, [("w", 1)]).serialize()
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
