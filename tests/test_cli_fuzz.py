"""The exit-code contract under arbitrary input documents and options.

Valid ring, bundle and run documents from ``test_cli`` get one subtree
replaced by an arbitrary JSON value, and the commands that read only options
get arbitrary integers, malformed symbol and jet-order strings and
unwritable report paths.  Each command must either compute a report (exit 0)
or name a violated invariant (exit 2): never a traceback, never output that
is not JSON, and never unbounded time.
"""

import contextlib
import io
import json
import time

from hypothesis import event, given, settings, strategies as st

from jetstrata import cli

from test_cli import DATA, PORTEOUS_CASES, _replaced

# Generous next to the few milliseconds a valid example takes.
EXAMPLE_SECONDS = 5.0

_documents, _ = PORTEOUS_CASES["four"]
_depth2 = json.loads((DATA / "filtration_depth2_run.json").read_text(encoding="utf-8"))
# (input documents, argv with @name for the path of input document name)
COMMANDS = {
    "porteous": (
        _documents,
        ["porteous", "--variant", "pontrjagin", "--i", "2", "--n", "4", "--p", "4",
         "--ring", "@ring", "--bundle", "@bundle"],
    ),
    "wtable": (_documents, ["wtable", "--p", "8", "--ring", "@ring", "--bundle", "@bundle"]),
    "verdict": (
        _documents,
        ["verdict", "--i", "2", "--l", "0", "--k", "20", "--target-dim", "4",
         "--ring", "@ring", "--bundle", "@bundle"],
    ),
    "filtration run": (
        {"run": {"d": 1, "schedule": _depth2["schedule"][:3], "stages": _depth2["stages"][:2]}},
        ["filtration", "run", "--spec", "@run"],
    ),
}

# Keys the documents use, so that replaced objects often look almost right.
_KEYS = st.sampled_from(
    ["mode", "topDim", "basis", "products", "fundamental", "orientable", "label", "degree",
     "a", "b", "result", "coeff", "totalPositive", "totalNegativePulled", "d", "schedule",
     "stages", "ring", "bundle"]
) | st.text(max_size=3)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "1", "x", "x2", "mod2", "integer_mod_torsion"])
    | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(_KEYS, children, max_size=3),
    max_leaves=8,
)


def _subtree_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _subtree_paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _subtree_paths(child, prefix + (index,))


@settings(max_examples=200)
@given(st.data())
def test_mutated_documents_exit_0_or_2_with_a_json_report(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    documents, argv = COMMANDS[command]
    # Every subtree but the root, which only groups the documents.
    paths = list(_subtree_paths(documents))[1:]
    path = data.draw(st.sampled_from(paths), label="path")
    documents = _replaced(documents, path, data.draw(JSON_VALUES, label="value"))
    directory = tmp_path_factory.mktemp("fuzz")
    for name, document in documents.items():
        (directory / f"{name}.json").write_text(json.dumps(document), encoding="utf-8")
    argv = [str(directory / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]

    _assert_contract(command, argv)


def _assert_contract(command, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    elapsed = time.perf_counter() - start
    event(f"{command} exit {status}")

    assert status in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue())
    assert elapsed < EXAMPLE_SECONDS


# Integers across a wide signed range: small ones, the edges, and values from
# 10^4 up to far past any dimension the arithmetic could enumerate.
INTEGERS = (
    st.integers(1, 12)
    | st.integers(-5, 40)
    | st.sampled_from([0, -1, 10**4, 10**6, 10**12, -(10**12)])
    | st.integers(-(10**40), 10**40)
    | st.integers(10**4, 10**400)
)
_TEXT = st.text(alphabet="0123456789,-+ _.einfx", max_size=12)
SYMBOLS = st.lists(st.integers(-2, 12), min_size=1, max_size=5).map(lambda es: ",".join(map(str, es))) | _TEXT
ORDERS = st.sampled_from(["inf", "Inf", "", "0", "-3", "1e3", "2.5", "1_0", " 7"]) | INTEGERS.map(str) | _TEXT
UNWRITABLE = "/nonexistent/dir/report.json"


def _option(name, value):
    # "--n=-5" keeps a negative value from reading as an option.
    return f"--{name}={value}"


@st.composite
def option_commands(draw):
    command = draw(st.sampled_from(["codim", "criteria nonstable", "criteria w", "criteria stabilized",
                                    "filtration next-index"]))
    if command == "codim":
        argv = ["codim", _option("symbol", draw(SYMBOLS)), _option("n", draw(INTEGERS)),
                _option("p", draw(INTEGERS))]
        if draw(st.booleans()):
            argv.append(_option("k", draw(ORDERS)))
    elif command.startswith("criteria"):
        argv = [*command.split(), *(_option(name, draw(INTEGERS)) for name in ("n", "p", "i")),
                _option("k", draw(ORDERS))]
        if command != "criteria nonstable":
            argv.append(_option("l", draw(INTEGERS)))
    else:
        argv = ["filtration", "next-index", _option("l", draw(INTEGERS))]
    if draw(st.integers(0, 3)) == 0:
        argv.append(_option("out", UNWRITABLE))
    return command, argv


@settings(max_examples=300)
@given(option_commands())
def test_option_commands_exit_0_or_2_with_a_json_report(drawn):
    command, argv = drawn
    _assert_contract(command, argv)
