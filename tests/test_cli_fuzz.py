"""The exit-code contract under arbitrary input documents.

Valid ring, bundle and run documents from ``test_cli`` get one subtree
replaced by an arbitrary JSON value, and each command must either compute a
report (exit 0) or name a violated invariant (exit 2): never a traceback,
never output that is not JSON, and never unbounded time.
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
