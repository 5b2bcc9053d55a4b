"""Replay the benchmark's workload commands and print a digest of each.

    python3 tools/replay.py SRC

SRC is a ``src`` directory holding the ``jetstrata`` package.  The inputs of
the three workloads of ``bench/gen.py`` are built at seeds 1 and 7 and written
to a temporary directory; each command then runs as the benchmark runs it,
in a fresh ``python -m jetstrata.cli`` process with ``PYTHONPATH=SRC``, so
the modules a command imports, ``cli.entry`` and the interpreter's exit are
replayed too; the child writes UTF-8 whatever the locale.  One line per
command: seed, workload, index, exit status, and the sha256 of its stdout
and of its stderr.  The next line replays one ``filtration run`` of depth 3 on
a 31,977-label Künneth product, the largest the tests build, from the
document ``depth3_run`` writes with the benchmark's ring generator; its seed
reads ``static``.  Then one ``porteous`` runs on each ring document of
``REFUSED_RINGS``, all but the first refused, so that every refusal keeps
its exit status and stderr bytes; those lines read seed ``static`` and the
name ``ring:`` and the document's name.  Two sources give the same reports
when their outputs are the same bytes, so

    python3 tools/replay.py OLD/src > old.txt
    python3 tools/replay.py src > new.txt
    diff old.txt new.txt

checks a change for byte identity.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import gen  # noqa: E402  (the benchmark's input generator)

SEEDS = (1, 7)


def depth3_run() -> dict:
    """The run document of tests/test_filtration.py::depth3_bundles under its
    DEPTH3_SCHEDULE: stages of dimension 32/72/128/200, each the truncated
    polynomial ring on one generator x of degree 4/4/8/20, with a nonzero
    stage obstruction."""
    stages = []
    for top, degree in ((32, 4), (72, 4), (128, 8), (200, 20)):
        ring = gen.TruncPoly(["x"], [degree], top, mod2=False)
        positive = {(0,): 1, (1,): 1, (2,): 1} | ({(3,): -1} if top > 32 else {})
        bundle = gen.bundle_doc(ring, positive, {(0,): 1, (1,): -1})
        stages.append({"ring": ring.presentation(ring.monomials[-1]), "bundle": bundle})
    return {"d": 3, "schedule": [8, 19, 58, 318, 384], "stages": stages}


# Refused ring documents, each the edits (dotted path, new value) of the ring
# RING below; the path "" is the whole document and the value DELETE drops
# the field or item.  Each runs as one ``porteous`` on BUNDLE, whose line
# pins the refusal's exit status and stderr.  The single-fault documents
# reach every refusal that ``make_ring`` and ``ManifoldRing`` can raise from
# a document; of the multi-fault ones, the first fault is named.
# tests/test_gring.py builds its fault documents from this table and pins
# the error class and message of the multi-fault and lone shape faults.
RING = {
    "mode": "integer_mod_torsion", "topDim": 4, "fundamental": "z",
    "basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 2}, {"label": "y", "degree": 2},
              {"label": "z", "degree": 4}],
    "products": [{"a": "x", "b": "x", "result": [{"label": "z", "coeff": 1}]},
                 {"a": "x", "b": "y", "result": [{"label": "z", "coeff": 0}]},
                 {"a": "y", "b": "y", "result": [{"label": "z", "coeff": -1}]}],
}
BUNDLE = '{"totalPositive": [{"label": "1", "coeff": 1}], "totalNegativePulled": [{"label": "1", "coeff": 1}]}'
PORTEOUS = ["porteous", "--variant", "pontrjagin", "--ring", "@ring.json", "--bundle", "@bundle.json",
            "--i", "2", "--n", "6", "--p", "4"]
DELETE = object()


def _term(label, coeff):
    return {"label": label, "coeff": coeff}


# a, b, c of degree 2, t of degree 6: (a*a)*b = t but (a*b)*a = 0.
_NON_ASSOCIATIVE = {
    "mode": "integer_mod_torsion", "topDim": 6, "fundamental": "t",
    "basis": [{"label": "1", "degree": 0}, {"label": "a", "degree": 2}, {"label": "b", "degree": 2},
              {"label": "c", "degree": 4}, {"label": "t", "degree": 6}],
    "products": [{"a": "a", "b": "a", "result": [_term("c", 1)]}, {"a": "b", "b": "c", "result": [_term("t", 1)]}],
}


def _generator_fault() -> dict:
    """The mod-2 ring on u, v, w of degrees 1, 2, 3 under top 12, with
    u*(u*v) retargeted from u^2*v to v^2.  u^2*v is still u^2 times v, so u,
    v and w are still the only labels no product gives, and the check on
    them, 876 pairs against 1,048 bounded triples, finds the fault."""
    ring = gen.TruncPoly(["u", "v", "w"], [1, 2, 3], 12, mod2=True)
    document = ring.presentation(ring.monomials[-1])
    next(p for p in document["products"] if (p["a"], p["b"]) == ("u", "u*v"))["result"] = [_term("v^2", 1)]
    return document


# 182 labels of degree 1 under top 3 make 1,021,384 bounded triples, past
# MAX_ASSOC_TRIPLES = 1,000,000.
_PAST_THE_TRIPLE_CAP = {
    "mode": "mod2", "topDim": 3, "fundamental": "t",
    "basis": [{"label": "1", "degree": 0}, *({"label": f"e{k}", "degree": 1} for k in range(182)),
              {"label": "t", "degree": 3}],
}

REFUSED_RINGS = {
    # Document shape.
    "document not an object": [("", [])],
    "missing mode": [("mode", DELETE)],
    "missing topDim": [("topDim", DELETE)],
    "missing basis": [("basis", DELETE)],
    "missing fundamental": [("fundamental", DELETE)],
    "basis not a list": [("basis", {})],
    "products not a list": [("products", "x*x")],
    "orientable not a bool": [("orientable", "yes")],
    "basis entry not an object": [("basis.1", "x")],
    "basis entry without label": [("basis.1.label", DELETE)],
    "basis entry without degree": [("basis.1.degree", DELETE)],
    "product entry not an object": [("products.1", ["x", "y"])],
    "product entry without a": [("products.1.a", DELETE)],
    "product entry without b": [("products.1.b", DELETE)],
    "empty factor label": [("products.1.a", "")],
    "factor label not a string": [("products.1.b", 2)],
    "result not a list": [("products.1.result", {"z": 1})],
    "empty result object": [("products.1.result", {})],
    "empty result string": [("products.1.result", "")],
    "result entry not an object": [("products.1.result.0", ["z", 1])],
    "result entry without label": [("products.1.result.0.label", DELETE)],
    "result label not a string": [("products.1.result.0.label", None)],
    "result entry without coeff": [("products.1.result.0.coeff", DELETE)],
    "duplicate target": [("products.0.result", [_term("z", 1), _term("z", 1)])],
    "duplicate zero target": [("products.1.result", [_term("z", 0), _term("z", 0)])],
    "duplicate pair": [("products.2", {"a": "x", "b": "x", "result": [_term("z", 1)]})],
    "duplicate swapped pair": [("products.2", {"a": "y", "b": "x", "result": [_term("z", 0)]})],
    "zero pair repeated with a nonzero result": [("products.2", {"a": "y", "b": "x", "result": [_term("z", 5)]})],
    "duplicate unit pair": [("products.1", {"a": "1", "b": "x", "result": [_term("x", 1)]}),
                            ("products.2", {"a": "x", "b": "1", "result": [_term("x", 1)]})],
    # Basis.
    "unknown mode": [("mode", "integer")],
    "negative topDim": [("topDim", -1)],
    "topDim a bool": [("topDim", True)],
    "empty basis": [("basis", []), ("products", [])],
    "empty basis label": [("basis.1.label", "")],
    "basis label not a string": [("basis.1.label", 2)],
    "duplicate basis label": [("basis.2.label", "x")],
    "negative degree": [("basis.1.degree", -2)],
    "degree a float": [("basis.1.degree", 2.0)],
    "degree above top": [("basis.3.degree", 6)],
    "odd degree in integer mode": [("basis.1.degree", 1)],
    "no unit": [("basis.0.degree", 2)],
    "two units": [("basis.2.degree", 0)],
    "no unique top label": [("fundamental", None), ("basis.2.degree", 4)],
    "fundamental below the top": [("fundamental", "x")],
    "fundamental unknown": [("fundamental", "q")],
    "fundamental not a string": [("fundamental", 4)],
    # Products.
    "unknown factor": [("products.1.a", "w")],
    "unknown target": [("products.1.result.0.label", "w")],
    "coefficient a string": [("products.1.result.0.coeff", "1")],
    "coefficient a bool": [("products.1.result.0.coeff", True)],
    "coefficient a float": [("products.1.result.0.coeff", 1.0)],
    "target of the wrong degree": [("products.0.result.0.label", "y")],
    "unit product not the factor": [("products.1", {"a": "1", "b": "x", "result": [_term("x", 2)]})],
    "unit product zero": [("products.1", {"a": "x", "b": "1"})],
    "not associative": [("", _NON_ASSOCIATIVE)],
    "not associative, found through a generator": [("", _generator_fault())],
    "past the triple cap": [("", _PAST_THE_TRIPLE_CAP)],
    # Several faults.
    "late shape fault, early unknown factor": [("products.0.a", "w"), ("products.2.b", "")],
    "late shape fault, early unknown target": [("products.0.result.0.label", "w"), ("products.2.result", {})],
    "late missing coeff, early degree mismatch": [
        ("products.0.result", [_term("x", 1)]), ("products.1.result", [{"label": "z"}])],
    "late term not an object, early bad coefficient": [
        ("products.0.result.0.coeff", True), ("products.2.result", [["z", 1]])],
    "late duplicate pair, early bad coefficient": [
        ("products.0.result.0.coeff", "1"), ("products.2", {"a": "y", "b": "x", "result": []})],
    "late duplicate target, early unknown factor": [
        ("products.0.b", "q"), ("products.2.result", [_term("z", 1), _term("z", 2)])],
    "duplicate target before a missing coeff": [
        ("products.1.result", [_term("z", 1), _term("z", 2), {"label": "z"}])],
    "missing coeff before a duplicate target": [
        ("products.1.result", [{"label": "z"}, _term("z", 1), _term("z", 2)])],
    "empty label before a duplicate target": [
        ("products.1.result", [_term("", 1), _term("z", 1), _term("z", 2)])],
    "entry not an object after an unknown target": [("products.0.result.0.label", "w"), ("products.2", "x*y")],
    "product shape fault, basis duplicate label": [("basis.2.label", "x"), ("products.2.a", 7)],
    "product shape fault, unknown mode": [("mode", "integer"), ("products.1.result.0", None)],
    "basis shape fault, product shape fault": [("basis.1", {"label": "x"}), ("products.0.b", None)],
    "basis duplicate label, unknown target": [("basis.2.label", "x"), ("products.0.result.0.label", "w")],
    "bad fundamental, product degree mismatch": [("fundamental", "x"), ("products.0.result.0.label", "y")],
    "two product faults in entry order": [("products.0.result.0.label", "y"), ("products.1.a", "w")],
    "duplicate pair before a bad unit product": [
        ("products.1", {"a": "x", "b": "x", "result": [_term("z", 2)]}),
        ("products.2", {"a": "1", "b": "x", "result": [_term("y", 1)]})],
    "bad unit product before a degree mismatch": [
        ("products.0", {"a": "1", "b": "x", "result": [_term("y", 1)]}), ("products.2.result.0.label", "x")],
    "no result field, then an unknown factor": [("products.0", {"a": "x", "b": "x"}), ("products.2.a", "q")],
}


def edited(document, edits):
    """A copy of ``document`` with each edit of REFUSED_RINGS applied in turn."""
    document = json.loads(json.dumps(document))
    for path, value in edits:
        if not path:
            document = value
            continue
        *parents, last = path.split(".")
        node = document
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        key = int(last) if isinstance(node, list) else last
        if value is DELETE:
            del node[key]
        else:
            node[key] = value
    return document


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "jetstrata" / "cli.py").is_file():
        print("usage: python3 tools/replay.py SRC", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(Path(argv[0]).resolve()), "PYTHONIOENCODING": "utf-8"}
    for seed in SEEDS:
        for name, build in sorted(gen.WORKLOADS.items()):
            workload = build(seed)
            files = {file_name: json.dumps(document) for file_name, document in workload.files.items()}
            replay(env, seed, name, files, [command.argv for command in workload.commands])
    run = json.dumps(depth3_run())
    replay(env, "static", "filtration-depth3", {"run.json": run}, [["filtration", "run", "--spec", "@run.json"]])
    for name, edits in [("accepted", []), *REFUSED_RINGS.items()]:
        files = {"ring.json": json.dumps(edited(RING, edits)), "bundle.json": BUNDLE}
        replay(env, "static", "ring:" + name.replace(" ", "-"), files, [PORTEOUS])
    return 0


def replay(env: dict, seed, name: str, files: dict[str, str], commands: list[list[str]]) -> None:
    """Write ``files`` to a temporary directory and print one line per
    command; an argument ``@NAME`` names the file ``NAME``."""
    with tempfile.TemporaryDirectory(prefix=f"replay-{name}-") as tmp:
        inputs = Path(tmp)
        for file_name, text in files.items():
            (inputs / file_name).write_text(text, encoding="utf-8")
        for index, argv in enumerate(commands):
            args = [str(inputs / a[1:]) if a.startswith("@") else a for a in argv]
            done = subprocess.run([sys.executable, "-m", "jetstrata.cli", *args], env=env, capture_output=True)
            print(seed, name, index, done.returncode, digest(done.stdout), digest(done.stderr))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
