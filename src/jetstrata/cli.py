"""Command-line front end.

Each subcommand parses its JSON inputs, dispatches to the library, and emits
one deterministic JSON report: the inputs echoed in canonical form, every
intermediate quantity, the verdict (null for purely computational commands),
and the behavior-named rules the computation relied on.  Exit status 0 means
a result was computed (including negative verdicts), 2 a parse or validation
failure naming the violated invariant, 1 an internal inconsistency.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from itertools import islice, repeat
from json.encoder import encode_basestring

from . import symbols

# Only ``symbols`` is imported here, for the argument types; each handler
# imports the library modules it runs, so a command compiles no other.  The
# annotations that name those modules are never evaluated.


def _load_json(path: str):
    from .gring import PresentationError

    def unique_keys(pairs):
        document = dict(pairs)
        if len(document) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise PresentationError(f"{path}: repeated key {key!r} in one JSON object")
                seen.add(key)
        return document

    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, object_pairs_hook=unique_keys)
        except PresentationError:
            raise
        except ValueError as error:  # not JSON, not UTF-8, or an integer literal too long to read
            raise PresentationError(f"{path}: {error}") from None
        except RecursionError:
            raise PresentationError(
                f"{path}: JSON nests deeper than the parser's limit of about "
                f"{sys.getrecursionlimit()} levels"
            ) from None


def _load_bundle(args) -> tuple[charclass.VirtualBundle, dict]:
    """The bundle of ``--ring`` and ``--bundle``, and their echo: the ring itself and the bundle's document."""
    from . import charclass, gring

    bundle = charclass.bundle_from_spec(gring.make_ring(_load_json(args.ring)), _load_json(args.bundle))
    return bundle, {"ring": bundle.ring, "bundle": charclass.bundle_to_spec(bundle)}


def _report(command: str, inputs: dict, intermediates: dict, verdict, citations: list[str]) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "intermediates": intermediates,
        "verdict": verdict,
        "citations": citations,
    }


#: Product entries of an echoed ring per piece of the report text: the text
#: is written piece by piece, and never joined whole.
_CHUNK_ENTRIES = 256


def _emit(report: dict, out_path: str | None) -> None:
    """Write ``json.dumps(report, indent=2, sort_keys=True,
    ensure_ascii=False)`` and a newline; a ring is written as its document
    ``ring.serialize()``.  The text is written in pieces, and only once every
    piece encodes: a report that cannot be encoded writes nothing, creates
    no ``out_path`` and fails as the whole text would, naming its position."""
    # A report can hold a ring only once the ring engine is loaded; before
    # that, the empty tuple is a ring type no value is an instance of.
    gring = sys.modules.get(f"{__package__}.gring")
    pieces: list[str] = []
    try:
        _encode(report, 0, ["\n"], pieces, gring.ManifoldRing if gring else ())
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"report integer has more than {limit} digits, the limit for printing an integer") from None
    pieces.append("\n")
    # A text stream without an encoding, such as io.StringIO, takes any text.
    encoding, errors = ("utf-8", "strict") if out_path else (sys.stdout.encoding, sys.stdout.errors)
    if encoding:
        try:
            for piece in pieces:
                piece.encode(encoding, errors)
        except UnicodeEncodeError:
            "".join(pieces).encode(encoding, errors)  # raises the whole text's error
            raise
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _holds_ring(value, ring_type) -> bool:
    """Whether an instance of ``ring_type`` sits anywhere in ``value``."""
    if isinstance(value, ring_type):
        return True
    if isinstance(value, dict):
        return any(map(_holds_ring, value.values(), repeat(ring_type)))
    return isinstance(value, list) and any(map(_holds_ring, value, repeat(ring_type)))


def _encode(value, depth: int, leads: list[str], pieces: list[str], ring_type) -> None:
    """Append the indent=2 text of ``value`` at ``depth`` to ``pieces``, its
    first line continuing the current one.  ``leads[d]`` is a newline and the
    indentation of depth d.  A ring (an instance of ``ring_type``) is written
    from its table, a container that holds one item by item, and any other
    value as the encoder's own indent=2 text."""
    if isinstance(value, ring_type):
        _ring_text(value, depth, leads, pieces)
    elif isinstance(value, (dict, list)) and _holds_ring(value, ring_type):
        if len(leads) <= depth + 1:
            leads.append(leads[-1] + "  ")
        if isinstance(value, dict):
            brackets, items = "{}", [(f"{encode_basestring(key)}: ", value[key]) for key in sorted(value)]
        else:
            brackets, items = "[]", [("", item) for item in value]
        pieces.append(brackets[0])
        for n, (key, item) in enumerate(items):
            pieces.append(f"{',' if n else ''}{leads[depth + 1]}{key}")
            _encode(item, depth + 1, leads, pieces, ring_type)
        pieces.append(leads[depth] + brackets[1])
    else:
        # The encoder escapes every newline inside a string, so each raw one
        # starts a line of the layout.
        pieces.append(json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False).replace("\n", leads[depth]))


def _ring_text(ring: gring.ManifoldRing, depth: int, leads: list[str], pieces: list[str]) -> None:
    """Append the indent=2 text of ``ring.serialize()`` at ``depth`` to
    ``pieces``, the product entries ``_CHUNK_ENTRIES`` to a piece.  Each
    label is encoded once, into the text of each place it can take; the
    products are read off the table.  Integers are written by
    ``int.__repr__``, as the encoder writes them."""
    while len(leads) <= depth + 5:
        leads.append(leads[-1] + "  ")
    l0, l1, l2, l3, l4, l5 = leads[depth:depth + 6]
    labels = list(map(encode_basestring, ring.labels))
    basis = f",{l2}".join([
        f'{{{l3}"degree": {degree},{l3}"label": {label}{l2}}}'
        for label, degree in zip(labels, map(int.__repr__, ring.degrees))
    ])
    first = [f'{{{l3}"a": {label},{l3}"b": ' for label in labels]
    second = [f'{label},{l3}"result": [' for label in labels]
    unit_terms = [f'{l4}{{{l5}"coeff": 1,{l5}"label": {label}{l4}}}' for label in labels]
    term = f'{l4}{{{l5}"coeff": %s,{l5}"label": %s{l4}}}'
    close = f"{l3}]{l2}}}"
    products = (
        first[i] + second[j] + (
            unit_terms[packed[0][0]] if len(packed) == 1 and packed[0][1] == 1  # the most common product
            else ",".join([unit_terms[t] if c == 1 else term % (int.__repr__(c), labels[t]) for t, c in packed])
        ) + close
        for (i, j), packed in ring._product_entries()
    )
    pieces.append(
        f'{{{l1}"basis": [{l2}{basis}{l1}],'
        f'{l1}"fundamental": {labels[ring.fundamental_position]},'
        f'{l1}"mode": {encode_basestring(ring.mode.value)},'
        f'{l1}"orientable": {"true" if ring.orientable else "false"},'
    )
    separator = f",{l2}"
    chunks = iter(lambda: separator.join(islice(products, _CHUNK_ENTRIES)), "")
    chunk = next(chunks, "")
    if chunk:
        pieces += (f'{l1}"products": [{l2}', chunk)
        for chunk in chunks:
            pieces += (separator, chunk)
        pieces.append(f"{l1}],")
    else:
        pieces.append(f'{l1}"products": [],')
    pieces.append(f'{l1}"topDim": {int.__repr__(ring.top_dim)}{l0}}}')


def _criterion_dict(report: criteria.CriterionReport) -> dict:
    return {
        "verdict": report.verdict,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "kRequired": report.k_required,
        "shiftUsed": report.shift_used,
        "notes": report.notes,
    }


def _obstruction_dict(obstruction: charclass.ObstructionClass | None) -> dict | None:
    if obstruction is None:
        return None
    from . import gring

    return {
        "variant": obstruction.variant.value,
        "stratumIndex": obstruction.stratum_index,
        "expectedDegree": obstruction.expected_degree,
        "components": gring.element_to_spec(obstruction.value),
        "isZero": obstruction.is_zero,
    }


def _jet_order_value(k) -> int | str:
    return k if symbols.is_finite_order(k) else "inf"


def _table_citation(dim: int) -> str:
    return "self-map-table-vanishing-5-7" if dim in (5, 6, 7) else "self-map-table-dimension-8"


# -- subcommand handlers ------------------------------------------------------


def _run_codim(args) -> dict:
    ctx = symbols.JetContext(args.n, args.p, symbols.parse_order(args.k))
    symbol = symbols.validate_symbol(args.symbol, ctx)
    bound = symbols.codim_lower_bound(symbol, ctx)
    first = symbols.first_order_codim(symbol.entries[0], ctx)
    intermediates = {
        "firstOrderCodim": first,
        "bound": bound,
        "tailSum": bound - first,
        "length": len(symbol),
    }
    if symbols.is_finite_order(ctx.k):
        intermediates["jetFiberDim"] = symbols.jet_fiber_dim(ctx)
    inputs = {
        "symbol": list(symbol.entries),
        "n": ctx.n,
        "p": ctx.p,
        "k": _jet_order_value(ctx.k),
    }
    return _report(
        "codim",
        inputs,
        intermediates,
        None,
        ["first-order-codimension", "codimension-lower-bound"],
    )


def _run_porteous(args) -> dict:
    from . import charclass, gring

    bundle, inputs = _load_bundle(args)
    ctx = symbols.JetContext(args.n, args.p, symbols.parse_order(args.k))
    if args.variant == "sw":
        obstruction = charclass.porteous_sw(args.i, ctx, bundle)
        citations = ["stiefel-whitney-determinant-class"]
    else:
        obstruction = charclass.porteous_pontrjagin(args.i, ctx, bundle)
        citations = ["pontrjagin-determinant-class"]
    inputs.update(variant=args.variant, i=args.i, n=ctx.n, p=ctx.p, k=_jet_order_value(ctx.k))
    intermediates = {
        "matrixSize": len(obstruction.matrix),
        "matrix": [[gring.element_to_spec(e) for e in row] for row in obstruction.matrix],
        "obstruction": _obstruction_dict(obstruction),
    }
    return _report(
        "porteous",
        inputs,
        intermediates,
        "Zero" if obstruction.is_zero else "Nonzero",
        citations,
    )


def _run_wtable(args) -> dict:
    from . import charclass

    bundle, inputs = _load_bundle(args)
    obstruction = charclass.w_table_polynomial(args.p, bundle)
    inputs["p"] = args.p
    intermediates = {"obstruction": _obstruction_dict(obstruction)}
    return _report(
        "wtable",
        inputs,
        intermediates,
        "Zero" if obstruction.is_zero else "Nonzero",
        [_table_citation(args.p)],
    )


def _run_criteria(args) -> dict:
    from . import criteria

    k = symbols.parse_order(args.k)
    inputs = {"kind": args.kind, "n": args.n, "p": args.p, "i": args.i, "k": _jet_order_value(k)}
    if args.kind == "nonstable":
        report = criteria.nonstable_inclusion(args.n, args.p, args.i, k)
        citations = ["nonstable-jet-inclusion-inequality"]
    else:
        inclusion = criteria.w_inclusion if args.kind == "w" else criteria.stabilized_w_inclusion
        report = inclusion(args.n, args.p, args.i, args.l, k)
        inputs["l"] = args.l
        citations = ["w-stratum-inclusion-inequality"]
        if args.kind == "stabilized":
            citations.append("dimension-shift-stabilization")
    return _report("criteria", inputs, _criterion_dict(report), report.verdict, citations)


def _run_verdict(args) -> dict:
    from . import criteria

    bundle, inputs = _load_bundle(args)
    k = symbols.parse_order(args.k)
    dims = (bundle.ring.top_dim, args.target_dim)
    report = criteria.nonexistence_verdict(bundle, args.i, args.l, k, dims, route=args.route)
    inputs.update(i=args.i, l=args.l, k=_jet_order_value(k), dims=list(dims), route=args.route)
    intermediates = {
        "route": report.route,
        "criterion": _criterion_dict(report.criterion),
        "obstruction": _obstruction_dict(report.obstruction),
        "notes": list(report.notes),
    }
    citations = ["nonexistence-from-nonvanishing-obstruction"]
    if report.route == criteria.ROUTE_W_TABLE:
        citations.append(_table_citation(dims[0]))
    else:
        citations.extend(["w-stratum-inclusion-inequality", "dimension-shift-stabilization"])
    return _report("verdict", inputs, intermediates, report.verdict, citations)


def _run_filtration(args) -> dict:
    from . import charclass, filtration, gring

    if args.action == "next-index":
        value = filtration.next_index(args.l)
        return _report(
            "filtration",
            {"action": "next-index", "l": args.l},
            {"index": value, "stageDim": 8 * value * value},
            None,
            ["stage-index-recursion"],
        )
    document = _load_json(args.spec)
    depth = gring.read_field(document, "d", object, "run document")
    schedule = gring.read_field(document, "schedule", list, "run document")
    bundles = []
    for entry in gring.read_field(document, "stages", list, "run document", []):
        ring_spec = gring.read_field(entry, "ring", object, "stage entry")
        bundle_spec = gring.read_field(entry, "bundle", object, "stage entry")
        bundles.append(charclass.bundle_from_spec(gring.make_ring(ring_spec), bundle_spec))
    run = filtration.build_run(depth, schedule, bundles)
    stage_rows = []
    for stage in run.stages:
        product = filtration.product_obstruction(run, stage.t)
        stage_rows.append(
            {
                "t": stage.t,
                "budget": stage.budget,
                "kernelRank": stage.kernel_rank,
                "dim": stage.dim,
                "stageObstruction": _obstruction_dict(stage.obstruction),
                "productObstruction": _obstruction_dict(product),
            }
        )
    inputs = {
        "action": "run",
        "d": run.depth,
        "schedule": list(run.schedule),
        "stages": [
            {"ring": stage.ring, "bundle": charclass.bundle_to_spec(stage.bundle)}
            for stage in run.stages
        ],
    }
    intermediates = {"productTopDim": run.product_ring.top_dim, "stages": stage_rows}
    return _report(
        "filtration",
        inputs,
        intermediates,
        "RunVerified",
        ["stage-index-recursion", "product-pullback-identity"],
    )


def _run_selfcheck() -> int:
    from . import selfcheck  # imported by this command alone

    results = selfcheck.run_selfcheck()
    for result in results:
        sys.stdout.write(f"ok {result.name}\n" if result.passed else f"FAIL {result.name}: {result.detail}\n")
    failed = sum(not result.passed for result in results)
    sys.stdout.write(f"passed {len(results) - failed} failed {failed}\n")
    return 1 if failed else 0


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetstrata",
        description="Exact obstruction calculator for jet-space singularity strata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options several subcommands share, each declared once; a parent holds
    # options only and has no parents of its own.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the report to this file instead of stdout")
    dims = argparse.ArgumentParser(add_help=False)
    dims.add_argument("--n", type=symbols.parse_integer, required=True)
    dims.add_argument("--p", type=symbols.parse_integer, required=True)
    documents = argparse.ArgumentParser(add_help=False)
    documents.add_argument("--ring", required=True, help="ring presentation JSON file")
    documents.add_argument("--bundle", required=True, help="bundle presentation JSON file")

    codim = sub.add_parser("codim", parents=[dims, out], help="codimension lower bound of a symbol")
    codim.add_argument(
        "--symbol", type=symbols.parse_symbol, required=True, help="comma-separated entries, e.g. 2,1,0"
    )
    codim.add_argument("--k", default="inf", help="jet order (integer or inf)")
    codim.set_defaults(handler=_run_codim)

    porteous = sub.add_parser("porteous", parents=[documents, dims, out], help="determinant obstruction class")
    porteous.add_argument("--variant", choices=["sw", "pontrjagin"], required=True)
    porteous.add_argument("--i", type=symbols.parse_integer, required=True)
    porteous.add_argument("--k", default="inf")
    porteous.set_defaults(handler=_run_porteous)

    wtable = sub.add_parser(
        "wtable", parents=[documents, out], help="tabulated self-map obstruction, dimensions 5..8"
    )
    wtable.add_argument("--p", type=symbols.parse_integer, required=True)
    wtable.set_defaults(handler=_run_wtable)

    crit = sub.add_parser("criteria", parents=[dims, out], help="stratum inclusion criteria")
    crit.add_argument("kind", choices=["nonstable", "w", "stabilized"])
    crit.add_argument("--i", type=symbols.parse_integer, required=True)
    crit.add_argument("--l", type=symbols.parse_integer, default=0, help="codimension budget")
    crit.add_argument("--k", required=True)
    crit.set_defaults(handler=_run_criteria)

    verdict = sub.add_parser(
        "verdict", parents=[documents, out], help="nonexistence verdict for a presented map"
    )
    verdict.add_argument("--i", type=symbols.parse_integer, required=True)
    verdict.add_argument("--l", type=symbols.parse_integer, required=True)
    verdict.add_argument("--k", required=True)
    verdict.add_argument("--target-dim", type=symbols.parse_integer, required=True, dest="target_dim")
    verdict.add_argument("--route", choices=["auto", "sw", "pontrjagin", "wtable"], default="auto")
    verdict.set_defaults(handler=_run_verdict)

    filt = sub.add_parser("filtration", help="filtration stage arithmetic and runs")
    filt_sub = filt.add_subparsers(dest="action", required=True)
    next_index = filt_sub.add_parser("next-index", parents=[out], help="smallest stage index for a budget")
    next_index.add_argument("--l", type=symbols.parse_integer, required=True)
    run = filt_sub.add_parser("run", parents=[out], help="build and verify a run document")
    run.add_argument("--spec", required=True, help="run document JSON file")
    filt.set_defaults(handler=_run_filtration)

    sub.add_parser("selfcheck", help="run the bundled invariant corpus")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_:
        # argparse exits 0 after --help and 2 on a rejected option.
        return exit_.code
    try:
        if args.command == "selfcheck":
            return _run_selfcheck()
        # Emitting fails on an unwritable --out or an integer too long to print.
        _emit(args.handler(args), args.out)
    except symbols.ConsistencyError as error:
        sys.stderr.write(f"internal inconsistency: {error}\n")
        return 1
    except (ValueError, OSError) as error:
        sys.stderr.write(f"{type(error).__name__}: {error}\n")
        return 2
    return 0


def entry() -> None:
    # One command's data is acyclic (JSON trees and tuple tables), and the
    # cyclic garbage it leaves, argparse's parsers and the encoder's closures,
    # does not grow with its input; the cyclic collector would only re-walk
    # the parsed document and the product table as they grow.  main() leaves
    # the collector alone, so callers that run it in-process keep theirs.
    gc.disable()
    status = main()
    # Interpreter exit still runs one full collection, collector off or not;
    # frozen objects are left out of it.  Finalization itself (atexit
    # handlers, the stdio flush, module teardown) runs as before, and the
    # cycles left behind hold no file to close.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
