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
import json
import sys

from . import charclass, criteria, filtration, gring, selfcheck, symbols


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise gring.PresentationError(
                f"{path}: JSON nests deeper than the parser's limit of about "
                f"{sys.getrecursionlimit()} levels"
            ) from None


def _load_ring(path: str) -> gring.ManifoldRing:
    return gring.make_ring(_load_json(path))


def _load_bundle(path: str, ring: gring.ManifoldRing) -> charclass.VirtualBundle:
    return charclass.bundle_from_spec(ring, _load_json(path))


def _report(command: str, inputs: dict, intermediates: dict, verdict, citations: list[str]) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "intermediates": intermediates,
        "verdict": verdict,
        "citations": citations,
    }


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


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
    return {
        "variant": obstruction.variant.value,
        "stratumIndex": obstruction.stratum_index,
        "expectedDegree": obstruction.expected_degree,
        "components": gring.element_to_spec(obstruction.value),
        "isZero": obstruction.is_zero,
    }


def _jet_order_value(k) -> int | str:
    return k if symbols.is_finite_order(k) else "inf"


# -- subcommand handlers ------------------------------------------------------


def _run_codim(args) -> dict:
    entries = tuple(int(part) for part in args.symbol.split(","))
    k = symbols.parse_order(args.k)
    ctx = symbols.JetContext(args.n, args.p, k)
    symbol = symbols.validate_symbol(entries, ctx)
    bound = symbols.codim_lower_bound(symbol, ctx)
    first = symbols.first_order_codim(symbol.entries[0], ctx)
    intermediates = {
        "firstOrderCodim": first,
        "bound": bound,
        "tailSum": sum(e * (e + 1) for e in symbol.entries[1:]) // 2,
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
    ring = _load_ring(args.ring)
    bundle = _load_bundle(args.bundle, ring)
    k = symbols.parse_order(args.k)
    ctx = symbols.JetContext(args.n, args.p, k)
    if args.variant == "sw":
        obstruction = charclass.porteous_sw(args.i, ctx, bundle)
        citations = ["stiefel-whitney-determinant-class"]
    else:
        obstruction = charclass.porteous_pontrjagin(args.i, ctx, bundle)
        citations = ["pontrjagin-determinant-class"]
    inputs = {
        "ring": ring.serialize(),
        "bundle": charclass.bundle_to_spec(bundle),
        "variant": args.variant,
        "i": args.i,
        "n": ctx.n,
        "p": ctx.p,
        "k": _jet_order_value(ctx.k),
    }
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
    ring = _load_ring(args.ring)
    bundle = _load_bundle(args.bundle, ring)
    obstruction = charclass.w_table_polynomial(args.p, bundle)
    inputs = {
        "ring": ring.serialize(),
        "bundle": charclass.bundle_to_spec(bundle),
        "p": args.p,
    }
    intermediates = {"obstruction": _obstruction_dict(obstruction)}
    citations = [
        "self-map-table-vanishing-5-7" if args.p in (5, 6, 7) else "self-map-table-dimension-8"
    ]
    return _report(
        "wtable",
        inputs,
        intermediates,
        "Zero" if obstruction.is_zero else "Nonzero",
        citations,
    )


def _run_criteria(args) -> dict:
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
    ring = _load_ring(args.ring)
    bundle = _load_bundle(args.bundle, ring)
    k = symbols.parse_order(args.k)
    dims = (ring.top_dim, args.target_dim)
    report = criteria.nonexistence_verdict(bundle, args.i, args.l, k, dims, route=args.route)
    inputs = {
        "ring": ring.serialize(),
        "bundle": charclass.bundle_to_spec(bundle),
        "i": args.i,
        "l": args.l,
        "k": _jet_order_value(k),
        "dims": list(dims),
        "route": args.route,
    }
    intermediates = {
        "route": report.route,
        "criterion": _criterion_dict(report.criterion),
        "obstruction": _obstruction_dict(report.obstruction),
        "notes": list(report.notes),
    }
    citations = ["nonexistence-from-nonvanishing-obstruction"]
    if report.route == criteria.ROUTE_W_TABLE:
        citations.append("self-map-table-dimension-8" if dims[0] == 8 else "self-map-table-vanishing-5-7")
    else:
        citations.extend(["w-stratum-inclusion-inequality", "dimension-shift-stabilization"])
    return _report("verdict", inputs, intermediates, report.verdict, citations)


def _run_filtration(args) -> dict:
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
            {"ring": stage.ring.serialize(), "bundle": charclass.bundle_to_spec(stage.bundle)}
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


def _run_selfcheck(_args) -> int:
    results = selfcheck.run_selfcheck()
    failed = 0
    for result in results:
        if result.passed:
            sys.stdout.write(f"ok {result.name}\n")
        else:
            failed += 1
            sys.stdout.write(f"FAIL {result.name}: {result.detail}\n")
    sys.stdout.write(f"passed {len(results) - failed} failed {failed}\n")
    return 1 if failed else 0


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetstrata",
        description="Exact obstruction calculator for jet-space singularity strata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    codim = sub.add_parser("codim", help="codimension lower bound of a symbol")
    codim.add_argument("--symbol", required=True, help="comma-separated entries, e.g. 2,1,0")
    codim.add_argument("--n", type=int, required=True)
    codim.add_argument("--p", type=int, required=True)
    codim.add_argument("--k", default="inf", help="jet order (integer or inf)")
    codim.add_argument("--out")
    codim.set_defaults(handler=_run_codim)

    porteous = sub.add_parser("porteous", help="determinant obstruction class")
    porteous.add_argument("--variant", choices=["sw", "pontrjagin"], required=True)
    porteous.add_argument("--ring", required=True, help="ring presentation JSON file")
    porteous.add_argument("--bundle", required=True, help="bundle presentation JSON file")
    porteous.add_argument("--i", type=int, required=True)
    porteous.add_argument("--n", type=int, required=True)
    porteous.add_argument("--p", type=int, required=True)
    porteous.add_argument("--k", default="inf")
    porteous.add_argument("--out")
    porteous.set_defaults(handler=_run_porteous)

    wtable = sub.add_parser("wtable", help="tabulated self-map obstruction, dimensions 5..8")
    wtable.add_argument("--p", type=int, required=True)
    wtable.add_argument("--ring", required=True)
    wtable.add_argument("--bundle", required=True)
    wtable.add_argument("--out")
    wtable.set_defaults(handler=_run_wtable)

    crit = sub.add_parser("criteria", help="stratum inclusion criteria")
    crit.add_argument("kind", choices=["nonstable", "w", "stabilized"])
    crit.add_argument("--n", type=int, required=True)
    crit.add_argument("--p", type=int, required=True)
    crit.add_argument("--i", type=int, required=True)
    crit.add_argument("--l", type=int, default=0, help="codimension budget")
    crit.add_argument("--k", required=True)
    crit.add_argument("--out")
    crit.set_defaults(handler=_run_criteria)

    verdict = sub.add_parser("verdict", help="nonexistence verdict for a presented map")
    verdict.add_argument("--ring", required=True)
    verdict.add_argument("--bundle", required=True)
    verdict.add_argument("--i", type=int, required=True)
    verdict.add_argument("--l", type=int, required=True)
    verdict.add_argument("--k", required=True)
    verdict.add_argument("--target-dim", type=int, required=True, dest="target_dim")
    verdict.add_argument(
        "--route", choices=["auto", "sw", "pontrjagin", "wtable"], default="auto"
    )
    verdict.add_argument("--out")
    verdict.set_defaults(handler=_run_verdict)

    filt = sub.add_parser("filtration", help="filtration stage arithmetic and runs")
    filt_sub = filt.add_subparsers(dest="action", required=True)
    next_index = filt_sub.add_parser("next-index", help="smallest stage index for a budget")
    next_index.add_argument("--l", type=int, required=True)
    next_index.add_argument("--out")
    next_index.set_defaults(handler=_run_filtration)
    run = filt_sub.add_parser("run", help="build and verify a run document")
    run.add_argument("--spec", required=True, help="run document JSON file")
    run.add_argument("--out")
    run.set_defaults(handler=_run_filtration)

    check = sub.add_parser("selfcheck", help="run the bundled invariant corpus")
    check.set_defaults(handler=_run_selfcheck, selfcheck=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "selfcheck", False):
            return args.handler(args)
        # Emitting fails on an unwritable --out or an integer too long to print.
        _emit(args.handler(args), getattr(args, "out", None))
    except gring.ConsistencyError as error:
        sys.stderr.write(f"internal inconsistency: {error}\n")
        return 1
    except (ValueError, OSError) as error:
        sys.stderr.write(f"{type(error).__name__}: {error}\n")
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
