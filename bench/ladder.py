"""Size ladder, run once inside the traced run rather than as timed workloads.

Each rung calls the library directly on generated inputs and times one call
with ``time.perf_counter``.  The top rungs reproduce the measured baseline
cases: a depth-2 run on a 5,643-label product basis and a 1,292-label ring.
Depth 3 is left out because it cannot complete at the seed.

``js`` is a namespace holding the imported jetstrata modules.  A rung whose
library call cannot be bound is recorded as not measured; a rung that would
start after the deadline is recorded as skipped, so the run keeps its time
limit on a slow machine.
"""

from __future__ import annotations

import random
import time

import gen

# Which rungs run alongside which workload's traced run.  The split gives
# each traced run at most one top rung; the ladder is the union of the three.
FILTRATION_RUNGS = (("depth0", (4,)), ("depth1", (4, 4)), ("depth2", (4, 4, 8)), ("depth2-5643", (4, 4, 4)))
RING_TOPS = {"ring-session": (10, 18, 20), "small-commands": (24,)}
DET_SIZES = range(4, 13)
DET_RING_TOP = 10


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def store_only(gring, document):
    """The ring of ``document`` built by the public constructor without the
    associativity check, from the same fields ``make_ring`` reads."""
    basis = [(entry["label"], entry["degree"]) for entry in document["basis"]]
    products = {
        (entry["a"], entry["b"]): {term["label"]: term["coeff"] for term in entry["result"]}
        for entry in document["products"]
    }
    return gring.ManifoldRing(
        document["mode"], document["topDim"], basis, products, document["fundamental"],
        orientable=document.get("orientable", True), verify=False,
    )


def filtration_rung(js, rng, rung: str, degrees) -> list:
    """One run of the given stage generator degrees, then the total-class
    inverse on its stage rings above the first and on its product ring."""
    document, _ = gen.run_document(rng, degrees)
    bundles = [
        js.charclass.bundle_from_spec(js.gring.make_ring(s["ring"]), s["bundle"]) for s in document["stages"]
    ]
    build_s, run = _timed(lambda: js.filtration.build_run(document["d"], document["schedule"], bundles))
    obstruction_s, _ = _timed(
        lambda: [js.filtration.product_obstruction(run, t) for t in range(document["d"] + 1)]
    )
    rows = [{"ladder": "filtration", "rung": rung, "product_labels": len(run.product_ring.labels),
             "build_run_s": build_s, "product_obstruction_s": obstruction_s}]
    # The product's total is the product of the injected stage totals, the
    # densest class a run inverts.
    totals = [(stage.ring, stage.bundle.total_negative_pulled) for stage in run.stages[1:]]
    product = run.product_ring.unit()
    for stage, inject in zip(run.stages, run.injections):
        product = product * inject(stage.bundle.total_negative_pulled)
    totals.append((run.product_ring, product))
    for ring, total in totals:
        seconds, _ = _timed(lambda: js.gring.invert_total_class(total))
        rows.append({"ladder": "inverse", "rung": f"{rung} top {ring.top_dim}", "top_dim": ring.top_dim,
                     "labels": len(ring.labels), "total_terms": len(total.coeffs), "inverse_s": seconds})
    return rows


def ring_rung(js, top: int) -> list:
    """A mod-2 ring on generators of degrees 1..4, built with and without the
    associativity check."""
    ring = gen.session_ring(top)
    document = ring.presentation(ring.monomials[-1])
    make_s, _ = _timed(lambda: js.gring.make_ring(document))
    store_s, _ = _timed(lambda: store_only(js.gring, document))
    return [{"ladder": "ring", "rung": f"top {top}", "labels": len(ring.monomials),
             "products": len(document["products"]), "make_ring_s": make_s, "store_only_s": store_s}]


def det_rungs(js, seed: int) -> list:
    """Graded determinants of sizes 4..12 over a dense ring: every entry is a
    sum of three random monomials of degree at most 2 on a 94-label mod-2 ring
    with four generators."""
    rng = random.Random(f"ladder-det:{seed}")
    poly = gen.session_ring(DET_RING_TOP)
    ring = js.gring.make_ring(poly.presentation(poly.monomials[-1]))
    pool = [poly.label(m) for m in poly.monomials if poly.degree(m) <= 2]
    rows = []
    for size in DET_SIZES:
        matrix = [[ring.element(dict.fromkeys(rng.sample(pool, 3), 1)) for _ in range(size)] for _ in range(size)]
        seconds, value = _timed(lambda: js.charclass.det_graded(matrix, ring=ring))
        rows.append({"ladder": "det", "rung": f"size {size}", "size": size, "det_s": seconds,
                     "det_terms": len(value.coeffs)})
    return rows


def _rungs(workload: str, js, seed: int):
    if workload == "filtration-depth2":
        rng = random.Random(f"ladder:{seed}")
        for rung, degrees in FILTRATION_RUNGS:
            yield "filtration", rung, lambda rung=rung, degrees=degrees: filtration_rung(js, rng, rung, degrees)
        return
    if workload == "small-commands":
        yield "det", f"sizes {DET_SIZES.start}..{DET_SIZES.stop - 1}", lambda: det_rungs(js, seed)
    for top in RING_TOPS[workload]:
        yield "ring", f"top {top}", lambda top=top: ring_rung(js, top)


def run_slice(workload: str, js, seed: int, deadline: float) -> list:
    rows = []
    for kind, rung, measure in _rungs(workload, js, seed):
        if time.perf_counter() > deadline:
            rows.append({"ladder": kind, "rung": rung, "result": "skipped: past the run's time budget"})
            continue
        try:
            rows.extend(measure())
        except (AttributeError, TypeError) as error:
            rows.append({"ladder": kind, "rung": rung, "result": f"not measured ({type(error).__name__}: {error})"})
    return rows
