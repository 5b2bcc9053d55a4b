"""In-process traced replay that gives the per-layer metrics.

The traced run imports jetstrata from ``src`` and drives ``jetstrata.cli.main``
in-process on the documents of all three workloads for the seed, so every
per-layer metric is measured on the workload it predicts (see
``predictions.json``), whichever workload was asked for.  The selected
workload decides two things: which slice of the size ladder runs afterwards,
and which replay is repeated untraced to measure the tracing overhead.

Wrappers are installed on the public names the CLI handlers call, in every
module that binds them.  Each call records a span (name, start, end, parent,
workload) in memory; the spans, the self time per layer and the ladder are
written to ``.bench_out/trace-<workload>-seed<seed>.json`` at the end.  A name
that cannot be bound is reported as not measured, and so is every metric that
needs it.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import io
import json
import statistics
import sys
import time
import types
from math import comb
from pathlib import Path

import gen
import ladder
from checks import check_output
from proc import OUT, ROOT, SETUP_CODE, SRC, command_args, program_env, setup_times, write_inputs

PER_LAYER_ORDER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]
SETUP_SAMPLES = 11
# Ladder rungs that would start later than this many seconds into the run
# are skipped, so that a slow machine still ends the run within 180 s.
LADDER_START_LIMIT_S = 100

# (module, attribute, span name).  A function imported into several modules
# is wrapped in each, under one span name.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "_emit", "cli.emit"),
    ("gring", "make_ring", "gring.make_ring"),
    ("gring", "kunneth_product", "gring.kunneth_product"),
    ("filtration", "kunneth_product", "gring.kunneth_product"),
    ("gring", "invert_total_class", "gring.invert_total_class"),
    ("charclass", "invert_total_class", "gring.invert_total_class"),
    ("filtration", "build_run", "filtration.build_run"),
    ("filtration", "product_obstruction", "filtration.product_obstruction"),
    ("filtration", "next_index", "filtration.next_index"),
    ("charclass", "det_graded", "charclass.det_graded"),
    ("charclass", "porteous_sw", "charclass.porteous_sw"),
    ("criteria", "porteous_sw", "charclass.porteous_sw"),
    ("charclass", "porteous_pontrjagin", "charclass.porteous_pontrjagin"),
    ("criteria", "porteous_pontrjagin", "charclass.porteous_pontrjagin"),
    ("filtration", "porteous_pontrjagin", "charclass.porteous_pontrjagin"),
    ("charclass", "w_table_polynomial", "charclass.w_table_polynomial"),
    ("criteria", "w_table_polynomial", "charclass.w_table_polynomial"),
    ("criteria", "nonstable_inclusion", "criteria.nonstable_inclusion"),
    ("criteria", "w_inclusion", "criteria.w_inclusion"),
    ("criteria", "stabilized_w_inclusion", "criteria.stabilized_w_inclusion"),
    ("criteria", "nonexistence_verdict", "criteria.nonexistence_verdict"),
    ("symbols", "validate_symbol", "symbols.validate_symbol"),
    ("symbols", "codim_lower_bound", "symbols.codim_lower_bound"),
    ("symbols", "first_order_codim", "symbols.first_order_codim"),
    ("symbols", "jet_fiber_dim", "symbols.jet_fiber_dim"),
    ("selfcheck", "run_selfcheck", "selfcheck.run_selfcheck"),
)
# json.load and json.dumps as the CLI module sees them.
JSON_TARGETS = (("load", "cli.json_load"), ("dumps", "cli.json_dumps"))

CRITERIA = {"criteria.nonstable_inclusion", "criteria.w_inclusion", "criteria.stabilized_w_inclusion"}
PORTEOUS = {"charclass.porteous_sw", "charclass.porteous_pontrjagin"}
SYMBOLS = {"symbols.validate_symbol", "symbols.codim_lower_bound", "symbols.first_order_codim", "symbols.jet_fiber_dim"}

F, R, S = "filtration-depth2", "ring-session", "small-commands"


def run_counts(run) -> dict:
    """Counters read off the run ``filtration.build_run`` returned: the
    product ring's basis size and the pairs stored in its product table."""
    ring = run.product_ring
    counts = {"filtration.product_labels": len(ring.labels)}
    if hasattr(ring, "_table"):
        counts["gring.stored_products"] = len(ring._table)
    return counts


class Tracer:
    """Span recorder; a span is [name, start, end, parent index, workload, size]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.workload = None
        self.installed: list = []
        self.not_bound: list = []
        self.counters: dict = {}

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            size = len(args[0]) if name == "charclass.det_graded" and args else None
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.workload, size])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
            if name == "filtration.build_run":
                self.observe(result)
            return result

        return traced

    def observe(self, run) -> None:
        """Keep the counters of the last run built per workload; a counter the
        run does not expose stays not measured."""
        try:
            counts = run_counts(run)
        except (AttributeError, TypeError):
            return
        self.counters.setdefault(self.workload, {}).update(counts)

    def install(self, modules: dict) -> None:
        for module_name, attr, name in TARGETS:
            module = modules.get(module_name)
            if module is None or not callable(getattr(module, attr, None)):
                self.not_bound.append(f"{module_name}.{attr}")
                continue
            self._replace(module, attr, self.wrap(name, getattr(module, attr)))
        cli = modules["cli"]
        real = getattr(cli, "json", None)
        if real is None:
            self.not_bound.extend(name for _, name in JSON_TARGETS)
            return
        proxy = types.SimpleNamespace(**{k: getattr(real, k) for k in dir(real) if not k.startswith("__")})
        for attr, name in JSON_TARGETS:
            setattr(proxy, attr, self.wrap(name, getattr(real, attr)))
        self._replace(cli, "json", proxy)

    def _replace(self, module, attr, value) -> None:
        self.installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.installed):
            setattr(module, attr, original)
        self.installed.clear()


# -- span arithmetic --------------------------------------------------------


def _spans_of(spans: list, workload: str) -> list:
    return [(i, s) for i, s in enumerate(spans) if s[4] == workload]


def inclusive(spans: list, workload: str, names: set) -> tuple[float, int]:
    """Time inside the named functions, counting nested calls among them
    once, and the number of outermost calls."""
    total, calls = 0.0, 0
    for _, span in _spans_of(spans, workload):
        if span[0] in names and not _has_ancestor(spans, span, names):
            total += span[2] - span[1]
            calls += 1
    return total, calls


def _has_ancestor(spans: list, span: list, names: set) -> bool:
    parent = span[3]
    while parent is not None:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def self_times(spans: list, workload: str) -> dict:
    """Span duration minus the part its child spans cover, summed per name."""
    child_time: dict = {}
    for _, span in _spans_of(spans, workload):
        if span[3] is not None:
            child_time[span[3]] = child_time.get(span[3], 0.0) + span[2] - span[1]
    totals: dict = {}
    for index, span in _spans_of(spans, workload):
        own = span[2] - span[1] - child_time.get(index, 0.0)
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


def count(spans: list, workload: str, name: str) -> int:
    return sum(1 for _, span in _spans_of(spans, workload) if span[0] == name)


# -- input counters -----------------------------------------------------------
# Figures of the work a full table or triple enumeration does on the inputs.
# They do not depend on the program, so they are information lines, not
# per-layer metrics.


def table_counts(document: dict) -> tuple[int, int, int]:
    """Labels, ordered pairs with a nonzero product (the unit included) and
    labels with a nonzero square, read off a ring document."""
    labels = len(document["basis"])
    stored = len(document["products"])
    squares = sum(1 for entry in document["products"] if entry["a"] == entry["b"])
    return labels, 2 * stored - squares + 2 * labels - 1, squares + 1


def kunneth_counts(stage_rings: list) -> dict:
    """Basis size, label pairs visited and products stored by the materialized
    tensor table of a run, from its stage ring documents.  A product of tensor
    labels is nonzero exactly when every factor product is."""
    labels, ordered, squares = table_counts(stage_rings[0])
    pairs = 0
    for document in stage_rings[1:]:
        n, o, q = table_counts(document)
        labels, ordered, squares = labels * n, ordered * o, squares * q
        pairs += labels * (labels + 1) // 2
    return {"labels": labels, "pairs": pairs, "stored": (ordered - 2 * labels + squares) // 2}


def triple_counts(document: dict) -> tuple[int, int]:
    """Multisets of three non-unit labels: all of them, and those whose
    degrees sum to at most the top dimension."""
    histogram: dict = {}
    for entry in document["basis"]:
        if entry["degree"] > 0:
            histogram[entry["degree"]] = histogram.get(entry["degree"], 0) + 1
    degrees = sorted(histogram)
    bounded = 0
    for a, da in enumerate(degrees):
        for b, db in enumerate(degrees[a:], a):
            for dc in degrees[b:]:
                if da + db + dc > document["topDim"]:
                    continue
                picks: dict = {}
                for d in (da, db, dc):
                    picks[d] = picks.get(d, 0) + 1
                ways = 1
                for d, k in picks.items():
                    ways *= comb(histogram[d] + k - 1, k)
                bounded += ways
    nonunit = sum(histogram.values())
    return comb(nonunit + 2, 3), bounded


def input_figures(workloads: dict) -> dict:
    """The input counters as information lines, name -> (value, unit, samples)."""
    stages = [stage["ring"] for stage in workloads[F].files["run.json"]["stages"]]
    tensor = kunneth_counts(stages)
    all_triples, bounded = triple_counts(workloads[R].files["ring.json"])
    return {
        "input filtration.product_labels": (tensor["labels"], "count", 1),
        "input gring.kunneth_pairs": (tensor["pairs"], "count", 1),
        "input gring.stored_products": (tensor["stored"], "count", 1),
        "input gring.assoc_triples_all": (all_triples, "count", 1),
        "input gring.assoc_triples_bounded": (bounded, "count", 1),
        "input gring.assoc_bounded_ratio": (bounded / all_triples, "ratio", 1),
    }


# -- replay -------------------------------------------------------------------


def replay(cli, workload: gen.Workload, inputs: Path) -> list:
    """Run every command through ``cli.main`` in this process; returns
    (command, status, stdout bytes, seconds, error text) per command.  An
    exception that escapes ``cli.main`` counts as exit status 1, as the
    traceback would in a process."""
    rows = []
    gc.collect()
    for command in workload.commands:
        argv = command_args(command, inputs)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                status = cli.main(argv)
            except SystemExit as exit_:
                status = exit_.code
            except Exception as error:
                status = 1
                err.write(f"{type(error).__name__}: {error}")
            seconds = time.perf_counter() - start
        rows.append((command, status, out.getvalue().encode("utf-8"), seconds, err.getvalue().strip()[-300:]))
    return rows


# (metric, workload, span names): time inside the named functions during
# that workload's replay, with the number of outermost calls as samples.
SPAN_METRICS = (
    ("gring.kunneth_s", F, {"gring.kunneth_product"}),
    ("filtration.build_run_s", F, {"filtration.build_run"}),
    ("filtration.product_obstruction_s", F, {"filtration.product_obstruction"}),
    ("charclass.det_s", F, {"charclass.det_graded"}),
    ("gring.inverse_s", F, {"gring.invert_total_class"}),
    ("gring.make_ring_s", R, {"gring.make_ring"}),
    ("cli.json_load_s", R, {"cli.json_load"}),
    ("cli.serialize_s", R, {"cli.json_dumps"}),
    ("criteria.criterion_s", S, CRITERIA),
    ("criteria.verdict_s", S, {"criteria.nonexistence_verdict"}),
    ("charclass.porteous_s", S, PORTEOUS),
    ("symbols.codim_s", S, SYMBOLS),
    ("selfcheck.run_s", S, {"selfcheck.run_selfcheck"}),
)


def import_modules() -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {}
    for name in ("cli", "gring", "charclass", "criteria", "filtration", "symbols", "selfcheck"):
        try:
            modules[name] = importlib.import_module(f"jetstrata.{name}")
        except ImportError:
            pass
    return modules


def layer_metrics(spans: list, counters: dict, workloads: dict, directories: dict, passes: dict, gring) -> tuple[dict, float | None]:
    """Per-layer metrics from the spans and the counters the program's return
    values expose, as name -> (value, unit, samples); a metric no call reached
    is left out (not measured).  Also returns the ring-store seconds of the
    ring-session replay."""
    metrics = {}
    for name, workload, names in SPAN_METRICS:
        seconds, calls = inclusive(spans, workload, names)
        if calls:
            metrics[name] = (seconds, "s", calls)

    det_sizes = [span[5] for _, span in _spans_of(spans, F) if span[0] == "charclass.det_graded"]
    if det_sizes:
        metrics["charclass.det_size_max"] = (max(det_sizes), "count", len(det_sizes))
    for name, value in counters.get(F, {}).items():
        metrics[name] = (value, "count", 1)

    # Ring construction without the check, once per make_ring call the
    # ring-session replay made, on the same parsed document.
    ring_doc = workloads[R].files["ring.json"]
    store = None
    if "gring.make_ring_s" in metrics:
        make_ring, _, calls = metrics["gring.make_ring_s"]
        try:
            store = 0.0
            for _ in range(calls):
                start = time.perf_counter()
                ladder.store_only(gring, ring_doc)
                store += time.perf_counter() - start
        except TypeError:
            store = None
        if store is not None:
            metrics["gring.ring_store_s"] = (store, "s", calls)
            metrics["gring.assoc_check_s"] = (make_ring - store, "s", calls)

    emits = count(spans, R, "cli.emit")
    if emits and count(spans, R, "cli.json_dumps"):
        metrics["cli.emit_s"] = (self_times(spans, R)["cli.emit"], "s", emits)
    files = [a[1:] for command in workloads[R].commands for a in command.argv if a.startswith("@")]
    metrics["cli.input_bytes"] = (sum((directories[R] / f).stat().st_size for f in files), "bytes", len(files))
    metrics["cli.report_bytes"] = (sum(len(row[2]) for row in passes[R]), "bytes", len(passes[R]))
    return metrics, store


def traced(args, selected: gen.Workload, inputs: Path) -> tuple[dict, dict]:
    started = time.perf_counter()
    modules = import_modules()
    cli = modules["cli"]

    env = program_env()
    bare = setup_times(env, "pass", SETUP_SAMPLES)
    setup = setup_times(env, SETUP_CODE, SETUP_SAMPLES)

    workloads = {name: factory(args.seed) for name, factory in gen.WORKLOADS.items()}
    workloads[selected.name] = selected
    directories = {selected.name: inputs}
    for name, workload in workloads.items():
        if name != selected.name:
            directories[name] = inputs / name
            directories[name].mkdir()
            write_inputs(workload, directories[name])

    failures, attempted = [], 0

    def checked(rows):
        nonlocal attempted
        for command, status, stdout, _, stderr in rows:
            attempted += 1
            problem = check_output(command, status, stdout)
            if problem:
                failures.append(f"{' '.join(command.argv)}: {problem} {stderr}")
        return rows

    untraced_seconds = sum(row[3] for row in checked(replay(cli, selected, inputs)))
    tracer = Tracer()
    tracer.install(modules)
    passes = {}
    try:
        for name, workload in workloads.items():
            tracer.workload = name
            passes[name] = checked(replay(cli, workload, directories[name]))
    finally:
        tracer.uninstall()
    spans = tracer.spans
    pass_seconds = {name: sum(row[3] for row in rows) for name, rows in passes.items()}

    metrics, store = layer_metrics(spans, tracer.counters, workloads, directories, passes, modules.get("gring"))
    metrics["cli.bare_interpreter_s"] = (statistics.median(bare), "s", len(bare))
    metrics["cli.import_s"] = (statistics.median(setup) - statistics.median(bare), "s", len(setup))
    metrics["trace.overhead_s"] = (pass_seconds[selected.name] - untraced_seconds, "s", 1)
    metrics = dict(sorted(metrics.items(), key=lambda kv: PER_LAYER_ORDER.index(kv[0])))

    layer_self = {}
    for name in workloads:
        per_name = self_times(spans, name)
        if name == R and store is not None:
            per_name["gring.make_ring"] = store
            per_name["gring.assoc_check"] = metrics["gring.assoc_check_s"][0]
        layer_self[name] = dict(sorted(per_name.items(), key=lambda kv: -kv[1]))

    rungs = ladder.run_slice(selected.name, types.SimpleNamespace(**modules), args.seed, started + LADDER_START_LIMIT_S)

    info = predictions(metrics, layer_self, pass_seconds, statistics.median(setup), passes[S])
    info.update(input_figures(workloads))
    missing = [name for name in PER_LAYER_ORDER if name not in metrics]
    info["not_measured"] = ", ".join(tracer.not_bound + missing) or "none"
    for name, per_name in layer_self.items():
        per_layer: dict = {}
        for span_name, seconds in per_name.items():
            layer = span_name.split(".")[0]
            per_layer[layer] = per_layer.get(layer, 0.0) + seconds
        info[f"self time by layer, {name} replay"] = ", ".join(
            f"{layer} {seconds:.4g} s" for layer, seconds in sorted(per_layer.items(), key=lambda kv: -kv[1]))
    for row in rungs:
        info[f"ladder {row['ladder']} {row['rung']}"] = json.dumps(
            {k: v for k, v in row.items() if k not in ("ladder", "rung")})
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    info.update(attempted=attempted, failed=len(failures))

    record = {
        "workload": selected.name,
        "seed": args.seed,
        "pass_seconds": pass_seconds,
        "self_time": layer_self,
        "metrics": {name: value for name, (value, _, _) in metrics.items()},
        "not_measured": info["not_measured"],
        "ladder": rungs,
        "spans": [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "workload": s[4]} for s in spans],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{selected.name}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    info["spans_file"] = str(path.relative_to(ROOT))
    return metrics, info


def predictions(metrics: dict, layer_self: dict, pass_seconds: dict, setup: float, small_rows: list) -> dict:
    """The three checks the prediction table rests on, as information lines."""
    value = {name: v for name, (v, _, _) in metrics.items()}
    out = {}
    if "filtration.build_run_s" in value and "filtration.product_obstruction_s" in value:
        share = (value["filtration.build_run_s"] + value["filtration.product_obstruction_s"]) / pass_seconds[F]
        out["prediction filtration-depth2 build_run+product_obstruction share"] = (share, "1", 1)
    out["prediction filtration-depth2 make_ring share (bounds assoc check)"] = (
        layer_self[F].get("gring.make_ring", 0.0) / pass_seconds[F], "1", 1)
    largest = next(iter(layer_self[R]), None)
    out["prediction ring-session largest self time"] = f"{largest} ({layer_self[R].get(largest, 0.0):.4g} s)"
    median_small = statistics.median(row[3] for row in small_rows)
    out["prediction small-commands setup share of per-command time"] = (setup / (setup + median_small), "1", len(small_rows))
    return out
