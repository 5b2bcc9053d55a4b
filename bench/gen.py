"""Seeded inputs and expected results for the three workloads.

Everything here is derived from the seed and from ``arith``; nothing imports
jetstrata, so a change to the program cannot change the inputs or the
expectations.  Sizes are fixed per workload; the seed varies coefficients and
command parameters only.

A workload is a dict of input documents (file name -> JSON value) and a list
of commands.  A command is its argv after ``jetstrata`` (an argument written
``@name`` is the path of input document ``name``) and its expectations: a map
from a dotted path into the JSON report to the value found there, where an
expected dict stands for a list of label/coeff terms.  ``{"selfcheck": True}``
expects the plain-text selfcheck summary instead of a report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb

from arith import TruncPoly, int_det, toeplitz_det, virtual_class

DEFAULT_SEED = 1
NOT_HOMOTOPIC = "NotHomotopicToRegular"
TENSOR = "⊗"


@dataclass
class Command:
    argv: list
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    files: dict
    commands: list


# -- closed forms ---------------------------------------------------------


def inclusion_lhs(n: int, p: int, i: int) -> int:
    return (p - n + i) * (i * (i + 1) // 2 - p + n) - i * i


def k_meets(k, bound: int) -> bool:
    return k == "inf" or k >= bound


def criterion_fields(kind: str, n: int, p: int, i: int, ell: int, k) -> dict:
    """Verdict, lhs, rhs, kRequired and shiftUsed of an inclusion criterion."""
    lhs = inclusion_lhs(n, p, i)
    if kind == "nonstable":
        ok = lhs >= n and k_meets(k, p + 1)
        return _criterion(ok, lhs, n, p + 1, 0)
    if kind == "w":
        ok = lhs >= n + ell and k_meets(k, p + ell + 1)
        return _criterion(ok, lhs, n + ell, p + ell + 1, 0)
    # Smallest shift m clearing both inequalities, if it is admissible:
    # i <= n-m, n-m >= 1, and p-m >= 2 whenever n >= p.
    low = max(0, n + ell - lhs, 0 if k == "inf" else p + ell + 1 - k)
    high = min(n - i, n - 1, p - 2 if n >= p else n)
    if low <= high:
        return _criterion(True, lhs, n - low + ell, p - low + ell + 1, low)
    return _criterion(False, lhs, n + ell, p + ell + 1, 0)


def _criterion(ok: bool, lhs: int, rhs: int, k_required: int, shift: int) -> dict:
    return {
        "verdict": "Established" if ok else "NotEstablished",
        "lhs": lhs,
        "rhs": rhs,
        "kRequired": k_required,
        "shiftUsed": shift,
    }


def stage_index(budget: int) -> int:
    """Smallest i >= 1 with 4i^3 - 2i^2 >= 4i^2 + budget."""
    i = 1
    while 4 * i**3 - 2 * i**2 < 4 * i**2 + budget:
        i += 1
    return i


def _prefixed(prefix: str, fields: dict) -> dict:
    return {f"{prefix}.{key}": value for key, value in fields.items()}


# -- bundles --------------------------------------------------------------


def random_total(rng: random.Random, ring: TruncPoly, max_degree: int, terms: int) -> dict:
    """1 plus ``terms`` random monomials of degree 1..max_degree; integer
    totals use only degrees divisible by 4."""
    step = 1 if ring.mod2 else 4
    pool = [e for e in ring.monomials if 0 < ring.degree(e) <= max_degree and ring.degree(e) % step == 0]
    total = ring.one()
    for e in rng.sample(pool, min(terms, len(pool))):
        total[e] = 1 if ring.mod2 else rng.choice([-3, -2, -1, 1, 2, 3])
    return total


def bundle_doc(ring: TruncPoly, positive: dict, negative: dict) -> dict:
    return {"totalPositive": ring.to_spec(positive), "totalNegativePulled": ring.to_spec(negative)}


def _draw_nonzero(rng, ring, max_degree, terms, obstruction):
    """Redraw bundle totals until ``obstruction(positive, negative)`` is nonzero."""
    for _ in range(1000):
        positive = random_total(rng, ring, max_degree, terms)
        negative = random_total(rng, ring, max_degree, terms)
        value = obstruction(positive, negative)
        if value:
            return positive, negative, value
    raise RuntimeError("no bundle draw gives a nonzero obstruction")


# -- filtration runs --------------------------------------------------------

# Stage dimensions are fixed by the schedule: 32, 72 and 128 for the budget
# ranges below; each stage ring has one generator.
_BUDGET_RANGES = ((0, 8), (9, 54), (55, 160), (161, 349))


def _stage(rng: random.Random, budget: int, gen_degree: int):
    index = stage_index(budget)
    dim = 8 * index * index
    ring = TruncPoly(["x"], [gen_degree], dim, mod2=False)

    def stage_det(positive, negative):
        # The class of index j sits in degree 4j, on x^(4j/g) when g divides 4j.
        total = ring.mul(positive, ring.inverse(negative))

        def coeff(j):
            if j < 0:
                return 0
            if j == 0:
                return 1
            return total.get((4 * j // gen_degree,), 0) if (4 * j) % gen_degree == 0 else 0

        return int_det([[coeff(index + s - t) for t in range(index)] for s in range(index)])

    positive, negative, det = _draw_nonzero(rng, ring, 4 * index, index, stage_det)
    obstruction = {ring.label((4 * index * index // gen_degree,)): det}
    return {
        "ring": ring.presentation((dim // gen_degree,)),
        "bundle": bundle_doc(ring, positive, negative),
    }, index, dim, obstruction


def run_document(rng: random.Random, gen_degrees) -> tuple[dict, dict]:
    """Run document of depth len(gen_degrees)-1 and its report expectations."""
    depth = len(gen_degrees) - 1
    schedule = [rng.randint(lo, hi) for lo, hi in _BUDGET_RANGES[: depth + 2]]
    stages, expect = [], {"verdict": "RunVerified"}
    built = [_stage(rng, schedule[t], g) for t, g in enumerate(gen_degrees)]
    for t, (doc, index, dim, obstruction) in enumerate(built):
        stages.append(doc)
        row = f"intermediates.stages.{t}"
        expect[f"{row}.kernelRank"] = 2 * index
        expect[f"{row}.dim"] = dim
        expect[f"{row}.budget"] = schedule[t]
        expect[f"{row}.stageObstruction.components"] = obstruction
        (label, coeff), = obstruction.items()
        factors = ["1"] * len(built)
        factors[t] = label
        expect[f"{row}.productObstruction.components"] = {TENSOR.join(factors): coeff}
    expect["intermediates.productTopDim"] = sum(b[2] for b in built)
    return {"d": depth, "schedule": schedule, "stages": stages}, expect


# -- workloads --------------------------------------------------------------


def filtration_depth2(seed: int) -> Workload:
    """One depth-2 run: stages of dimension 32/72/128 with generators of
    degree 4/4/8, a 2,907-label product basis."""
    rng = random.Random(f"filtration-depth2:{seed}")
    document, expect = run_document(rng, (4, 4, 8))
    return Workload(
        "filtration-depth2",
        {"run.json": document},
        [Command(["filtration", "run", "--spec", "@run.json"], expect)],
    )


SESSION_GENERATORS = (("a", 1), ("b", 2), ("c", 3), ("d", 4))
SESSION_TOP = 18


def session_ring(top: int = SESSION_TOP) -> TruncPoly:
    names, degrees = zip(*SESSION_GENERATORS)
    return TruncPoly(names, degrees, top, mod2=True)


def sw_expect(ring, positive, negative, i, n, p):
    """Mod-2 determinant class of kernel rank i and its report expectations."""
    size = p - n + i
    value = toeplitz_det(ring, positive, negative, i, size)
    return value, {
        "intermediates.obstruction.components": ring.to_labels(value),
        "intermediates.obstruction.expectedDegree": size * i,
    }


def ring_session(seed: int) -> Workload:
    """Two mod-2 determinant classes and one verdict on one 515-label ring."""
    rng = random.Random(f"ring-session:{seed}")
    ring = session_ring()
    dim = ring.top
    i_verdict = rng.choice([3, 4])
    ell = rng.randint(0, 5) if i_verdict == 3 else rng.randint(0, 12)
    positive, negative, _ = _draw_nonzero(
        rng, ring, 4, 3, lambda pos, neg: toeplitz_det(ring, pos, neg, i_verdict, i_verdict)
    )
    commands = []
    for i in rng.sample([1, 2, 3, 4], 2):
        value, expect = sw_expect(ring, positive, negative, i, dim, dim)
        expect["verdict"] = "Nonzero" if value else "Zero"
        argv = ["porteous", "--variant", "sw", "--ring", "@ring.json", "--bundle", "@bundle.json",
                "--i", str(i), "--n", str(dim), "--p", str(dim)]
        commands.append(Command(argv, expect))
    _, expect = sw_expect(ring, positive, negative, i_verdict, dim, dim)
    expect.update(_prefixed("intermediates.criterion", criterion_fields("stabilized", dim, dim, i_verdict, ell, "inf")))
    expect.update({"verdict": NOT_HOMOTOPIC, "intermediates.route": "sw"})
    argv = ["verdict", "--ring", "@ring.json", "--bundle", "@bundle.json", "--i", str(i_verdict),
            "--l", str(ell), "--k", "inf", "--target-dim", str(dim)]
    commands.append(Command(argv, expect))
    files = {
        "ring.json": ring.presentation(ring.monomials[-1]),
        "bundle.json": bundle_doc(ring, positive, negative),
    }
    return Workload("ring-session", files, commands)


def _random_symbol(rng: random.Random):
    while True:
        n, p = rng.randint(1, 12), rng.randint(1, 12)
        low = max(n - p + 1, 1)
        if low <= n:
            break
    first = rng.randint(low, n)
    entries = [first]
    for _ in range(rng.randint(0, 3)):
        entries.append(rng.randint(0, entries[-1]))
    return n, p, entries


def _codim(rng: random.Random) -> Command:
    n, p, entries = _random_symbol(rng)
    k = rng.choice(["inf", rng.randint(1, 6)])
    first = (p - n + entries[0]) * entries[0]
    tail = sum(e * (e + 1) for e in entries[1:]) // 2
    expect = {
        "intermediates.firstOrderCodim": first,
        "intermediates.bound": first + tail,
        "intermediates.tailSum": tail,
        "intermediates.length": len(entries),
    }
    if k != "inf":
        expect["intermediates.jetFiberDim"] = p * (comb(n + k, n) - 1)
    argv = ["codim", "--symbol", ",".join(map(str, entries)), "--n", str(n), "--p", str(p), "--k", str(k)]
    return Command(argv, expect)


def _criteria(rng: random.Random, kind: str) -> Command:
    while True:
        n, p, i = rng.randint(1, 30), rng.randint(1, 30), rng.randint(1, 8)
        if p - n + i >= 0:
            break
    ell = rng.randint(0, 20)
    k = rng.choice(["inf", rng.randint(1, 60)])
    fields = criterion_fields(kind, n, p, i, ell, k)
    expect = {"verdict": fields["verdict"], **_prefixed("intermediates", fields)}
    argv = ["criteria", kind, "--n", str(n), "--p", str(p), "--i", str(i), "--k", str(k)]
    if kind != "nonstable":
        argv += ["--l", str(ell)]
    return Command(argv, expect)


def _next_index(rng: random.Random) -> Command:
    budget = rng.randint(0, 10**6)
    index = stage_index(budget)
    expect = {"intermediates.index": index, "intermediates.stageDim": 8 * index * index}
    return Command(["filtration", "next-index", "--l", str(budget)], expect)


SMALL_INT = TruncPoly(["u", "v"], [4, 4], 8, mod2=False)
SMALL_MOD2 = TruncPoly(["w", "z"], [1, 2], 8, mod2=True)


def _wtable_value(positive, negative):
    ring = SMALL_INT
    first = virtual_class(ring, positive, negative, 1)
    second = virtual_class(ring, positive, negative, 2)
    return ring.add(ring.scale(second, 9), ring.scale(ring.mul(first, first), 3))


def _small_bundle(rng, files, ring, obstruction):
    positive, negative, value = _draw_nonzero(rng, ring, ring.top, 2, obstruction)
    name = f"bundle{len(files)}.json"
    files[name] = bundle_doc(ring, positive, negative)
    return "@" + name, value


def _wtable(rng, files) -> Command:
    p = rng.choice([5, 6, 7, 8])
    bundle, value = _small_bundle(rng, files, SMALL_INT, _wtable_value)
    value = value if p == 8 else {}
    expect = {"verdict": "Nonzero" if value else "Zero", "intermediates.obstruction.components": SMALL_INT.to_labels(value)}
    return Command(["wtable", "--p", str(p), "--ring", "@int8.json", "--bundle", bundle], expect)


def _porteous(rng, files) -> Command:
    if rng.random() < 0.5:
        i, n, p = rng.choice([(2, 8, 8), (4, 10, 8)])
        center = i // 2
        size = center - (n - p) // 2
        bundle, value = _small_bundle(
            rng, files, SMALL_INT, lambda pos, neg: toeplitz_det(SMALL_INT, pos, neg, center, size)
        )
        variant, ring_file, ring = "pontrjagin", "@int8.json", SMALL_INT
    else:
        i, n, p = rng.choice([(1, 8, 8), (2, 8, 8), (1, 8, 9), (1, 8, 10)])
        bundle, value = _small_bundle(
            rng, files, SMALL_MOD2, lambda pos, neg: toeplitz_det(SMALL_MOD2, pos, neg, i, p - n + i)
        )
        variant, ring_file, ring = "sw", "@mod2_8.json", SMALL_MOD2
    expect = {"verdict": "Nonzero", "intermediates.obstruction.components": ring.to_labels(value)}
    argv = ["porteous", "--variant", variant, "--ring", ring_file, "--bundle", bundle,
            "--i", str(i), "--n", str(n), "--p", str(p)]
    return Command(argv, expect)


def _verdict(rng, files) -> Command:
    route = rng.choice(["wtable", "pontrjagin", "sw"])
    k = rng.choice(["inf", rng.randint(10, 40)])
    if route == "wtable":
        ring, ring_file, ell = SMALL_INT, "@int8.json", 7
        bundle, value = _small_bundle(rng, files, ring, _wtable_value)
        criterion = _criterion(True, 0, 0, 10, 0)
    else:
        ring, ring_file = (SMALL_INT, "@int8.json") if route == "pontrjagin" else (SMALL_MOD2, "@mod2_8.json")
        ell = 0
        center = 1 if route == "pontrjagin" else 2
        bundle, value = _small_bundle(
            rng, files, ring, lambda pos, neg: toeplitz_det(ring, pos, neg, center, center)
        )
        criterion = criterion_fields("stabilized", 8, 8, 2, ell, k)
    expect = {
        "verdict": NOT_HOMOTOPIC,
        "intermediates.route": route,
        "intermediates.obstruction.components": ring.to_labels(value),
        **_prefixed("intermediates.criterion", criterion),
    }
    argv = ["verdict", "--ring", ring_file, "--bundle", bundle, "--i", "2", "--l", str(ell),
            "--k", str(k), "--target-dim", "8"]
    return Command(argv, expect)


def _small_run(rng, files, depth: int) -> Command:
    document, expect = run_document(rng, (4,) * (depth + 1))
    name = f"run{len(files)}.json"
    files[name] = document
    return Command(["filtration", "run", "--spec", "@" + name], expect)


# Command kinds of one small-commands sequence.  No usage data says how often
# each is run, so every kind gets the same count: 11 kinds x 9 = 99 commands.
SMALL_KINDS = (
    "codim", "nonstable", "w", "stabilized", "next-index",
    "wtable", "porteous", "verdict", "run0", "run1", "selfcheck",
)
SMALL_PER_KIND = 9


def small_commands(seed: int) -> Workload:
    """Ninety-nine cheap commands, nine of each kind, in a seeded order."""
    rng = random.Random(f"small-commands:{seed}")
    files = {
        "int8.json": SMALL_INT.presentation(SMALL_INT.monomials[-1]),
        "mod2_8.json": SMALL_MOD2.presentation(SMALL_MOD2.monomials[-1]),
    }
    kinds = [kind for kind in SMALL_KINDS for _ in range(SMALL_PER_KIND)]
    rng.shuffle(kinds)
    commands = []
    for kind in kinds:
        if kind == "codim":
            commands.append(_codim(rng))
        elif kind in ("nonstable", "w", "stabilized"):
            commands.append(_criteria(rng, kind))
        elif kind == "next-index":
            commands.append(_next_index(rng))
        elif kind == "wtable":
            commands.append(_wtable(rng, files))
        elif kind == "porteous":
            commands.append(_porteous(rng, files))
        elif kind == "verdict":
            commands.append(_verdict(rng, files))
        elif kind in ("run0", "run1"):
            commands.append(_small_run(rng, files, int(kind[-1])))
        else:
            commands.append(Command(["selfcheck"], {"selfcheck": True}))
    return Workload("small-commands", files, commands)


WORKLOADS = {
    "filtration-depth2": filtration_depth2,
    "ring-session": ring_session,
    "small-commands": small_commands,
}
