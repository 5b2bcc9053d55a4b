"""Checks of each command's output against the generator's expectations."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import gen

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def _lookup(report, path: str):
    node = report
    for part in path.split("."):
        node = node[int(part)] if isinstance(node, list) else node[part]
    return node


def check_output(command: gen.Command, status: int, stdout: bytes) -> str | None:
    """None when the output meets every expectation, else the first miss."""
    if status != 0:
        return f"exit status {status}"
    text = stdout.decode("utf-8", errors="replace")
    if command.expect.get("selfcheck"):
        lines = text.strip().splitlines()
        if not lines or any(line.startswith("FAIL") for line in lines):
            return "selfcheck reported a failure"
        words = lines[-1].split()
        if len(words) != 4 or words[0] != "passed" or not words[1].isdigit() or words[2:] != ["failed", "0"]:
            return f"unexpected selfcheck summary {lines[-1]!r}"
        return None
    try:
        report = json.loads(text)
    except json.JSONDecodeError as error:
        return f"stdout is not JSON: {error}"
    for path, expected in command.expect.items():
        try:
            actual = _lookup(report, path)
            if isinstance(expected, dict):
                actual = {term["label"]: term["coeff"] for term in actual}
        except (KeyError, IndexError, TypeError, ValueError):
            return f"{path} missing"
        if actual != expected:
            return f"{path} is {actual!r}, expected {expected!r}"
    return None


def digest_status(workload: str, seed: int, stdouts: list) -> str:
    digest = hashlib.sha256(b"\0".join(stdouts)).hexdigest()
    if seed != gen.DEFAULT_SEED:
        return f"not compared (seed {seed} is not the default {gen.DEFAULT_SEED}); sha256 {digest}"
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))["sha256"].get(workload)
    verdict = "matches" if recorded == digest else f"CHANGED from {recorded}"
    return f"{verdict}; sha256 {digest}"
