"""Correctness gate: operation records, canonical hypergraph digests, the
seed-independent invariants of each workload, the pinned verdicts at the
default seed, and the exact-repeat comparison of fingerprints."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")
DEFAULT_SEED = 1


@dataclass
class Op:
    """One CLI command or one library certificate call."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Ledger:
    """Operations of one pipeline iteration plus what the gate concluded."""

    ops: list[Op] = field(default_factory=list)
    oracle_calls: int = 0
    inconclusive: int = 0

    def fail(self, name: str, detail: str) -> None:
        self.ops.append(Op(name, False, detail))

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        """Mark the latest operation called `name` failed when `ok` is false;
        a check on an operation that already failed changes nothing."""
        if ok:
            return
        for op in reversed(self.ops):
            if op.name == name:
                if op.ok:
                    op.ok = False
                    op.detail = detail
                return
        self.fail(name, detail)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)


def canonical_digest(hypergraph: dict) -> str:
    """sha256 over k, the vertex ids with exact reduced weights, and the
    sorted list of sorted edges; independent of JSON layout and order."""
    lines = [f"k={hypergraph['k']}"]
    for v in sorted(hypergraph["vertices"], key=lambda v: v["id"]):
        w = Fraction(v["weight"][0], v["weight"][1])
        lines.append(f"v {v['id']} {w.numerator}/{w.denominator}")
    for e in sorted(tuple(sorted(e)) for e in hypergraph["edges"]):
        lines.append("e " + " ".join(map(str, e)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def is_independent(hypergraph: dict, vertices) -> bool:
    chosen = set(vertices)
    return not any(all(v in chosen for v in e) for e in hypergraph["edges"])


def weight_of(hypergraph: dict, vertices) -> Fraction:
    weights = {v["id"]: Fraction(v["weight"][0], v["weight"][1]) for v in hypergraph["vertices"]}
    return sum((weights[v] for v in vertices), Fraction(0))


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def check_pinned(ledger: Ledger, workload: str, verdicts: dict, facts: dict,
                 expected: dict) -> None:
    """At the default seed, every verdict and content fact (canonical
    digests, sizes) must match the pinned values; a tampered or missing
    value is a failed operation."""
    pinned = expected.get(workload)
    if pinned is None:
        ledger.fail("pinned", f"no pinned values for {workload}")
        return
    for section, got in (("verdicts", verdicts), ("facts", facts)):
        got = json.loads(json.dumps(got))  # tuples read back as lists
        want = pinned.get(section, {})
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                ledger.fail(f"pinned.{section}.{key}",
                            f"expected {want.get(key)!r}, got {got.get(key)!r}")


def compare_fingerprints(ledger: Ledger, reference: dict, current: dict, what: str) -> None:
    """Exact-repeat check: counters, verdicts, digests and artifact bytes of
    two runs at one seed must be identical; a mismatch is a failed operation."""
    for key in sorted(set(reference) | set(current)):
        if reference.get(key) != current.get(key):
            ledger.fail(f"repeat.{key}",
                        f"{what}: {reference.get(key)!r} != {current.get(key)!r}")
