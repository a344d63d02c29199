"""One workload process: import the program, then run the workload's
pipeline in a closed loop for the given number of seconds.

The first thing this process does is import `gadgetlab.cli` from the
checkout's `src/`; the CLOCK_MONOTONIC reading taken right after, compared
with the parent's reading at spawn time, gives the set-up time. With
`--probe` the process stops there. Results go to the `--result` JSON file.
"""
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

_t0 = time.monotonic()
import gadgetlab.boolfn  # noqa: E402  (scipy.integrate dominates set-up)
_t1 = time.monotonic()
import gadgetlab.cli  # noqa: E402,F401
READY = time.monotonic()
IMPORTS = {"boolfn.import_s": _t1 - _t0, "cli.import_s": READY - _t0}

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

import gadgetlab  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402


def reference_loop() -> int:
    """Fixed pure-Python work (dict and integer operations, like the
    pipelines' inner loops) that takes about 10 ms. Timed next to every
    iteration, it measures how fast the shared machine runs at that moment.
    It creates no garbage-collected objects, so the size of the program's
    heap does not change its duration."""
    table: dict = {}
    acc = 0
    for i in range(40000):
        key = (i * 2654435761) & 4095
        acc += table.get(key, 0) ^ i
        table[key] = acc & 0xFFFF
    return acc


def reference_times() -> list[float]:
    """Two timings of the reference loop; an iteration gets two before and
    two after, and the median of the four is its machine-speed reading."""
    out = []
    for _ in range(2):
        t0 = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - t0)
    return out


def run(args) -> dict:
    from gate import Ledger, compare_fingerprints
    from workloads import WORKLOADS

    Path(args.work).mkdir(parents=True, exist_ok=True)
    os.chdir(args.work)
    wl = WORKLOADS[args.workload](args.seed)
    wl.prepare()
    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer, self_time_by_name
        tracer = Tracer()
        tracer.install(layers.targets())

    walls: list[float] = []
    refs: list[float] = []
    ops = failed = oracle_calls = inconclusive = 0
    failures: list[str] = []
    reference = first = None
    deadline = time.perf_counter() + args.seconds
    real_stdout, sys.stdout = sys.stdout, io.StringIO()  # the CLI's progress lines
    try:
        while not walls or time.perf_counter() < deadline:
            shutil.rmtree(wl.out)
            wl.out.mkdir()
            sys.stdout.seek(0)
            sys.stdout.truncate()
            ledger = Ledger()
            before = reference_times()
            if tracer:
                tracer.begin_iteration()
            try:
                with tracer.span("pipeline") if tracer else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    state = wl.iteration(ledger)
                    t1 = time.perf_counter()
                after = reference_times()
                verdicts, observed, facts, files = wl.check(ledger, state, full=not walls)
            except Exception as exc:  # a pipeline that cannot finish ends the loop
                failures.append(f"iteration {len(walls)}: {type(exc).__name__}: {exc}")
                ops += ledger.attempted + 1
                failed += ledger.failed + 1
                break
            fingerprint = {**{f"verdict.{k}": v for k, v in verdicts.items()},
                           **{f"observed.{k}": v for k, v in observed.items()}, **files}
            if tracer:
                fingerprint.update({f"counter.{k}": v
                                    for k, v in sorted(tracer.counters[-1].items())})
            if reference is None:
                reference = fingerprint
                first = {"verdicts": verdicts, "facts": facts, "fingerprint": fingerprint}
            else:
                compare_fingerprints(ledger, reference, fingerprint,
                                     f"iteration {len(walls)} vs iteration 0")
            walls.append(t1 - t0)
            refs.append(statistics.median(before + after))
            ops += ledger.attempted
            failed += ledger.failed
            oracle_calls += ledger.oracle_calls
            inconclusive += ledger.inconclusive
            failures.extend(f"iteration {len(walls) - 1}: {op.name}: {op.detail}"
                            for op in ledger.ops if not op.ok)
    finally:
        sys.stdout = real_stdout
        if tracer:
            tracer.uninstall()

    out = {"traced": bool(tracer), "walls": walls, "refs": refs, "attempted": ops,
           "failed": failed, "oracle_calls": oracle_calls,
           "inconclusive": inconclusive, "failures": failures[:50], **(first or {})}
    if tracer and walls:
        iters = set(range(len(walls)))
        self_s = self_time_by_name(tracer.spans, iters)
        counters: dict[str, float] = {}
        for bucket in tracer.counters:
            for k, v in bucket.items():
                counters[k] = counters.get(k, 0) + v
        out["layers"] = {k: list(v) for k, v in
                         layers.layer_metrics(args.workload, self_s, counters, len(walls)).items()}
        out["self_s_total"] = sum(v for k, v in self_s.items() if k != "pipeline") / len(walls)
        out["spans"] = [[s.name, s.start, s.end, s.parent, s.iteration] for s in tracer.spans]
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--result", required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--work")
    args = p.parse_args()
    result = {"ready": READY, "imports": IMPORTS, "gadgetlab_file": gadgetlab.__file__,
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    if not args.probe:
        result.update(run(args))
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
