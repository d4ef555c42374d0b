"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in this process and prints every metric as
``name value unit``, then, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer ones, and the spans are written to
``.perfbench/spans-<workload>-seed<n>.json``.  Wrong outputs are counted
in ``failed`` (and make ``correct`` false); the exit status is non-zero
only when the benchmark itself cannot run, e.g. when the program's
sources under ``src/`` are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class HarnessError(Exception):
    pass


def _import_program() -> None:
    """Make ``repro`` importable from this checkout's ``src`` only."""
    sys.path[:] = [ROOT, SRC] + [p for p in sys.path[1:] if p not in (ROOT, SRC)]
    try:
        import repro
    except ImportError as exc:
        raise HarnessError("cannot import the program from %s: %s" % (SRC, exc))
    location = os.path.abspath(repro.__file__)
    if not location.startswith(SRC + os.sep):
        raise HarnessError("repro imported from %s, not from %s" % (location, SRC))


def _metric_specs(trace: bool):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        raise HarnessError("cannot read BENCHMARK.json: %s" % exc)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


_STARTED = time.perf_counter()


def _log(message: str) -> None:
    print("[perfbench %5.1fs] %s" % (time.perf_counter() - _STARTED, message), file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
        specs = _metric_specs(bool(args.trace))
        from perfbench import batch, stream
        from perfbench.harness import WORK_ROOT
        from perfbench.inputs import WORKLOADS

        if args.workload not in WORKLOADS:
            raise HarnessError("unknown workload %r (expected one of %s)"
                               % (args.workload, ", ".join(WORKLOADS)))
        runner = batch.run if WORKLOADS[args.workload].kind == "batch" else stream.run
        outcome = runner(args.workload, args.seed, args.seconds, bool(args.trace), _log)
        values = outcome.per_layer if args.trace else outcome.end_to_end
        names = {name for name, _unit in specs}
        unknown = sorted(set(values) - names)
        if unknown:
            raise HarnessError("metrics missing from BENCHMARK.json: %s" % unknown)
        if args.trace:
            # A layer the workload never runs reads 0 (e.g. checkpoint
            # writes in a batch workload).
            values = {name: values.get(name, 0.0) for name in names}
            if outcome.tracer is not None:
                os.makedirs(WORK_ROOT, exist_ok=True)
                outcome.tracer.dump(os.path.join(
                    WORK_ROOT, "spans-%s-seed%d.json" % (args.workload, args.seed)
                ))
        else:
            missing = sorted(names - set(values))
            if missing:
                raise HarnessError("end-to-end metrics not measured: %s" % missing)
    except HarnessError as exc:
        _log("error: %s" % exc)
        return 2
    checks = outcome.checks
    for problem in checks.problems:
        _log("failed check: %s" % problem)
    metrics = {}
    for name, unit in specs:
        value = float(values[name])
        print("%s %r %s" % (name, value, unit))
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
