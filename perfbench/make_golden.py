"""Regenerate ``golden.json``, the committed output oracle.

    python3 perfbench/make_golden.py [--seeds 0-9] [--workloads a,b]

For every workload and seed, each subject's trace is analysed by
``JPortal.analyze_trace`` with the ``array`` and the ``object`` decode
engine; the two digests must agree.  For the stream workload the trace
is also written as the archive the stream rounds produce and analysed by
``analyze_archive``, which must agree too.  Only a change that redefines
the benchmark (its inputs or its digest) regenerates this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.harness import WORK_ROOT  # noqa: E402
from perfbench.inputs import SEGMENT_PACKETS, WORKLOADS, make_jportal, prepare  # noqa: E402
from perfbench.oracle import GOLDEN_PATH, digest_result, load_golden  # noqa: E402
from repro.core.metadata import collect_metadata  # noqa: E402
from repro.pt.archive import write_archive  # noqa: E402


def _seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def golden_digests(workload: str, seed: int, workdir: str):
    prepared, _setup = prepare(workload, seed, repeats=1)
    digests = {}
    for item in prepared:
        array = digest_result(item.jportal.analyze_trace(item.trace, collect_metadata(item.run)))
        object_ = digest_result(
            make_jportal(item.subject, item.run, engine="object").analyze_trace(
                item.trace, collect_metadata(item.run)
            )
        )
        if array != object_:
            raise SystemExit("%s seed %d %s: array %s != object %s"
                             % (workload, seed, item.name, array, object_))
        if WORKLOADS[workload].kind == "stream":
            path = os.path.join(workdir, "%s.rpt2" % item.name)
            write_archive(item.trace, item.database, path, segment_packets=SEGMENT_PACKETS)
            archived = digest_result(item.jportal.analyze_archive(path))
            if archived != array:
                raise SystemExit("%s seed %d %s: archive %s != trace %s"
                                 % (workload, seed, item.name, archived, array))
        digests[item.name] = array
        print("%s seed %d %s %s" % (workload, seed, item.name, array), flush=True)
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0", help="e.g. 0-9 or 0,3,5")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    golden = load_golden()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="golden-", dir=WORK_ROOT)
    try:
        for workload in args.workloads.split(","):
            for seed in _seeds(args.seeds):
                golden.setdefault(workload, {})[str(seed)] = golden_digests(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
