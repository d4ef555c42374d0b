"""Unit tests for the observed-trace columns and the JIT-mode lifter."""

from dataclasses import replace

import pytest

from repro.core.batchflow import JitLifter
from repro.core.metadata import CodeDatabase, collect_metadata
from repro.core.metrics import MetricsRegistry
from repro.core.multicore import split_by_thread
from repro.core.observed import ObservedColumns, ObservedHole, ObservedStep
from repro.jvm.jit import JITPolicy
from repro.jvm.opcodes import Op
from repro.jvm.runtime import RuntimeConfig, run_program
from repro.pt.decoder import LIFT_STALE
from repro.pt.perf import collect

from ..conftest import build_figure2_program, decode_columns, lossless_config


def _columns(layout):
    """Columns built from *layout*: ``"s"`` emits a step, ``"h"`` a hole;
    each entry's index is its timestamp."""
    columns = ObservedColumns(0)
    for tsc, kind in enumerate(layout):
        if kind == "h":
            columns.add_hole(tsc, tsc + 10, 0, False)
            continue
        columns.symbols.append(Op.NOP)
        columns.takens.append(None)
        columns.locations.append(None)
        columns.sources.append("interp")
        columns.tscs.append(tsc)
    return columns


class TestObservedColumns:
    def test_holes_split_segments(self):
        columns = _columns("sshshhs")
        assert columns.hole_positions == [2, 3, 3]
        assert columns.segment_ranges() == [(0, 2), (2, 3), (3, 4)]

    def test_segments_without_holes(self):
        columns = _columns("ss")
        assert columns.segment_ranges() == [(0, 2)]
        assert columns.holes() == []

    def test_leading_and_trailing_holes(self):
        columns = _columns("hsh")
        assert columns.hole_positions == [0, 1]
        assert columns.segment_ranges() == [(0, 1)]
        assert len(columns.holes()) == 2

    def test_consecutive_holes_leave_no_empty_segment(self):
        columns = _columns("shhhs")
        assert columns.hole_positions == [1, 1, 1]
        assert columns.segment_ranges() == [(0, 1), (1, 2)]
        assert _columns("hh").segment_ranges() == []

    def test_steps_and_holes_views(self):
        columns = _columns("shs")
        steps = columns.steps()
        assert steps == [
            ObservedStep(Op.NOP, None, None, "interp", 0),
            ObservedStep(Op.NOP, None, None, "interp", 2),
        ]
        assert columns.holes() == [ObservedHole(start_tsc=1, end_tsc=11)]
        assert [type(item) for item in columns.items] == [
            ObservedStep,
            ObservedHole,
            ObservedStep,
        ]
        # A hole recorded after the view was built shows up in it.
        columns.add_hole(3, 4, 0, True)
        assert type(columns.items[-1]) is ObservedHole
        assert len(columns.holes()) == 2

    def test_hole_duration(self):
        hole = ObservedHole(start_tsc=5, end_tsc=25)
        assert hole.duration == 20
        assert ObservedHole(start_tsc=9, end_tsc=3).duration == 0


@pytest.fixture(scope="module")
def figure2():
    """A single-threaded Figure 2 run that JIT-compiles ``Test.fun``."""
    program = build_figure2_program(iterations=30)
    run = run_program(
        program, RuntimeConfig(cores=1, jit=JITPolicy(hot_threshold=5))
    )
    (thread,) = split_by_thread(collect(run, lossless_config())).values()
    return {
        "program": program,
        "run": run,
        "database": collect_metadata(run),
        "stream": thread.stream,
    }


def _with_innermost(database, rewrite):
    """*database* with every debug record's innermost frame rewritten."""
    dumps = [
        replace(
            dump,
            debug={
                address: frames[:-1] + (rewrite(frames[-1]),)
                for address, frames in dump.debug.items()
            },
        )
        for dump in database.code_dumps
    ]
    return CodeDatabase(database.template_metadata, dumps, database.address_space)


def _decode(figure2, database, metrics=None):
    return decode_columns(
        figure2["stream"], database, figure2["program"], metrics=metrics
    )[1]


class TestJitLifter:
    def test_lifted_ops_match_the_bytecode_at_their_location(self, figure2):
        program = figure2["program"]
        columns = _decode(figure2, figure2["database"])
        lifted = [
            (op, location)
            for op, location, source in zip(
                columns.symbols, columns.locations, columns.sources
            )
            if source == "jit"
        ]
        assert lifted
        for op, (qname, bci) in lifted:
            assert qname == "Test.fun"
            assert op is program.method("Test", "fun").code[bci].op

    def test_block_template_matches_per_address_lift(self, figure2):
        """The cached block path and the per-address path agree; the
        ``body_*`` columns stop short of the block's last address."""
        database = figure2["database"]
        lifter = JitLifter(database, figure2["program"])
        code = figure2["run"].code_cache.lookup("Test.fun")
        for mi in code.instructions:
            block = database.walk_block(mi.address)
            template = lifter.block_template(block)
            lifted = [lifter.lift_one(address, None) for address in block.addresses]
            assert list(zip(template.ops, template.locs)) == [
                step for step in lifted if step is not None
            ]
            assert list(zip(template.body_ops, template.body_locs)) == [
                step for step in lifted[:-1] if step is not None
            ]
            assert template.stale == template.body_stale == 0
            assert lifter.block_template(block) is template

    def test_synthetic_instructions_and_negative_bcis_are_skipped(self, figure2):
        database = figure2["database"]
        (dump,) = database.code_dumps
        lifter = JitLifter(database, figure2["program"])
        synthetic = [
            mi.address for mi in dump.instructions if mi.address not in dump.debug
        ]
        assert synthetic
        assert [lifter.lift_one(address, None) for address in synthetic] == [
            None
        ] * len(synthetic)
        marked = _with_innermost(database, lambda frame: (frame[0], -1))
        marked_lifter = JitLifter(marked, figure2["program"])
        assert all(
            marked_lifter.lift_one(address, None) is None for address in dump.debug
        )
        template = marked_lifter.block_template(marked.walk_block(dump.entry))
        assert template.count == 0 and template.stale == 0

    def test_unknown_address_lifts_to_none(self, figure2):
        lifter = JitLifter(figure2["database"], figure2["program"])
        assert lifter.lift_one(0xDEAD, 0) is None

    def test_stale_debug_record_is_counted(self, figure2):
        stale = _with_innermost(
            figure2["database"], lambda frame: ("Test.gone", frame[1])
        )
        (dump,) = stale.code_dumps
        lifter = JitLifter(stale, figure2["program"])
        assert all(
            lifter.lift_one(address, None) is LIFT_STALE for address in dump.debug
        )
        assert lifter.block_template(stale.walk_block(dump.entry)).stale > 0
        clean = _decode(figure2, figure2["database"])
        metrics = MetricsRegistry()
        columns = _decode(figure2, stale, metrics)
        lifted = clean.sources.count("jit")
        assert lifted > 0
        # Walking never reads debug info: the interpreted steps are
        # unchanged, and every step the clean decode lifted from compiled
        # code is now a counted stale record instead.
        assert columns.sources == ["interp"] * clean.sources.count("interp")
        assert metrics.counter("lift.stale_debug_entries", tid=0) == lifted
