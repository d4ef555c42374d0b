"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core import JPortal
from repro.core.batchflow import JitLifter
from repro.core.observed import ObservedColumns
from repro.jvm.assembler import MethodAssembler
from repro.jvm.jit import JITPolicy
from repro.jvm.model import JClass, JProgram
from repro.jvm.runtime import JVMRuntime, RuntimeConfig
from repro.jvm.verifier import verify_program
from repro.pt.buffer import RingBufferConfig
from repro.pt.decoder import PTBatchDecoder
from repro.pt.perf import PTConfig

#: A buffer so large that nothing is ever lost.
LOSSLESS = PTConfig(
    buffer=RingBufferConfig(capacity_bytes=10**9, drain_bandwidth=1e9)
)


def lossless_config() -> PTConfig:
    return PTConfig(
        buffer=RingBufferConfig(capacity_bytes=10**9, drain_bandwidth=1e9)
    )


def lossy_config(capacity: int = 900, bandwidth: float = 0.35) -> PTConfig:
    return PTConfig(
        buffer=RingBufferConfig(capacity_bytes=capacity, drain_bandwidth=bandwidth)
    )


def build_figure2_program(iterations: int = 50) -> JProgram:
    """The paper's Figure 2 example: ``Test.fun`` driven by a loop.

    ``fun(a, b)``: if a then b+1 else b-2; return (b % 2 == 0).
    """
    fun = MethodAssembler("Test", "fun", arg_count=2, returns_value=True)
    fun.load(0).ifeq("else_")
    fun.load(1).const(1).iadd().store(1).goto("join")
    fun.label("else_")
    fun.load(1).const(2).isub().store(1)
    fun.label("join")
    fun.load(1).const(2).irem().ifne("false_")
    fun.const(1).ireturn()
    fun.label("false_")
    fun.const(0).ireturn()

    main = MethodAssembler("Test", "main", arg_count=0, returns_value=True)
    main.const(0).store(0)
    main.const(0).store(1)
    main.label("head")
    main.load(0).const(iterations).if_icmpge("done")
    main.load(0).const(2).irem()
    main.load(0)
    main.invokestatic("Test", "fun", 2, True)
    main.load(1).iadd().store(1)
    main.iinc(0, 1).goto("head")
    main.label("done")
    main.load(1).ireturn()

    cls = JClass("Test")
    cls.add_method(fun.build())
    cls.add_method(main.build())
    program = JProgram("figure2")
    program.add_class(cls)
    program.set_entry("Test", "main")
    verify_program(program)
    return program


def run_program_traced(
    program: JProgram,
    cores: int = 1,
    hot_threshold: int = 10,
    inlining: bool = True,
    **config_overrides,
):
    """Run *program*'s entry method under a deterministic config."""
    config = RuntimeConfig(
        cores=cores,
        jit=JITPolicy(hot_threshold=hot_threshold, enable_inlining=inlining),
    )
    for key, value in config_overrides.items():
        setattr(config, key, value)
    runtime = JVMRuntime(program, config)
    runtime.add_thread(name="main")
    return runtime.run()


def decode_columns(stream, database, program, tid: int = 0, **options):
    """Decode one thread's merged stream the way the pipeline does:
    :class:`PTBatchDecoder` lifting compiled code through a
    :class:`JitLifter` into :class:`ObservedColumns`.  *options* go to the
    decoder (``metrics``, ``policy``).  Returns ``(decoder, columns)``."""
    decoder = PTBatchDecoder(
        database, JitLifter(database, program), tid=tid, **options
    )
    return decoder, decoder.decode_into(stream, ObservedColumns(tid))


def analyze_lossless(program: JProgram, run):
    """Full JPortal analysis with a lossless buffer."""
    return JPortal(program).analyze_run(run, lossless_config())


@pytest.fixture
def figure2():
    return build_figure2_program()
