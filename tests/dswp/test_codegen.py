"""Unit tests for the code generator (lowering, hoisting, comm insertion)."""


from repro.dswp.codegen import hoistable_ops, lower_pipeline, lower_single_threaded
from repro.dswp.ir import Loop, Op, OpKind, Sequential
from repro.dswp.partition import partition_loop
from repro.sim.isa import InstrKind
from repro.sim.config import baseline_config
from repro.sim.machine import Machine


def stream_loop(trip=8):
    return Loop(
        "s",
        [
            Op("ld", OpKind.LOAD, addr=Sequential(0x1000, stride=8)),
            Op("scale", OpKind.IALU, deps=("ld",)),
            Op("acc", OpKind.FALU, deps=("scale",), carried_deps=("acc",)),
            Op("st", OpKind.STORE, deps=("acc",), addr=Sequential(0x8000, stride=8)),
        ],
        trip_count=trip,
    )


def gather_loop(trip=8):
    return Loop(
        "g",
        [
            Op("idx", OpKind.LOAD, addr=Sequential(0x1000, stride=4)),
            Op("addr", OpKind.IALU, deps=("idx",)),
            Op("val", OpKind.LOAD, deps=("addr",), addr=Sequential(0x2000, stride=8)),
            Op("acc", OpKind.FALU, deps=("val",), carried_deps=("acc",)),
        ],
        trip_count=trip,
    )


class TestHoisting:
    def test_pure_loads_hoistable(self):
        assert hoistable_ops(stream_loop()) == {"ld"}

    def test_dependent_loads_not_hoistable(self):
        assert hoistable_ops(gather_loop()) == {"idx"}

    def test_instruction_counts_preserved(self):
        loop = stream_loop(trip=10)
        prog = lower_single_threaded(loop)
        instrs = list(prog.threads[0].instructions())
        loads = [i for i in instrs if i.kind is InstrKind.LOAD]
        stores = [i for i in instrs if i.kind is InstrKind.STORE]
        assert len(loads) == 10
        assert len(stores) == 10

    def test_hoisted_loads_emitted_early(self):
        loop = stream_loop(trip=10)
        prog = lower_single_threaded(loop, hoist_depth=3)
        instrs = list(prog.threads[0].instructions())
        # The first K+1 instructions are hoisted loads (the prologue).
        assert all(i.kind is InstrKind.LOAD for i in instrs[:4])

    def test_rotation_uses_distinct_registers(self):
        loop = stream_loop(trip=10)
        prog = lower_single_threaded(loop, hoist_depth=3)
        instrs = list(prog.threads[0].instructions())
        load_dests = {i.dest for i in instrs if i.kind is InstrKind.LOAD}
        assert len(load_dests) == 4  # K+1 rotating registers

    def test_no_hoisting_when_disabled(self):
        loop = stream_loop(trip=5)
        prog = lower_single_threaded(loop, hoist_depth=0)
        instrs = list(prog.threads[0].instructions())
        assert instrs[0].kind is InstrKind.LOAD
        load_dests = {i.dest for i in instrs if i.kind is InstrKind.LOAD}
        assert len(load_dests) == 1

    def test_addresses_in_stream_order(self):
        """Hoisting reorders emission, not the address sequence."""
        loop = stream_loop(trip=10)
        prog = lower_single_threaded(loop, hoist_depth=3)
        addrs = [
            i.addr
            for i in prog.threads[0].instructions()
            if i.kind is InstrKind.LOAD
        ]
        assert addrs == [0x1000 + 8 * k for k in range(10)]


class TestPartitionLowering:
    def test_two_threads_with_queue(self):
        p = partition_loop(stream_loop(trip=6))
        prog = lower_pipeline(p)
        assert prog.n_threads == 2
        assert prog.queue_endpoints  # at least one queue
        for qid, (prod, cons) in prog.queue_endpoints.items():
            assert (prod, cons) == (0, 1)

    def test_produce_consume_counts_match(self):
        p = partition_loop(stream_loop(trip=6))
        prog = lower_pipeline(p)
        produces = sum(
            1
            for i in prog.threads[0].instructions()
            if i.kind is InstrKind.PRODUCE
        )
        consumes = sum(
            1
            for i in prog.threads[1].instructions()
            if i.kind is InstrKind.CONSUME
        )
        assert produces == consumes == 6 * p.comm_ops_per_iteration()

    def test_loop_control_replicated(self):
        p = partition_loop(stream_loop(trip=6))
        prog = lower_pipeline(p)
        for thread in prog.threads:
            branches = sum(
                1
                for i in thread.instructions()
                if i.kind is InstrKind.BRANCH and i.tag == "loopbr"
            )
            assert branches == 6

    def test_builders_are_replayable(self):
        p = partition_loop(stream_loop(trip=4))
        prog = lower_pipeline(p)
        a = [i.kind for i in prog.threads[0].instructions()]
        b = [i.kind for i in prog.threads[0].instructions()]
        assert a == b

    def test_lowered_program_runs_on_machine(self):
        p = partition_loop(stream_loop(trip=16))
        prog = lower_pipeline(p)
        stats = Machine(baseline_config(), mechanism="heavywt").run(prog)
        assert stats.cycles > 0
        assert stats.consumer.consumes == 16 * p.comm_ops_per_iteration()

    def test_single_threaded_runs(self):
        prog = lower_single_threaded(stream_loop(trip=16))
        stats = Machine(baseline_config(), mechanism="heavywt").run(prog)
        assert stats.threads[0].consumes == 0

    def test_repeat_ops_produce_repeatedly(self):
        loop = Loop(
            "rep",
            [
                Op("src", OpKind.IALU, repeat=2),
                Op("use", OpKind.FALU, deps=("src",), carried_deps=("use",)),
            ],
            trip_count=3,
        )
        p = partition_loop(loop)
        prog = lower_pipeline(p)
        produces = sum(
            1
            for i in prog.threads[0].instructions()
            if i.kind is InstrKind.PRODUCE
        )
        assert produces == 6  # repeat 2 x trip 3
