"""Unit tests for the loop IR and address patterns."""

import itertools
import random

import pytest

from repro.dswp.ir import Loop, Op, OpKind, PointerChase, Sequential, Strided


def take(stream, n):
    return list(itertools.islice(stream, n))


class TestAddressPatterns:
    def test_sequential_strides_and_wraps(self):
        pat = Sequential(base=100, stride=8, footprint=32)
        assert take(pat.stream(), 6) == [100, 108, 116, 124, 100, 108]

    def test_sequential_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Sequential(base=0, stride=0)

    def test_strided_deterministic(self):
        a = take(Strided(base=0, seed=7).stream(), 20)
        b = take(Strided(base=0, seed=7).stream(), 20)
        assert a == b

    def test_strided_seed_changes_stream(self):
        a = take(Strided(base=0, seed=7).stream(), 20)
        b = take(Strided(base=0, seed=8).stream(), 20)
        assert a != b

    def test_strided_in_bounds(self):
        pat = Strided(base=1000, stride=8, n_elements=16)
        for addr in take(pat.stream(), 100):
            assert 1000 <= addr < 1000 + 16 * 8

    def test_pointer_chase_visits_all_nodes(self):
        pat = PointerChase(base=0, node_bytes=64, n_nodes=16, seed=1)
        addrs = take(pat.stream(), 16)
        assert len(set(addrs)) == 16  # a full tour before repeating

    def test_pointer_chase_addresses_match_a_per_stream_shuffle(self):
        """mcf's chases read one cached visit order; the addresses are the
        ones a fresh shuffle per stream produced, across the wrap."""
        from repro.workloads.kernels import mcf_loop

        chases = [op.addr for op in mcf_loop(8).body if isinstance(op.addr, PointerChase)]
        assert len({(p.n_nodes, p.seed) for p in chases}) == 4
        for pat in chases:
            order = list(range(pat.n_nodes))
            random.Random(pat.seed).shuffle(order)
            want = [pat.base + order[i % pat.n_nodes] * pat.node_bytes
                    for i in range(2 * pat.n_nodes)]
            assert take(pat.stream(), 2 * pat.n_nodes) == want
            assert take(pat.stream(), 2 * pat.n_nodes) == want  # second stream

    def test_pointer_chase_cyclic(self):
        pat = PointerChase(base=0, node_bytes=64, n_nodes=8, seed=1)
        first = take(pat.stream(), 8)
        second = take(pat.stream(), 16)[8:]
        assert first == second


class TestOp:
    def test_memory_op_requires_pattern(self):
        with pytest.raises(ValueError):
            Op("x", OpKind.LOAD)

    def test_alu_op_rejects_pattern(self):
        with pytest.raises(ValueError):
            Op("x", OpKind.IALU, addr=Sequential(0))

    def test_default_weights(self):
        assert Op("x", OpKind.FALU).est_weight == 4.0
        assert Op("x", OpKind.IALU).est_weight == 1.0

    def test_repeat_scales_weight(self):
        assert Op("x", OpKind.IALU, repeat=3).est_weight == 3.0

    def test_explicit_weight(self):
        assert Op("x", OpKind.IALU, weight=7.0).est_weight == 7.0

    def test_repeat_positive(self):
        with pytest.raises(ValueError):
            Op("x", OpKind.IALU, repeat=0)


class TestLoop:
    def test_duplicate_op_ids_rejected(self):
        with pytest.raises(ValueError):
            Loop("l", [Op("a", OpKind.IALU), Op("a", OpKind.IALU)])

    def test_unknown_dep_rejected(self):
        with pytest.raises(ValueError):
            Loop("l", [Op("a", OpKind.IALU, deps=("ghost",))])

    def test_forward_intra_dep_rejected(self):
        with pytest.raises(ValueError):
            Loop(
                "l",
                [Op("a", OpKind.IALU, deps=("b",)), Op("b", OpKind.IALU)],
            )

    def test_carried_dep_may_be_forward(self):
        Loop(
            "l",
            [Op("a", OpKind.IALU, carried_deps=("b",)), Op("b", OpKind.IALU)],
        )

    def test_self_carried_dep(self):
        Loop("l", [Op("a", OpKind.IALU, carried_deps=("a",))])

    def test_trip_count_positive(self):
        with pytest.raises(ValueError):
            Loop("l", [Op("a", OpKind.IALU)], trip_count=0)

    def test_op_lookup(self):
        loop = Loop("l", [Op("a", OpKind.IALU), Op("b", OpKind.BRANCH, deps=("a",))])
        assert loop.op("b").kind is OpKind.BRANCH
        with pytest.raises(KeyError):
            loop.op("z")

    def test_dynamic_instructions(self):
        loop = Loop(
            "l",
            [Op("a", OpKind.IALU, repeat=2), Op("b", OpKind.IALU)],
            trip_count=10,
        )
        assert loop.dynamic_instructions() == 30

    def test_total_weight(self):
        loop = Loop("l", [Op("a", OpKind.FALU), Op("b", OpKind.IALU)])
        assert loop.total_weight() == 5.0
