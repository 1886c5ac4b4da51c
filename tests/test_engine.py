"""The batch engine: compiled-vs-interpreted equivalence and the batch API."""

import random
import sys
import threading

import pytest

from repro.engine import Engine, compile_netlist, engine_for, engine_for_netlist
from repro.galois.field import GF2mField
from repro.galois.pentanomials import type_ii_pentanomial
from repro.multipliers.registry import ALL_GENERATORS, generate_multiplier
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import multiply_with_netlist, multiply_words, simulate_words

MODULUS = type_ii_pentanomial(13, 5)
FIELD = GF2mField(MODULUS)


def random_pairs(m, count, seed):
    rng = random.Random(seed)
    a_values = [rng.getrandbits(m) for _ in range(count)]
    b_values = [rng.getrandbits(m) for _ in range(count)]
    return a_values, b_values


class TestCompiledNetlist:
    @pytest.mark.parametrize("mode", ["exec", "arrays"])
    def test_compiled_matches_interpreter(self, mode):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        compiled = compile_netlist(multiplier.netlist, mode=mode)
        a_values, b_values = random_pairs(13, 200, seed=7)
        engine = Engine(multiplier, mode=mode)
        assert engine.multiply_batch(a_values, b_values) == simulate_words(
            multiplier.netlist, 13, a_values, b_values
        )
        assert compiled.mode == mode
        assert compiled.gate_count == compiled.and_count + compiled.xor_count
        assert compiled.level_count > 1

    def test_only_live_cone_is_compiled(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        compiled = compile_netlist(multiplier.netlist)
        assert compiled.node_count <= multiplier.netlist.node_count

    def test_source_is_inspectable_in_exec_mode(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        assert "def _netlist_eval" in compile_netlist(multiplier.netlist, mode="exec").source
        assert compile_netlist(multiplier.netlist, mode="arrays").source is None

    def test_unknown_mode_rejected(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        with pytest.raises(ValueError):
            compile_netlist(multiplier.netlist, mode="jit")

    def test_input_word_count_validated(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        compiled = compile_netlist(multiplier.netlist)
        with pytest.raises(ValueError):
            compiled.evaluate([1, 2, 3])


class TestEngineEquivalence:
    @pytest.mark.parametrize("method", sorted(ALL_GENERATORS))
    def test_every_generator_matches_field_reference(self, method):
        engine = engine_for(method, MODULUS)
        a_values, b_values = random_pairs(13, 300, seed=hash(method) & 0xFFFF)
        products = engine.multiply_batch(a_values, b_values)
        for a, b, product in zip(a_values, b_values, products):
            assert product == FIELD.multiply(a, b), (method, a, b)

    @pytest.mark.parametrize("method", ["thiswork", "schoolbook"])
    def test_exec_and_arrays_modes_agree(self, method):
        a_values, b_values = random_pairs(13, 128, seed=3)
        compiled = engine_for(method, MODULUS, mode="exec").multiply_batch(a_values, b_values)
        flat = engine_for(method, MODULUS, mode="arrays").multiply_batch(a_values, b_values)
        assert compiled == flat


class TestBatchAPI:
    @pytest.fixture(scope="class")
    def engine(self):
        return engine_for("thiswork", MODULUS)

    def test_empty_batch(self, engine):
        assert engine.multiply_batch([], []) == []

    def test_single_pair(self, engine):
        assert engine.multiply_batch([0x57 & 0x1FFF], [0x83]) == [FIELD.multiply(0x57, 0x83)]
        assert engine.multiply(1, 1) == 1

    def test_mismatched_lengths_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.multiply_batch([1, 2], [3])

    def test_chunking_preserves_order(self, engine):
        a_values, b_values = random_pairs(13, 1000, seed=11)
        whole = engine.multiply_batch(a_values, b_values)
        chunked = engine.multiply_batch(a_values, b_values, chunk_size=17)
        assert whole == chunked
        assert len(whole) == 1000

    def test_batch_larger_than_chunk_size(self):
        engine = Engine(
            generate_multiplier("thiswork", MODULUS, verify=False), chunk_size=64
        )
        a_values, b_values = random_pairs(13, 300, seed=5)
        expected = [FIELD.multiply(a, b) for a, b in zip(a_values, b_values)]
        assert engine.multiply_batch(a_values, b_values) == expected

    def test_invalid_chunk_size_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.multiply_batch([1], [1], chunk_size=0)
        with pytest.raises(ValueError):
            Engine(generate_multiplier("thiswork", MODULUS, verify=False), chunk_size=0)

    def test_describe_mentions_mode_and_field(self, engine):
        text = engine.describe()
        assert "exec" in text and "GF(2^13)" in text

    def test_concurrent_batches_do_not_corrupt_each_other(self, engine):
        """The registry shares one compiled instance between concurrent callers."""
        rng = random.Random(23)
        streams = []
        for _ in range(8):
            a_values, b_values = random_pairs(13, 96, seed=rng.getrandbits(32))
            expected = [FIELD.multiply(a, b) for a, b in zip(a_values, b_values)]
            streams.append((a_values, b_values, expected))
        failures = []

        def worker(stream):
            a_values, b_values, expected = stream
            for _ in range(20):
                if engine.multiply_batch(a_values, b_values) != expected:
                    failures.append(stream)
                    return

        threads = [threading.Thread(target=worker, args=(stream,)) for stream in streams]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the callers inside one batch
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures


class TestEngineConstruction:
    def test_needs_circuit(self):
        with pytest.raises(ValueError):
            Engine()

    def test_multiplier_and_netlist_are_exclusive(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        with pytest.raises(ValueError):
            Engine(multiplier, netlist=multiplier.netlist, m=13)

    def test_raw_netlist_with_degree(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        engine = Engine(netlist=multiplier.netlist, m=13)
        assert engine.multiply(3, 5) == FIELD.multiply(3, 5)

    def test_rejects_netlists_outside_the_multiplier_convention(self):
        netlist = Netlist(name="odd-io")
        netlist.add_output("c0", netlist.add_input("x0"))
        with pytest.raises(ValueError, match="convention"):
            Engine(netlist=netlist, m=1)
        multiplier = generate_multiplier("thiswork", type_ii_pentanomial(8, 2), verify=False)
        with pytest.raises(ValueError, match="missing output c8"):
            Engine(netlist=multiplier.netlist, m=9)

    def test_engine_for_is_cached(self):
        assert engine_for("thiswork", MODULUS) is engine_for("thiswork", MODULUS)
        assert engine_for("thiswork", MODULUS) is not engine_for("thiswork", MODULUS, mode="arrays")

    def test_engine_for_verify_upgrade_survives_engine_cache(self):
        from repro.engine import default_multiplier_cache

        modulus = type_ii_pentanomial(11, 4)
        engine_for("paar", modulus, verify=False)
        assert not default_multiplier_cache().is_verified("paar", modulus)
        engine_for("paar", modulus, verify=True)
        assert default_multiplier_cache().is_verified("paar", modulus)

    def test_only_low_m_bits_of_operands_are_used(self):
        engine = engine_for("thiswork", MODULUS)
        high = 1 << 300
        assert engine.multiply(high | 0x3, 0x5) == engine.multiply(0x3, 0x5)
        assert engine.multiply_batch([high], [1]) == [0]

    def test_engine_for_netlist_is_cached_per_netlist(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        first = engine_for_netlist(multiplier.netlist, 13)
        assert engine_for_netlist(multiplier.netlist, 13) is first


class TestRoutedEntryPoints:
    def test_field_multiply_batch_matches_scalar_reference(self):
        a_values, b_values = random_pairs(13, 400, seed=23)
        expected = [FIELD.multiply(a, b) for a, b in zip(a_values, b_values)]
        assert FIELD.multiply_batch(a_values, b_values) == expected

    def test_field_multiply_batch_validates_range(self):
        with pytest.raises(ValueError):
            FIELD.multiply_batch([1 << 13], [1])
        with pytest.raises(ValueError):
            FIELD.multiply_batch([1, 2], [3])

    def test_field_multiply_batch_explicit_method(self):
        a_values, b_values = random_pairs(13, 50, seed=29)
        expected = FIELD.multiply_batch(a_values, b_values)
        assert FIELD.multiply_batch(a_values, b_values, method="schoolbook") == expected

    def test_generated_multiplier_conveniences(self):
        multiplier = generate_multiplier("thiswork", MODULUS)
        assert multiplier.multiply(0x1a, 0x2b) == FIELD.multiply(0x1a, 0x2b)
        a_values, b_values = random_pairs(13, 64, seed=31)
        expected = [FIELD.multiply(a, b) for a, b in zip(a_values, b_values)]
        assert multiplier.multiply_batch(a_values, b_values) == expected
        assert multiplier.engine().m == 13

    def test_multiply_words_routes_through_engine(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        a_values, b_values = random_pairs(13, 80, seed=37)
        assert multiply_words(multiplier.netlist, 13, a_values, b_values) == simulate_words(
            multiplier.netlist, 13, a_values, b_values
        )
        with pytest.raises(ValueError):
            multiply_words(multiplier.netlist, 13, [1], [])

    def test_multiply_with_netlist_still_scalar(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        assert multiply_with_netlist(multiplier.netlist, 13, 9, 12) == FIELD.multiply(9, 12)


class TestRegistryCaching:
    def test_generate_multiplier_uses_shared_cache(self):
        first = generate_multiplier("rashidi", MODULUS, verify=False)
        second = generate_multiplier("rashidi", MODULUS, verify=False)
        assert first is second

    def test_private_copies_on_request(self):
        cached = generate_multiplier("rashidi", MODULUS, verify=False)
        private = generate_multiplier("rashidi", MODULUS, verify=False, use_cache=False)
        assert private is not cached
