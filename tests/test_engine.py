"""The batch engine: compiled-vs-interpreted equivalence and the batch API."""

import dataclasses
import random
import sys
import threading

import pytest

import repro.engine.engine as engine_module
from repro.backends import get_backend
from repro.engine import Engine, compile_netlist, engine_for
from repro.galois.field import GF2mField
from repro.galois.pentanomials import type_ii_pentanomial
from repro.multipliers.registry import ALL_GENERATORS, generate_multiplier
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import multiply_with_netlist, simulate_words
from repro.netlist.verify import verify_by_simulation

MODULUS = type_ii_pentanomial(13, 5)
FIELD = GF2mField(MODULUS)


def random_pairs(m, count, seed):
    rng = random.Random(seed)
    a_values = [rng.getrandbits(m) for _ in range(count)]
    b_values = [rng.getrandbits(m) for _ in range(count)]
    return a_values, b_values


class TestCompiledNetlist:
    def test_compiled_matches_interpreter(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        compiled = compile_netlist(multiplier.netlist)
        a_values, b_values = random_pairs(13, 200, seed=7)
        engine = Engine(multiplier)
        assert engine.multiply_batch(a_values, b_values) == simulate_words(
            multiplier.netlist, 13, a_values, b_values
        )
        assert compiled.gate_count == compiled.and_count + compiled.xor_count
        assert compiled.level_count > 1

    def test_only_live_cone_is_compiled(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        compiled = compile_netlist(multiplier.netlist)
        assert compiled.node_count <= multiplier.netlist.node_count

    def test_source_is_inspectable_in_exec_mode(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        assert "def _netlist_eval" in compile_netlist(multiplier.netlist).source

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

    def test_describe_mentions_method_and_field(self, engine):
        text = engine.describe()
        assert "thiswork" in text and "GF(2^13)" in text

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
    def test_rejects_netlists_outside_the_multiplier_convention(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        netlist = Netlist(name="odd-io")
        netlist.add_output("c0", netlist.add_input("x0"))
        with pytest.raises(ValueError, match="convention"):
            Engine(dataclasses.replace(multiplier, netlist=netlist))
        gf28 = generate_multiplier("thiswork", type_ii_pentanomial(8, 2), verify=False)
        gf29 = generate_multiplier("thiswork", type_ii_pentanomial(9, 2), verify=False)
        with pytest.raises(ValueError, match="missing output c8"):
            Engine(dataclasses.replace(gf29, netlist=gf28.netlist))

    def test_engine_for_is_cached(self):
        assert engine_for("thiswork", MODULUS) is engine_for("thiswork", MODULUS)
        assert engine_for("thiswork", MODULUS) is not engine_for("schoolbook", MODULUS)

    def test_engine_for_verify_upgrade_survives_engine_cache(self):
        from repro.multipliers import default_multiplier_cache

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
        schoolbook = get_backend("engine", FIELD, method="schoolbook")
        assert FIELD.multiply_batch(a_values, b_values, backend=schoolbook) == expected

    def test_multiply_with_netlist_still_scalar(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        assert multiply_with_netlist(multiplier.netlist, 13, 9, 12) == FIELD.multiply(9, 12)

    def test_netlist_checks_never_compile(self, monkeypatch):
        """Checks of one netlist interpret it: the engine's compiler is never called."""

        def refuse(*args, **kwargs):
            raise RuntimeError("a netlist check compiled its netlist")

        monkeypatch.setattr(engine_module, "compile_netlist", refuse)
        modulus = type_ii_pentanomial(163, 66)
        field = GF2mField(modulus, check_irreducible=False)
        netlist = generate_multiplier("thiswork", modulus, verify=False, use_cache=False).netlist
        assert verify_by_simulation(netlist, modulus)
        a, b = (1 << 162) | 0x1234567, (1 << 150) | 0x89abcdef
        assert multiply_with_netlist(netlist, 163, a, b) == field.multiply(a, b)


class TestRegistryCaching:
    def test_generate_multiplier_uses_shared_cache(self):
        first = generate_multiplier("rashidi", MODULUS, verify=False)
        second = generate_multiplier("rashidi", MODULUS, verify=False)
        assert first is second

    def test_private_copies_on_request(self):
        cached = generate_multiplier("rashidi", MODULUS, verify=False)
        private = generate_multiplier("rashidi", MODULUS, verify=False, use_cache=False)
        assert private is not cached
