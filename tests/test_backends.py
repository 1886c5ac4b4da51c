"""The pluggable backend layer: registry resolution, parity, bitslicing.

The acceptance contract of the backend abstraction is byte-parity: every
registered backend must reproduce the scalar reference arithmetic exactly,
for field batch operations and for the batched ECDH ladder path, on the
NIST-size fields the paper targets (GF(2^163), GF(2^233)).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.backends import (
    BACKEND_ENV_VAR,
    BitslicedNetlist,
    FieldBackend,
    assert_backend_parity,
    available_backends,
    bitsliced_netlist,
    default_backend_name,
    default_method_for,
    get_backend,
    native_available,
    numpy_available,
    register_backend,
    resolve_backend,
)
from repro.backends import bitslice as bitslice_module
from repro.curves import curve_by_name, ecdh_batch, keygen_batch
from repro.galois.field import GF2mField
from repro.galois.pentanomials import (
    smallest_type_ii_pentanomial,
    type_ii_pentanomial,
)
from repro.multipliers.cache import cached_multiplier
from repro.netlist.netlist import Netlist

requires_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
requires_native = pytest.mark.skipif(
    not native_available(), reason="native extension not buildable here"
)

GF2_16 = GF2mField(type_ii_pentanomial(16, 3), check_irreducible=False)
GF2_163 = GF2mField(smallest_type_ii_pentanomial(163), check_irreducible=False)
GF2_233 = GF2mField(smallest_type_ii_pentanomial(233), check_irreducible=False)

ALL_BACKENDS = ["python", "engine", "bitslice", "native"]

_OPTIONAL = {"bitslice": numpy_available, "native": native_available}


def _available(name):
    predicate = _OPTIONAL.get(name)
    return predicate is None or predicate()


def _backends():
    marks = {"bitslice": requires_numpy, "native": requires_native}
    return [pytest.param(name, marks=marks.get(name, ())) for name in ALL_BACKENDS]


class TestRegistry:
    def test_builtins_are_registered(self):
        assert set(ALL_BACKENDS) <= set(available_backends())

    def test_default_prefers_native_then_engine(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        expected = "native" if native_available() else "engine"
        assert default_backend_name(GF2_16) == expected
        assert default_backend_name() == expected

    def test_default_without_native_is_the_engine(self, monkeypatch):
        import repro.backends.registry as registry_module

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        monkeypatch.setattr(registry_module, "native_available", lambda: False)
        assert default_backend_name(GF2_16) == "engine"
        assert default_backend_name() == "engine"

    def test_degree_one_fields_default_to_scalar(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        gf2 = GF2mField(0b11)  # y + 1: no bit-parallel circuit exists
        assert default_backend_name(gf2) == "python"
        assert gf2.multiply_batch([0, 1, 1], [1, 1, 0]) == [0, 1, 0]

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert default_backend_name(GF2_16) == "python"
        field = GF2mField(type_ii_pentanomial(16, 3), check_irreducible=False)
        assert field.backend.name == "python"

    def test_env_override_typo_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "no_such_backend")
        with pytest.raises(KeyError, match="no_such_backend"):
            default_backend_name(GF2_16)

    def test_unknown_backend_name(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("no_such_backend", GF2_16)

    def test_instances_are_cached(self):
        assert get_backend("python", GF2_16) is get_backend("python", GF2_16)
        # Distinct options resolve to distinct instances.
        schoolbook = get_backend("engine", GF2_16, method="schoolbook")
        assert schoolbook is not get_backend("engine", GF2_16)
        assert schoolbook.method == "schoolbook"

    def test_resolve_accepts_instances_of_equal_fields(self):
        backend = get_backend("python", GF2_16)
        assert resolve_backend(GF2_16, backend) is backend
        with pytest.raises(ValueError, match="bound to"):
            resolve_backend(GF2_163, backend)

    def test_resolve_rejects_method_contradicting_an_instance(self):
        engine = get_backend("engine", GF2_16, method="schoolbook")
        # Matching method: fine — the instance already runs that circuit.
        assert resolve_backend(GF2_16, engine, method="schoolbook") is engine
        with pytest.raises(ValueError, match="fixes its construction"):
            resolve_backend(GF2_16, engine, method="thiswork")

    def test_verify_option_is_part_of_the_instance_key(self):
        unverified = get_backend("engine", GF2_16, verify=False)
        assert unverified is not get_backend("engine", GF2_16)
        assert unverified.multiply(3, 5) == GF2_16.multiply(3, 5)

    def test_method_alone_selects_the_engine(self):
        backend = resolve_backend(GF2_16, None, method="schoolbook")
        assert backend.name == "engine" and backend.method == "schoolbook"

    def test_python_backend_rejects_a_method(self):
        with pytest.raises(ValueError, match="evaluates no circuit"):
            resolve_backend(GF2_16, "python", method="thiswork")

    def test_custom_backends_can_register(self):
        class NegatingBackend(FieldBackend):
            name = "negating-test"

            def multiply(self, a, b):
                return self.field.multiply(a, b)

            def multiply_batch(self, a_values, b_values):
                return [self.multiply(a, b) for a, b in zip(a_values, b_values)]

        register_backend("negating-test", NegatingBackend)
        assert "negating-test" in available_backends()
        assert get_backend("negating-test", GF2_16).multiply(3, 5) == GF2_16.multiply(3, 5)

    def test_default_method_selection(self):
        assert default_method_for(GF2_163.modulus) == "thiswork"
        assert default_method_for(0b1011) == "schoolbook"  # trinomial modulus


class TestParityNIST:
    """Acceptance: byte-identical backends on GF(2^163) and GF(2^233)."""

    @pytest.mark.parametrize("name", _backends())
    def test_gf2_163_parity(self, name):
        assert assert_backend_parity(GF2_163, name, pairs=96) > 0

    @pytest.mark.parametrize("name", _backends())
    def test_gf2_233_parity(self, name):
        assert assert_backend_parity(GF2_233, name, pairs=64) > 0

    def test_parity_harness_catches_mismatches(self):
        class BrokenBackend(FieldBackend):
            name = "broken-test"

            def multiply(self, a, b):
                return self.field.multiply(a, b) ^ 1

            def multiply_batch(self, a_values, b_values):
                return [self.multiply(a, b) for a, b in zip(a_values, b_values)]

        with pytest.raises(AssertionError, match="mismatch"):
            assert_backend_parity(GF2_16, BrokenBackend(GF2_16), pairs=4)

    def test_multiply_batch_identical_across_backends(self):
        rng = random.Random(11)
        a_values = [rng.getrandbits(163) for _ in range(40)]
        b_values = [rng.getrandbits(163) for _ in range(40)]
        expected = [GF2_163.multiply(a, b) for a, b in zip(a_values, b_values)]
        for name in ALL_BACKENDS:
            if not _available(name):
                continue
            assert GF2_163.multiply_batch(a_values, b_values, backend=name) == expected


class TestECDHParity:
    """Acceptance: the batched ECDH ladder is backend-invariant."""

    @pytest.mark.parametrize("name", _backends())
    def test_k163_ladder_matches_scalar(self, name):
        curve = curve_by_name("K-163")
        rng = random.Random(5)
        publics = [pair.public for pair in keygen_batch(curve, 4, seed=3)]
        privates = [rng.randrange(1, curve.order) for _ in publics]
        expected = [curve.multiply(point, scalar) for point, scalar in zip(publics, privates)]
        assert curve.multiply_batch(publics, privates, backend=name) == expected

    @pytest.mark.parametrize("name", _backends())
    def test_k233_ladder_matches_scalar(self, name):
        curve = curve_by_name("K-233")
        rng = random.Random(6)
        publics = [pair.public for pair in keygen_batch(curve, 3, seed=4)]
        privates = [rng.randrange(1, curve.order) for _ in publics]
        expected = [curve.multiply(point, scalar) for point, scalar in zip(publics, privates)]
        assert curve.multiply_batch(publics, privates, backend=name) == expected

    @pytest.mark.parametrize("name", _backends())
    def test_ecdh_batch_takes_a_backend(self, name):
        curve = curve_by_name("T-13")
        alice = keygen_batch(curve, 6, seed=1, backend=name)
        bob = keygen_batch(curve, 6, seed=2, backend=name)
        left = ecdh_batch(
            curve, [kp.private for kp in alice], [kp.public for kp in bob], backend=name
        )
        right = ecdh_batch(
            curve, [kp.private for kp in bob], [kp.public for kp in alice], batched=False
        )
        assert left == right


class TestFieldDelegation:
    def test_field_backend_constructor_argument(self):
        field = GF2mField(type_ii_pentanomial(16, 3), backend="python")
        assert field.backend.name == "python"
        a_values, b_values = [3, 5, 0xFFFF], [7, 0, 0xFFFF]
        expected = [field.multiply(a, b) for a, b in zip(a_values, b_values)]
        assert field.multiply_batch(a_values, b_values) == expected

    def test_square_batch_matches_scalar(self):
        rng = random.Random(3)
        values = [rng.getrandbits(16) for _ in range(20)]
        expected = [GF2_16.square(value) for value in values]
        for name in ALL_BACKENDS:
            if not _available(name):
                continue
            assert GF2_16.square_batch(values, backend=name) == expected

    def test_inverse_batch_matches_scalar(self):
        field = GF2mField(type_ii_pentanomial(16, 3))
        rng = random.Random(4)
        values = [rng.getrandbits(16) or 1 for _ in range(20)]
        expected = [field.inverse(value) for value in values]
        for name in ALL_BACKENDS:
            if not _available(name):
                continue
            assert field.inverse_batch(values, backend=name) == expected

    def test_batch_range_check_names_the_offender(self):
        with pytest.raises(ValueError, match="0x10000"):
            GF2_16.multiply_batch([1, 0x10000], [1, 1])
        with pytest.raises(ValueError):
            GF2_16.multiply_batch([1, -1], [1, 1])
        with pytest.raises(ValueError, match="0x10000"):
            GF2_16.square_batch([0x10000])

    def test_batch_length_mismatch(self):
        with pytest.raises(ValueError, match="differ in length"):
            GF2_16.multiply_batch([1, 2], [3])

    def test_empty_batches(self):
        assert GF2_16.multiply_batch([], []) == []
        assert GF2_16.square_batch([]) == []
        assert GF2_16.inverse_batch([]) == []


@requires_numpy
class TestBitslicedNetlist:
    def test_matches_reference_with_chunking(self):
        multiplier = cached_multiplier("thiswork", GF2_16.modulus)
        sliced = BitslicedNetlist(multiplier.netlist, 16)
        rng = random.Random(9)
        a_values = [rng.getrandbits(16) for _ in range(70)]
        b_values = [rng.getrandbits(16) for _ in range(70)]
        expected = [GF2_16.multiply(a, b) for a, b in zip(a_values, b_values)]
        assert sliced.multiply_batch(a_values, b_values) == expected
        # Odd chunk sizes exercise the tail-width buffer path.
        assert sliced.multiply_batch(a_values, b_values, chunk_size=17) == expected
        assert sliced.multiply_batch([], []) == []

    def test_masks_high_bits_like_the_engine(self):
        multiplier = cached_multiplier("thiswork", GF2_16.modulus)
        sliced = BitslicedNetlist(multiplier.netlist, 16)
        assert sliced.multiply_batch([(1 << 16) | 3], [1]) == [GF2_16.multiply(3, 1)]

    def test_rejects_bad_arguments(self):
        multiplier = cached_multiplier("thiswork", GF2_16.modulus)
        sliced = BitslicedNetlist(multiplier.netlist, 16)
        with pytest.raises(ValueError, match="differ in length"):
            sliced.multiply_batch([1, 2], [3])
        with pytest.raises(ValueError, match="chunk_size"):
            sliced.multiply_batch([1], [1], chunk_size=0)
        with pytest.raises(ValueError, match="chunk_size"):
            BitslicedNetlist(multiplier.netlist, 16, chunk_size=0)

    def test_rejects_netlists_outside_the_multiplier_convention(self):
        netlist = Netlist(name="odd-io")
        x = netlist.add_input("x0")
        netlist.add_output("c0", x)
        with pytest.raises(ValueError, match="convention"):
            BitslicedNetlist(netlist, 1)
        multiplier = cached_multiplier("thiswork", type_ii_pentanomial(8, 2))
        with pytest.raises(ValueError, match="missing output c8"):
            BitslicedNetlist(multiplier.netlist, 9)

    def test_describe_mentions_the_structure(self):
        multiplier = cached_multiplier("thiswork", GF2_16.modulus)
        sliced = BitslicedNetlist(multiplier.netlist, 16)
        description = sliced.describe()
        assert "bitslice" in description and "segments" in description

    def test_concurrent_batches_do_not_corrupt_each_other(self):
        """Registry-shared instances must be safe under concurrent callers."""
        import threading

        multiplier = cached_multiplier("thiswork", GF2_16.modulus)
        sliced = BitslicedNetlist(multiplier.netlist, 16)
        rng = random.Random(23)
        streams = []
        for _ in range(8):
            a_values = [rng.getrandbits(16) for _ in range(96)]
            b_values = [rng.getrandbits(16) for _ in range(96)]
            expected = [GF2_16.multiply(a, b) for a, b in zip(a_values, b_values)]
            streams.append((a_values, b_values, expected))
        failures = []

        def worker(stream):
            a_values, b_values, expected = stream
            for _ in range(20):
                if sliced.multiply_batch(a_values, b_values) != expected:
                    failures.append(stream)
                    return

        threads = [threading.Thread(target=worker, args=(stream,)) for stream in streams]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures


@requires_numpy
class TestNetlistMemoization:
    def test_lowering_is_shared_across_equal_fields(self):
        modulus = GF2_163.modulus
        multiplier = cached_multiplier("thiswork", modulus, verify=False)
        first = bitsliced_netlist(multiplier.netlist, multiplier.m, modulus=modulus)
        second = bitsliced_netlist(multiplier.netlist, multiplier.m, modulus=modulus)
        assert first is second
        # Backend instances for equal fields reuse the same lowering.
        backend = get_backend("bitslice", GF2mField(modulus, check_irreducible=False))
        assert backend.sliced is first

    def test_no_modulus_means_no_cache_entry(self):
        multiplier = cached_multiplier("thiswork", GF2_163.modulus, verify=False)
        first = bitsliced_netlist(multiplier.netlist, multiplier.m)
        second = bitsliced_netlist(multiplier.netlist, multiplier.m)
        assert first is not second

    def test_chunk_size_is_part_of_the_key(self):
        modulus = GF2_163.modulus
        multiplier = cached_multiplier("thiswork", modulus, verify=False)
        default = bitsliced_netlist(multiplier.netlist, multiplier.m, modulus=modulus)
        narrow = bitsliced_netlist(multiplier.netlist, multiplier.m, chunk_size=64, modulus=modulus)
        assert default is not narrow and narrow.chunk_size == 64


class TestNumpyDegradation:
    def test_clear_import_error_without_numpy(self, monkeypatch):
        monkeypatch.setattr(bitslice_module, "_np", None)
        assert not bitslice_module.numpy_available()
        with pytest.raises(ImportError, match="pip install numpy"):
            bitslice_module.BitsliceBackend(GF2_16)
        with pytest.raises(ImportError, match="bitslice"):
            bitslice_module._require_numpy()

    def test_word_level_protocols_never_import_numpy(self):
        """numpy (~12 MB resident) loads with the first bitsliced evaluation only."""
        script = (
            "import sys\n"
            "from repro.curves import curve_by_name, ecdh_batch, keygen_batch\n"
            "curve = curve_by_name('T-13')\n"
            "pairs = keygen_batch(curve, 4)\n"
            "ecdh_batch(curve, [p.private for p in pairs], [p.public for p in pairs])\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {key: value for key, value in os.environ.items() if key != BACKEND_ENV_VAR}
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**env, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert result.returncode == 0, result.stderr[-2000:]


class TestCapabilities:
    @pytest.mark.parametrize("name", _backends())
    def test_capabilities_and_describe(self, name):
        assert get_backend(name, GF2_16).describe()
