"""The pluggable backend layer: registry resolution, parity, delegation.

The acceptance contract of the backend abstraction is byte-parity: every
registered backend must reproduce the scalar reference arithmetic exactly,
for field batch operations and for the batched ECDH ladder path, on the
NIST-size fields the paper targets (GF(2^163), GF(2^233)).
"""

from __future__ import annotations

import random

import pytest

from repro.backends import (
    FieldBackend,
    assert_backend_parity,
    available_backends,
    default_backend_name,
    default_method_for,
    get_backend,
    native_available,
    resolve_backend,
)
from repro.curves import curve_by_name, ecdh_batch, keygen_batch
from repro.galois.field import GF2mField
from repro.galois.pentanomials import (
    smallest_type_ii_pentanomial,
    type_ii_pentanomial,
)

requires_native = pytest.mark.skipif(
    not native_available(), reason="native extension not buildable here"
)

GF2_16 = GF2mField(type_ii_pentanomial(16, 3), check_irreducible=False)
GF2_163 = GF2mField(smallest_type_ii_pentanomial(163), check_irreducible=False)
GF2_233 = GF2mField(smallest_type_ii_pentanomial(233), check_irreducible=False)

ALL_BACKENDS = ["python", "engine", "native"]


def _available(name):
    return name != "native" or native_available()


def _backends():
    marks = {"native": requires_native}
    return [pytest.param(name, marks=marks.get(name, ())) for name in ALL_BACKENDS]


class TestRegistry:
    def test_builtins_are_registered(self):
        assert available_backends() == ALL_BACKENDS

    def test_default_prefers_native_then_engine(self):
        expected = "native" if native_available() else "engine"
        assert default_backend_name(GF2_16) == expected
        assert default_backend_name() == expected

    def test_default_without_native_is_the_engine(self, monkeypatch):
        import repro.backends.registry as registry_module

        monkeypatch.setattr(registry_module, "native_available", lambda: False)
        assert default_backend_name(GF2_16) == "engine"
        assert default_backend_name() == "engine"

    def test_degree_one_fields_default_to_scalar(self):
        gf2 = GF2mField(0b11)  # y + 1: no bit-parallel circuit exists
        assert default_backend_name(gf2) == "python"
        assert gf2.multiply_batch([0, 1, 1], [1, 1, 0]) == [0, 1, 0]

    def test_the_environment_does_not_pick_the_backend(self, monkeypatch):
        monkeypatch.setenv("GF2M_REPRO_BACKEND", "python")
        expected = "native" if native_available() else "engine"
        assert default_backend_name(GF2_16) == expected
        field = GF2mField(type_ii_pentanomial(16, 3), check_irreducible=False)
        assert field.backend.name == expected

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

    def test_verify_option_is_part_of_the_instance_key(self):
        unverified = get_backend("engine", GF2_16, verify=False)
        assert unverified is not get_backend("engine", GF2_16)
        assert unverified.multiply(3, 5) == GF2_16.multiply(3, 5)

    def test_python_backend_rejects_a_method(self):
        with pytest.raises(ValueError, match="evaluates no circuit"):
            get_backend("python", GF2_16, method="thiswork")

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
    def test_field_backend_per_call_argument(self, monkeypatch):
        field = GF2mField(type_ii_pentanomial(16, 3))
        a_values, b_values = [3, 5, 0xFFFF], [7, 0, 0xFFFF]
        expected = [field.multiply(a, b) for a, b in zip(a_values, b_values)]
        python = get_backend("python", field)
        original, calls = python.multiply_batch, []

        def recorded(a, b):
            calls.append(len(a))
            return original(a, b)

        monkeypatch.setattr(python, "multiply_batch", recorded)
        assert field.multiply_batch(a_values, b_values, backend="python") == expected
        assert calls == [3]
        assert field.backend.name != "python"
        with pytest.raises(TypeError):
            GF2mField(type_ii_pentanomial(16, 3), backend="python")

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


class TestCapabilities:
    @pytest.mark.parametrize("name", _backends())
    def test_capabilities_and_describe(self, name):
        assert get_backend(name, GF2_16).describe()
