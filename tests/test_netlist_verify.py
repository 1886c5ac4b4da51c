"""Tests for the symbolic extraction / formal verification of multiplier netlists."""

from __future__ import annotations

import pytest

from repro.netlist.netlist import Netlist
from repro.netlist.verify import (
    UnsupportedStructureError,
    extract_output_pairs,
    verify_by_simulation,
    verify_netlist,
)
from repro.spec.product_spec import ProductSpec


def tiny_correct_netlist(modulus: int) -> Netlist:
    """A hand-built, obviously correct multiplier netlist for the given modulus."""
    spec = ProductSpec.from_modulus(modulus)
    netlist = Netlist(name="tiny")
    a = [netlist.add_input(f"a{i}") for i in range(spec.m)]
    b = [netlist.add_input(f"b{i}") for i in range(spec.m)]
    for k in range(spec.m):
        products = [netlist.and2(a[i], b[j]) for i, j in sorted(spec.pairs(k))]
        netlist.add_output(f"c{k}", netlist.xor_reduce(products))
    return netlist


class TestExtraction:
    def test_extraction_matches_spec(self):
        modulus = 0b1011
        netlist = tiny_correct_netlist(modulus)
        spec = ProductSpec.from_modulus(modulus)
        observed = extract_output_pairs(netlist)
        for k in range(spec.m):
            assert observed[f"c{k}"] == spec.pairs(k)

    def test_duplicate_pairs_cancel(self):
        netlist = Netlist()
        a0 = netlist.add_input("a0")
        b0 = netlist.add_input("b0")
        product = netlist.and2(a0, b0)
        a1 = netlist.add_input("a1")
        other = netlist.and2(a1, b0)
        # product ^ other ^ other == product
        node = netlist.xor2(netlist.xor2(product, other), other)
        netlist.add_output("c0", node)
        assert extract_output_pairs(netlist)["c0"] == frozenset({(0, 0)})

    def test_and_of_same_operand_rejected(self):
        netlist = Netlist()
        a0 = netlist.add_input("a0")
        a1 = netlist.add_input("a1")
        netlist.add_output("c0", netlist.and2(a0, a1))
        with pytest.raises(UnsupportedStructureError):
            extract_output_pairs(netlist)

    def test_and_of_internal_node_rejected(self):
        netlist = Netlist()
        a0 = netlist.add_input("a0")
        b0 = netlist.add_input("b0")
        b1 = netlist.add_input("b1")
        inner = netlist.and2(a0, b0)
        netlist.add_output("c0", netlist.and2(inner, b1))
        with pytest.raises(UnsupportedStructureError):
            extract_output_pairs(netlist)

    def test_output_driven_by_input_rejected(self):
        netlist = Netlist()
        a0 = netlist.add_input("a0")
        netlist.add_input("b0")
        netlist.add_output("c0", a0)
        with pytest.raises(UnsupportedStructureError):
            extract_output_pairs(netlist)

    def test_badly_named_input_rejected(self):
        netlist = Netlist()
        x = netlist.add_input("x0")
        y = netlist.add_input("b0")
        netlist.add_output("c0", netlist.and2(x, y))
        with pytest.raises(UnsupportedStructureError):
            extract_output_pairs(netlist)


class TestVerification:
    def test_correct_netlist_verifies(self):
        modulus = 0b100011101
        netlist = tiny_correct_netlist(modulus)
        report = verify_netlist(netlist, ProductSpec.from_modulus(modulus))
        assert report
        assert report.equivalent
        assert "equivalent" in report.summary()

    def test_buggy_netlist_is_caught(self):
        modulus = 0b1011
        spec = ProductSpec.from_modulus(modulus)
        netlist = Netlist(name="buggy")
        a = [netlist.add_input(f"a{i}") for i in range(3)]
        b = [netlist.add_input(f"b{i}") for i in range(3)]
        for k in range(3):
            pairs = sorted(spec.pairs(k))
            if k == 1:
                pairs = pairs[:-1]     # drop one partial product: a functional bug
            products = [netlist.and2(a[i], b[j]) for i, j in pairs]
            netlist.add_output(f"c{k}", netlist.xor_reduce(products))
        report = verify_netlist(netlist, spec)
        assert not report
        assert report.mismatched_outputs == ["c1"]
        assert "NOT equivalent" in report.summary()

    def test_missing_output_is_caught(self):
        modulus = 0b1011
        spec = ProductSpec.from_modulus(modulus)
        netlist = tiny_correct_netlist(modulus)
        netlist._outputs = netlist._outputs[:-1]   # simulate a generator that forgot c2
        report = verify_netlist(netlist, spec)
        assert not report.equivalent
        assert "c2" in report.mismatched_outputs

    def test_simulation_verification_exhaustive_and_random(self, gf28_modulus):
        netlist = tiny_correct_netlist(gf28_modulus)
        assert verify_by_simulation(netlist, gf28_modulus, exhaustive_limit=8)
        # Random mode (force by lowering the exhaustive limit).
        assert verify_by_simulation(netlist, gf28_modulus, trials=32, exhaustive_limit=4)

    def test_simulation_catches_bug(self):
        modulus = 0b1011
        spec = ProductSpec.from_modulus(modulus)
        netlist = Netlist(name="buggy")
        a = [netlist.add_input(f"a{i}") for i in range(3)]
        b = [netlist.add_input(f"b{i}") for i in range(3)]
        for k in range(3):
            pairs = sorted(spec.pairs(k))[:-1] if k == 0 else sorted(spec.pairs(k))
            products = [netlist.and2(a[i], b[j]) for i, j in pairs]
            netlist.add_output(f"c{k}", netlist.xor_reduce(products))
        assert not verify_by_simulation(netlist, modulus, exhaustive_limit=4)
