"""repro — reproduction of "Reconfigurable implementation of GF(2^m) bit-parallel multipliers".

The library implements, in pure Python, everything the DATE 2018 paper by
J. L. Imaña builds or depends on:

* GF(2)[y] polynomial arithmetic, type II pentanomials and GF(2^m) fields
  (:mod:`repro.galois`);
* the S_i/T_i product algebra, its splitting into complete-tree terms, the
  parenthesized and flat coefficient expressions — the paper's Tables I-IV
  (:mod:`repro.spec`);
* gate-level netlists with formal verification (:mod:`repro.netlist`);
* the proposed multiplier and every comparison construction
  (:mod:`repro.multipliers`);
* a Python FPGA implementation flow — restructuring, k-LUT mapping, slice
  packing and timing — standing in for ISE/XST on Artix-7
  (:mod:`repro.synth`);
* VHDL/Verilog emission (:mod:`repro.hdl`) and the Table V comparison
  harness (:mod:`repro.analysis`);
* pluggable execution backends for batch field arithmetic — the scalar
  reference, the compiled circuit engine (the paper's netlist, and the
  default without a C compiler) and the native C kernel (the default where
  it builds) behind one interface, selectable per call or per CLI flag
  (:mod:`repro.backends`);
* the parallel sweep pipeline — a process-pool scheduler that runs
  :func:`implement` per (field, method, device, options) job, and a
  persistent content-addressed artifact store (:mod:`repro.pipeline`);
* binary elliptic curves over the paper's pentanomial fields — NIST-degree
  K/B catalog, Montgomery-ladder scalar multiplication (scalar and batched
  through the engine), ECDH and ECDSA-style protocols
  (:mod:`repro.curves`).

Quick start
-----------
>>> from repro import type_ii_pentanomial, generate_multiplier, implement
>>> modulus = type_ii_pentanomial(8, 2)          # the paper's GF(2^8) field
>>> multiplier = generate_multiplier("thiswork", modulus)
>>> result = implement(multiplier)
>>> result.luts > 0 and result.delay_ns > 0
True
"""

from ._lazy import lazy_attributes

#: Each public name, by the subpackage that defines it.  They load on first
#: access (:func:`__getattr__`), so ``import repro.curves`` does not import
#: the synthesis flow, the sweep scheduler or the dashboard.
_EXPORTS = {
    "analysis": (
        "PAPER_TABLE5", "claims_report", "compare_to_paper", "comparison_table",
        "render_table1", "render_table2", "render_table3", "render_table4",
        "run_comparison",
    ),
    "backends": (
        "EngineBackend", "FieldBackend", "PythonIntBackend",
        "assert_backend_parity", "available_backends", "get_backend",
        "resolve_backend",
    ),
    "curves": (
        "CURVES", "BinaryCurve", "CurveSpec", "KeyPair", "Point", "Signature",
        "available_curves", "curve_by_name", "curve_catalog", "ecdh_batch",
        "ecdh_shared", "ecdsa_sign", "ecdsa_verify", "generate_keypair",
        "keygen_batch",
    ),
    "engine": ("CompiledNetlist", "Engine", "compile_netlist", "engine_for"),
    "galois": (
        "NIST_ECDSA_DEGREES", "PAPER_TABLE5_FIELDS", "FieldElement", "FieldSpec",
        "GF2LinearMap", "GF2mField", "field_catalog", "find_type_ii_pentanomials",
        "is_irreducible", "lookup_field", "poly_to_string", "type_ii_pentanomial",
    ),
    "hdl": (
        "multiplier_to_behavioral_vhdl", "netlist_to_verilog", "netlist_to_vhdl",
        "vhdl_testbench",
    ),
    "multipliers": (
        "ALL_GENERATORS", "TABLE5_METHODS", "GeneratedMultiplier", "MultiplierCache",
        "available_methods", "cached_multiplier", "default_multiplier_cache",
        "generate_multiplier", "get_generator",
    ),
    "netlist": (
        "Netlist", "gather_stats", "multiply_with_netlist", "simulate_words",
        "verify_by_simulation", "verify_netlist",
    ),
    "pipeline": (
        "ArtifactStore", "SweepJob", "SweepResult", "build_sweep_jobs", "format_sweep",
        "run_sweep",
    ),
    "spec": (
        "ProductSpec", "parenthesized_coefficients", "split_coefficients",
        "st_coefficients",
    ),
    "synth": (
        "ARTIX7", "DeviceModel", "ImplementationResult", "SynthesisOptions",
        "format_table", "implement", "map_to_luts",
    ),
}

__version__ = "1.0.0"

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]

#: Subpackages load on first access too (``repro.synth`` after ``import repro``).
_SUBPACKAGES = (
    "analysis", "backends", "cli", "curves", "engine", "galois", "hdl", "multipliers",
    "netlist", "pipeline", "serve", "spec", "synth", "telemetry",
)

__getattr__, __dir__ = lazy_attributes(
    globals(),
    {
        **{name: name for name in _SUBPACKAGES},
        **{name: module for module, names in _EXPORTS.items() for name in names},
    },
    __all__,
)
