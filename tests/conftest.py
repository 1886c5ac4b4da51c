"""Shared fixtures for the test suite."""

from __future__ import annotations

import functools

import pytest

from repro.backends import get_backend, native_available
from repro.curves import curve_by_name
from repro.galois import GF2mField, type_ii_pentanomial


@pytest.fixture(autouse=True)
def _isolated_artifact_cache(tmp_path, monkeypatch):
    """Keep every test hermetic: never touch the user's ~/.cache store.

    CLI commands default to the on-disk artifact store, so the default root
    is redirected to a per-test temporary directory.
    """
    monkeypatch.setenv("GF2M_REPRO_CACHE_DIR", str(tmp_path / "artifact-cache"))


@pytest.fixture(scope="session")
def compiled_backends():
    """``compiled_backends(field, **options)``: every backend with a packed
    FieldIR executor — native, when its extension builds."""
    names = ["native"] if native_available() else []
    return lambda field, **options: [get_backend(name, field, **options) for name in names]


@pytest.fixture(scope="session")
def ladder_backends(compiled_backends):
    """``ladder_backends(field, **options)``: the backends the ladder parity
    tests check against the references — bitslice (the paper's netlist on
    the interpreting executor) plus :func:`compiled_backends`."""
    return lambda field, **options: (
        [get_backend("bitslice", field, **options)] + compiled_backends(field, **options)
    )


@pytest.fixture(scope="session")
def reference_multiply():
    """``curve.multiply_reference(point, scalar)``, memoized for the session.

    Affine double-and-add pays a field inversion per group operation, so
    the ladder parity tests that check the same NIST-degree scalars
    against it share each result instead of recomputing it.
    """

    @functools.lru_cache(maxsize=None)
    def multiple(curve_name, x, y, scalar):
        curve = curve_by_name(curve_name)
        return curve.multiply_reference(curve.point(x, y), scalar)

    return lambda point, scalar: multiple(point.curve.name, point.x, point.y, scalar)


@pytest.fixture(scope="session")
def gf28_modulus() -> int:
    """The paper's GF(2^8) pentanomial y^8 + y^4 + y^3 + y^2 + 1."""
    return type_ii_pentanomial(8, 2)


@pytest.fixture(scope="session")
def gf28_field(gf28_modulus) -> GF2mField:
    """The GF(2^8) reference field."""
    return GF2mField(gf28_modulus)


#: Small/medium (m, n) pairs whose type II pentanomial is irreducible.
SMALL_FIELDS = [(8, 2), (10, 2), (11, 4), (13, 5), (16, 3), (20, 5)]

#: Slightly larger fields used by the slower structural tests.
MEDIUM_FIELDS = [(23, 9), (28, 5), (32, 11)]


@pytest.fixture(scope="session")
def small_fields():
    """A selection of small type II fields used across the tests."""
    return list(SMALL_FIELDS)


@pytest.fixture(scope="session")
def small_moduli(small_fields):
    """Moduli of the small test fields."""
    return [type_ii_pentanomial(m, n) for m, n in small_fields]


@pytest.fixture(scope="session")
def medium_moduli():
    """Moduli of the medium test fields."""
    return [type_ii_pentanomial(m, n) for m, n in MEDIUM_FIELDS]
