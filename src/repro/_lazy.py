"""Package attributes that load on first access (PEP 562).

A package ``__init__`` that re-exports names from its submodules imports
all of them up front, and with them everything they import.  Declaring the
re-exports here instead defers each submodule to the first access of one of
its names, so a process pays only for what it uses: ``import repro.curves``
loads no synthesis flow, sweep scheduler or dashboard.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Iterable, Tuple


def lazy_attributes(
    namespace: Dict[str, Any], origins: Dict[str, str], public: Iterable[str]
) -> Tuple[Callable[[str], Any], Callable[[], list]]:
    """The ``__getattr__`` and ``__dir__`` of a package with deferred attributes.

    ``namespace`` is the package's ``globals()``; ``origins`` maps each
    deferred name to the submodule (relative to the package) that defines
    it, or to itself for a submodule that is the attribute.  A loaded value
    is stored in ``namespace``, so ``__getattr__`` runs once per name.
    ``public`` (the package's ``__all__``) joins ``dir()``.
    """
    package = namespace["__name__"]
    public = list(public)

    def __getattr__(name: str) -> Any:
        origin = origins.get(name)
        if origin is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(f".{origin}", package)
        if origin != name:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(public))

    return __getattr__, __dir__
