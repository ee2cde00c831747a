"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package lists its public names in one ``name -> module`` table and
hands it to :func:`lazy_exports`.  A name's module is imported the
first time the name is read, so ``import repro`` (or any subpackage)
loads only what the caller goes on to use: a one-shot
``repro run diameter`` imports the modules of its own path and none of
the generators, baselines or exact oracles.

A table entry is the module to import from, optionally with
``:attribute`` when the exported name differs from the module's
(``"run_algorithm": "repro.runtime:run"``).

Some names equal their own submodule's name (the function
``repro.core.cluster`` lives in ``repro/core/cluster.py``).  Importing
such a submodule makes the import system bind the *module* to that name
on the package, which would hide the function from ``__getattr__``; the
package's module class therefore binds the submodule's same-named
attribute instead, whichever import runs first.

A name outside the table that names a submodule imports it, so
``repro.runtime.run(...)`` works after a bare ``import repro``.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import types
from typing import Callable, FrozenSet, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a lazy package.

    Call it from the package's ``__init__`` as
    ``__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)``.  A
    resolved name is cached in the package's namespace, so only the
    first read of each name goes through ``__getattr__``.
    """
    module = sys.modules[package]
    shadowed = frozenset(
        name for name, source in exports.items() if source == f"{package}.{name}"
    )
    if shadowed:
        module.__class__ = _shadowing_package(shadowed)

    def __getattr__(name: str) -> object:
        source = exports.get(name)
        if source is None:
            return _submodule(package, name)
        source, _, attr = source.partition(":")
        value = getattr(importlib.import_module(source), attr or name)
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(module)) | set(exports))

    return __getattr__, __dir__


def _submodule(package: str, name: str) -> types.ModuleType:
    """The submodule ``package.name``, imported on first read, so a
    caller may reach ``repro.graph.ops`` from ``import repro.graph``
    alone; :class:`AttributeError` when there is no such submodule."""
    if not name.startswith("__") and importlib.util.find_spec(
        f"{package}.{name}"
    ):
        return importlib.import_module(f"{package}.{name}")
    raise AttributeError(f"module {package!r} has no attribute {name!r}")


def _shadowing_package(shadowed: FrozenSet[str]) -> type:
    """A module class that binds ``sub.name`` where the import system
    would bind the submodule ``sub`` itself, for each shadowed name."""

    def __setattr__(self, name: str, value: object) -> None:
        if name in shadowed and isinstance(value, types.ModuleType):
            value = getattr(value, name)
        types.ModuleType.__setattr__(self, name, value)

    return type("LazyPackage", (types.ModuleType,), {"__setattr__": __setattr__})
