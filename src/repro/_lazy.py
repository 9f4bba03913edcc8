"""Lazy module exports (PEP 562): a module names its public API in one
table and imports the submodule behind a name when that name is first
read.

A lazy module (every package ``__init__`` and :mod:`repro.api`) ends
with::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".study": ("RunOptions", "Study"),
        ".report": ("table3_power",),
    })

The table maps each source module, relative to the lazy one, to the
public names it defines.  The source ``"."`` lists submodules exported
as themselves (``repro.observability.trace``).  The first read of a
name imports its source and binds the name on the lazy module, so
later reads are plain attribute lookups.  ``pkg.name``, ``from pkg
import name``, ``from pkg import *`` and ``dir(pkg)`` all read the
table.  A package also resolves a submodule read as an attribute
(``repro.core.study`` after ``import repro``), as an eager package
that had imported it would.

This module imports only :mod:`importlib`, :mod:`sys` and :mod:`types`,
which the interpreter loads at start-up, so importing a lazy package
costs two small modules: the package and this one.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from types import ModuleType

__all__ = ["EXPORTS", "lazy_exports"]

#: Every lazy module's table: module name -> {public name: source module}.
#: A name whose source is the package itself is its submodule.
EXPORTS: dict[str, dict[str, str]] = {}


class _ExportsWin(ModuleType):
    """A package with an export named like one of its submodules
    (``repro.sparse.spgemm`` is a function in the module of that name).

    The import system binds each submodule it loads onto its package,
    which would hide such an export behind the module.  That binding is
    skipped for an exported name, so the export resolves instead.
    """

    def __setattr__(self, name: str, value) -> None:
        source = EXPORTS[self.__name__].get(name, self.__name__)
        if isinstance(value, ModuleType) and source != self.__name__:
            return
        super().__setattr__(name, value)


def lazy_exports(module_name: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for the module *module_name*
    exporting *table* (``{source: names}``, see the module docstring)."""
    module = sys.modules[module_name]
    is_package = hasattr(module, "__path__")
    owners = {
        name: importlib.util.resolve_name(source, module.__package__)
        for source, names in table.items()
        for name in names
    }
    EXPORTS[module_name] = owners
    if any(source == f"{module_name}.{name}" for name, source in owners.items()):
        module.__class__ = _ExportsWin

    def __getattr__(name: str):
        source = owners.get(name)
        if source is None:
            if is_package and not name.startswith("__"):
                submodule = f"{module_name}.{name}"
                try:
                    return importlib.import_module(submodule)
                except ModuleNotFoundError as exc:
                    if exc.name != submodule:
                        raise
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        if source == module_name:
            value = importlib.import_module(f"{module_name}.{name}")
        else:
            value = getattr(importlib.import_module(source), name)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(module), *owners})

    return __getattr__, __dir__, list(owners)
