"""PEP 562 lazy re-exports: a package's public names load on first use.

Every ``__init__`` under :mod:`repro` that re-exports names from its
submodules does so through :func:`lazy_exports`, so ``import repro`` (or
any one subpackage) costs the stdlib only and a dependency is paid for
by the job that uses it (docs/architecture.md, "Start-up cost").
"""

from __future__ import annotations

import sys
from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: dict[str, list[str]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``'s namespace.

    ``exports`` maps a submodule (relative, ``".simulator"``) to the names
    the package re-exports from it; ``__all__`` is those names in table
    order, so a public name is written once.  A name is imported on
    first access and cached in the package, exactly where the eager
    ``from .simulator import name`` put it.  Any other public attribute
    is tried as a submodule, which keeps ``import repro; repro.store``
    working.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        missing = AttributeError(f"module {package!r} has no attribute {name!r}")
        if name in origin:
            value = getattr(import_module(origin[name], package), name)
        elif name.startswith("_"):
            raise missing
        else:
            try:
                value = import_module(f".{name}", package)
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise  # the submodule exists; an import of its own failed
                raise missing from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)
