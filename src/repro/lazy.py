"""Package exports that load on first use (PEP 562).

A process should pay only for the modules it runs: importing a package must
not import its whole subpackage.  Each package ``__init__`` declares one
table ``_EXPORTS = {submodule: names}`` and installs the ``__getattr__``
:func:`lazy_exports` returns; a name's submodule is imported the first time
the name is read, and the name is then cached in the package's globals.
``python -X importtime`` shows what a run loads.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, table: Dict[str, Tuple[str, ...]]) -> Callable[[str], Any]:
    """A module ``__getattr__`` resolving ``table``'s names for ``package``.

    An unknown name raises :class:`AttributeError`, which is what lets
    ``from package import submodule`` fall back to importing the submodule.
    """
    owner = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    return __getattr__
