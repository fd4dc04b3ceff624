"""Lazy package exports (PEP 562).

Every ``repro`` package ``__init__`` hands :func:`lazy_exports` the
public names of each of its submodules. A name is imported from its
submodule on first access and then cached in the package namespace, so
importing a package costs only the submodules a caller reaches:
building one run's inputs never loads the report, validation or
process-pool machinery.
"""

from __future__ import annotations

import sys
from typing import Any, Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, /, **table: tuple[str, ...]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    Each keyword names a submodule of ``package`` and gives the public
    names it defines; ``__all__`` lists them in that order.
    """
    origin = {name: module for module, names in table.items()
              for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        qualified = f"{package}.{module}"
        # The import statement's machinery, unlike importlib.import_module,
        # reports the load to ``python -X importtime``.
        __import__(qualified)
        value = getattr(sys.modules[qualified], name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)
