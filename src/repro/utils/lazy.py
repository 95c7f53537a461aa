"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that imports every submodule to re-export their
names makes importing any one submodule import them all: the benchmark
harness would load the process pool, and with it ``multiprocessing``,
to read one dataset.  :func:`lazy_exports` builds the package's module
``__getattr__`` instead, which imports a submodule the first time one
of its names is read.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """A ``__getattr__`` and ``__dir__`` for ``package``'s re-exports.

    ``exports`` maps each submodule name (relative to ``package``) to
    the names it re-exports.  A name read for the first time imports its
    submodule and is then cached in the package's namespace.
    """
    namespace = sys.modules[package].__dict__
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                "module %r has no attribute %r" % (package, name)
            ) from None
        value = getattr(import_module("%s.%s" % (package, module)), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
