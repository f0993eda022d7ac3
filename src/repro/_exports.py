"""Package exports that resolve on first use (PEP 562).

A package ``__init__`` that imported all its submodules would make every
command load, and so compile, code it never runs.  Instead it lists the
names each submodule gives the package, and a name's submodule is
imported when the name is first looked up.
"""

import importlib
import sys


def lazy_exports(package, exports):
    """``(__all__, __getattr__, __dir__)`` for the ``__init__`` of ``package``.

    ``exports`` maps each submodule to the names it exports.  The first
    lookup of a name imports its submodule and stores the value on the
    package, so every later lookup is a plain attribute read.
    """
    namespace = vars(sys.modules[package])
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f".{origin[name]}", package)
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__():
        return sorted(namespace.keys() | origin.keys())

    return list(origin), __getattr__, __dir__
