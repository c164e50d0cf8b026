"""Modules bound at import and executed on first attribute access.

``chainfix/__init__`` registers every chainfix submodule here, so ``import
chainfix`` runs none of them and a CLI call runs only the modules its
command reads from. numpy is registered the same way: finite spaces, table
maps, sampled box maps, ``gen`` and the oracle compute with it, while a box
document whose map its formula decides (``chainfix.affine``) is decided in
exact rationals and never executes numpy's package code. A registered
module is in ``sys.modules`` (and bound on its package) before any of its
code runs; a module that is already imported is used as it is.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy(name: str):
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        package, _, attr = name.rpartition(".")
        if package:
            setattr(sys.modules[package], attr, module)
    return module


numpy = _lazy("numpy")
