"""numpy, bound at import and executed on first attribute access.

Finite spaces, table maps, sampled box maps, ``gen`` and the oracle compute
with numpy; a box document whose map is affine is decided in exact
rationals and never reads from it, so a call on one starts without
executing numpy's package code. If numpy is already imported, the imported
module is used as it is.
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
    return module


numpy = _lazy("numpy")
