"""Core: the OpenMLDB session facade, deployments, and consistency.

Names load on first access (PEP 562): the cluster imports
:mod:`repro.core.deployment`, and that must not load the offline engine.
"""

import importlib

_HOMES = {"OpenMLDB": "database", "Deployment": "deployment",
          "PreviewConstraints": "modes",
          "verify_consistency": "consistency",
          "ConsistencyReport": "consistency", "Mismatch": "consistency"}

__all__ = list(_HOMES)


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"),
                   name)
