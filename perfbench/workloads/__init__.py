"""One module per workload; each exposes ``inputs(seed)`` (pure: the
same seed gives the same inputs) and ``run(ctx, inputs)``."""

import importlib

NAMES = ("fig3_flow", "table1_reference", "sweep_scale", "signoff_mc",
         "serve_mixed")


def load(name: str):
    """The workload module for ``name`` (imports the program layers it
    drives)."""
    if name not in NAMES:
        raise KeyError(f"unknown workload {name!r}; known: {NAMES}")
    return importlib.import_module(f"{__name__}.{name}")
