"""Shared fixtures for the paper-reproduction benchmarks.

Each benchmark module regenerates one table or figure of the paper
(see DESIGN.md's experiment index), printing the rows it reproduces and
asserting the paper's qualitative claims.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/ -s

The suite asserts claims, not speed: throughput of every user path is
timed by ``perfbench/run.py``.  The only wall-clock checks here are
the paper's "within 2 seconds" (Fig. 4c) and two floors perfbench has
no twin for, the observability overhead budget and the warm-served
vs cold-CLI ratio.
"""

from __future__ import annotations

import pytest

from repro.cells import make_stdcell_library
from repro.session import Session
from repro.tech import cmos65


@pytest.fixture(scope="session")
def tech():
    return cmos65()


@pytest.fixture(scope="session")
def session(tech):
    """Shared run context: one characterization cache across benchmarks."""
    return Session(tech)


@pytest.fixture(scope="session")
def stdlib(tech):
    return make_stdcell_library(tech)
