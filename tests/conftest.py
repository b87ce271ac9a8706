"""Shared fixtures.

Session-scoped fixtures cache the expensive objects (technology,
characterized libraries, compiled bricks) so the suite stays fast.  Tests
must treat them as read-only.
"""

from __future__ import annotations

import pytest

from repro.bricks import compile_brick, generate_brick_library, sram_brick
from repro.cells import make_stdcell_library
from repro.session import Session
from repro.tech import cmos65


@pytest.fixture(scope="session")
def tech():
    """The calibrated 65 nm technology every paper experiment uses."""
    return cmos65()


@pytest.fixture(scope="session")
def stdlib(tech):
    """Characterized standard-cell library (read-only)."""
    return make_stdcell_library(tech)


@pytest.fixture(scope="session")
def brick_16x10(tech):
    """The paper's canonical 16x10 bit 8T brick, compiled for 1x."""
    return compile_brick(sram_brick(16, 10), tech, target_stack=1)


@pytest.fixture(scope="session")
def small_brick(tech):
    """A tiny 4x4 brick for fast transient tests."""
    return compile_brick(sram_brick(4, 4), tech, target_stack=1)


@pytest.fixture(scope="session")
def perf_close():
    """Comparator asserting two BrickPerformance results agree to a
    relative tolerance (the scalar-vs-vector equivalence budget)."""
    def compare(scalar, vector, rel=1e-9):
        assert vector.brick_name == scalar.brick_name
        assert vector.stack == scalar.stack
        for name in ("read_delay", "read_energy", "write_energy",
                     "setup", "hold", "clock_cap", "dwl_cap", "wbl_cap",
                     "area_um2", "leakage_w"):
            assert getattr(vector, name) == pytest.approx(
                getattr(scalar, name), rel=rel, abs=0.0), name
        for name in ("match_delay", "match_energy"):
            a, b = getattr(scalar, name), getattr(vector, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert b == pytest.approx(a, rel=rel, abs=0.0), name
        assert set(vector.components) == set(scalar.components)
        for key, value in scalar.components.items():
            assert vector.components[key] == pytest.approx(
                value, rel=rel, abs=0.0), key
    return compare


@pytest.fixture(scope="session")
def fig3_library(tech, stdlib):
    """Std cells plus the 2-stacked 16x10 brick of Fig. 3."""
    bricks, _ = generate_brick_library([(sram_brick(16, 10), 2)],
                                       Session(tech))
    return stdlib.merged_with(bricks)


@pytest.fixture()
def fail_chunks_with_32_words(monkeypatch):
    """Make the batch estimation kernel raise ``BrickError`` for any
    chunk holding a 32-word brick.

    The patch lands before any pool starts, and pools fork, so worker
    processes see it as well as the parent's serial re-execution.
    """
    from repro.bricks import batch
    from repro.errors import BrickError
    real = batch.estimate_brick_batch

    def kernel(points, tech):
        if any(spec.words == 32 for spec, _ in points):
            raise BrickError("injected failure")
        return real(points, tech)

    monkeypatch.setattr(batch, "estimate_brick_batch", kernel)
