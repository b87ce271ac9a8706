"""Shared fixtures.

Session-scoped fixtures cache the expensive objects (technology,
characterized libraries, compiled bricks) so the suite stays fast.  Tests
must treat them as read-only.
"""

from __future__ import annotations

import pytest

from repro.bricks import BrickPerformance, compile_brick, \
    generate_brick_library, sram_brick
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
def perf_identical():
    """Comparator asserting two BrickPerformance results are ``==`` in
    every field and every component, naming the first mismatch."""
    def compare(got, want):
        for name in BrickPerformance.__dataclass_fields__:
            if name != "components":
                assert getattr(got, name) == getattr(want, name), name
        assert list(got.components) == list(want.components)
        for key, value in want.components.items():
            assert got.components[key] == value, key
        assert got == want
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
