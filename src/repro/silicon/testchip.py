"""The Fig. 4a LiM test chip: SRAM configurations A-E.

Config A-D stack one 16x10 bit 8T brick 1x/2x/4x/8x into single-partition
SRAMs of 16/32/64/128 words; config E is a 128x10 bit SRAM with four
partitions of two stacked bricks each.  :func:`build_config` produces the
RTL + libraries for any of them, and :func:`run_config_flow` pushes one
through the whole physical synthesis flow.
"""

from __future__ import annotations

import random
from typing import Callable, Tuple

from ..bricks.spec import sram_brick
from ..bricks.stack import BankConfig, partitioned, single_partition
from ..errors import SiliconError
from ..liberty.models import LibraryModel
from ..rtl.memory import build_sram
from ..rtl.module import Module
from ..session import Session
from ..synth.flow import FlowResult, prepare_libraries, run_flow

#: The five taped-out configurations of Fig. 4a.
CONFIG_NAMES = ("A", "B", "C", "D", "E")


def config_bank(name: str) -> BankConfig:
    """Bank organization of a named test-chip configuration."""
    brick = sram_brick(16, 10)
    if name == "A":
        return single_partition(brick, 16)
    if name == "B":
        return single_partition(brick, 32)
    if name == "C":
        return single_partition(brick, 64)
    if name == "D":
        return single_partition(brick, 128)
    if name == "E":
        return partitioned(brick, 128, 4)
    raise SiliconError(
        f"unknown test-chip config {name!r}; choose from "
        f"{CONFIG_NAMES}")


def build_config(name: str, session: Session
                 ) -> Tuple[Module, LibraryModel, BankConfig]:
    """RTL plus merged (std cell + brick) libraries for a config at a
    given technology (nominal, corner-derated, or a chip sample).

    Library generation routes through the session's cache, so configs
    sharing a brick point (B and E both stack the 16x10 brick 2x) and
    repeated builds at the same technology characterize it once.
    """
    bank = config_bank(name)
    library = prepare_libraries([(bank.brick, bank.stack)],
                                session=session)
    return build_sram(bank), library, bank


def read_stimulus(bank: BankConfig, n_cycles: int = 64,
                  seed: int = 7) -> Callable:
    """Random read+write traffic for power measurement."""

    def stimulate(sim) -> None:
        rng = random.Random(seed)
        for _ in range(n_cycles):
            sim.set_input("raddr", rng.randrange(bank.words))
            sim.set_input("waddr", rng.randrange(bank.words))
            sim.set_input("din", rng.randrange(1 << bank.bits))
            sim.set_input("we", 1)
            sim.clock()

    return stimulate


def run_config_flow(name: str, session: Session,
                    with_power: bool = True,
                    anneal_moves: int = 4000) -> FlowResult:
    """Push one test-chip configuration through the full flow."""
    with session.span(f"config:{name}", kind="flow",
                      with_power=with_power):
        top, library, bank = build_config(name, session=session)
        stimulus = read_stimulus(bank) if with_power else None
        return run_flow(top, library, stimulus=stimulus,
                        anneal_moves=anneal_moves, session=session)
