"""Bank and partition composition of bricks.

Fig. 4 of the paper builds SRAMs by stacking one brick 1x/2x/4x/8x into a
partition (configs A-D) and by tiling partitions into banks (config E).
:class:`BankConfig` captures that composition arithmetic in one place so
the RTL memory builders, the design-space explorer and the test-chip
emulation all agree on geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BrickError
from .spec import BrickSpec


@dataclass(frozen=True)
class BankConfig:
    """A memory organization: ``partitions`` banks of ``stack`` stacked
    bricks.

    Total capacity is ``partitions * stack * brick.words`` words of
    ``brick.bits`` bits.  A single-partition memory (configs A-D) has
    ``partitions == 1``.
    """

    brick: BrickSpec
    stack: int
    partitions: int = 1

    def __post_init__(self) -> None:
        if self.stack < 1:
            raise BrickError("stack must be >= 1")
        if self.partitions < 1:
            raise BrickError("partitions must be >= 1")

    @property
    def words(self) -> int:
        return self.brick.words * self.stack * self.partitions

    @property
    def bits(self) -> int:
        return self.brick.bits

    @property
    def words_per_partition(self) -> int:
        return self.brick.words * self.stack

    @property
    def n_bricks(self) -> int:
        return self.stack * self.partitions

    def describe(self) -> str:
        return (f"{self.words}x{self.bits}b = {self.partitions} "
                f"partition(s) of {self.stack}x stacked "
                f"{self.brick.words}x{self.brick.bits}b "
                f"{self.brick.memory_type} bricks")


def single_partition(brick: BrickSpec, total_words: int) -> BankConfig:
    """Stack one brick type into a single partition of ``total_words``."""
    if total_words % brick.words != 0:
        raise BrickError(
            f"{total_words} words is not a multiple of the brick's "
            f"{brick.words}")
    return BankConfig(brick=brick, stack=total_words // brick.words,
                      partitions=1)


def partitioned(brick: BrickSpec, total_words: int,
                partitions: int) -> BankConfig:
    """Split ``total_words`` into equal partitions of stacked bricks."""
    if total_words % partitions != 0:
        raise BrickError(
            f"{total_words} words does not split into {partitions} "
            f"partitions")
    per_part = total_words // partitions
    if per_part % brick.words != 0:
        raise BrickError(
            f"partition of {per_part} words is not a multiple of the "
            f"brick's {brick.words}")
    return BankConfig(brick=brick, stack=per_part // brick.words,
                      partitions=partitions)
