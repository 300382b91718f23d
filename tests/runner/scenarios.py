"""Deliberately misbehaving scenarios for runner fault-tolerance tests.

Module-level (importable, picklable) so worker processes can rebuild
them from a :class:`~repro.runner.RunSpec`.
"""

import os
import pathlib
import time
from dataclasses import dataclass

from repro.experiments.common import Scenario, WithdrawalScenario


@dataclass
class CrashScenario(Scenario):
    """Kills its worker process outright (no Python exception)."""

    name: str = "crash"

    def event(self, exp) -> None:
        os._exit(13)


@dataclass
class RaisingScenario(Scenario):
    """Raises a plain exception from the measured event."""

    name: str = "raising"

    def event(self, exp) -> None:
        raise ValueError("scenario exploded on purpose")


@dataclass
class ExplodingWithdrawal(WithdrawalScenario):
    """A withdrawal (so it takes ``origin=``) whose event always raises."""

    name: str = "exploding"

    def event(self, exp) -> None:
        raise ValueError("scenario exploded on purpose")


@dataclass
class FlakyScenario(WithdrawalScenario):
    """Fails on the first attempt, succeeds on every later one.

    Cross-process state lives in ``flag_path``: the first execution
    creates the file and raises; later executions see it and behave
    like a normal withdrawal.
    """

    name: str = "flaky"
    flag_path: str = ""

    def event(self, exp) -> None:
        flag = pathlib.Path(self.flag_path)
        if not flag.exists():
            flag.write_text("attempted")
            raise RuntimeError("flaky first attempt")
        super().event(exp)


@dataclass
class HangScenario(Scenario):
    """Blocks in real (wall-clock) time — a hung worker."""

    name: str = "hang"
    sleep_seconds: float = 30.0

    def event(self, exp) -> None:
        time.sleep(self.sleep_seconds)
