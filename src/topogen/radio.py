"""Mapping link-budget bounds to transceiver power/sensitivity settings.

The link budget of a setting is transmit power minus receiver
sensitivity; a link with loss at most that budget is receivable. A guard
raises the realized budget slightly to move operation out of the
transition region between perfect and no reception: the guarded variant
is the least-power setting of budget beta + guard whose transmit power
and sensitivity are no worse than the base's, which keeps interference
with co-located experiments low.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


def _budget_key(budget: float) -> float:
    """``budget`` to 1e-9 dB: typed 65.26 meets 1.4 - -63.86 = 65.26000000000001."""
    return round(budget, 9)


@dataclass(frozen=True)
class TransceiverProfile:
    """Discrete transmit-power and sensitivity levels of a radio, in dBm."""

    name: str
    tx_levels: tuple[float, ...]
    sensitivity_levels: tuple[float, ...]

    def __post_init__(self):
        for label, levels in (
            ("tx", self.tx_levels),
            ("sensitivity", self.sensitivity_levels),
        ):
            if not levels:
                raise ValueError(f"empty {label} level list")
            if any(a >= b for a, b in zip(levels, levels[1:])):
                raise ValueError(f"{label} levels must be strictly ascending")

    @cached_property
    def settings(self) -> dict[float, list[tuple[float, float]]]:
        """Each realizable budget's ``_budget_key`` to its (tx, s) pairs, least power first."""
        table = {}
        for tx in self.tx_levels:
            for s in self.sensitivity_levels:
                table.setdefault(_budget_key(tx - s), []).append((tx, s))
        return table

    @cached_property
    def budgets(self) -> tuple[float, ...]:
        """Every budget some setting realizes, ascending: the bounds worth sweeping."""
        return tuple(sorted(self.settings))

    @property
    def min_budget(self) -> float:
        return self.budgets[0]

    @property
    def max_budget(self) -> float:
        return self.budgets[-1]


# Endpoints match the AT86RF231 datasheet ranges (-17..3 dBm output,
# -48..-101 dBm sensitivity). The 1 dB interior grid is a placeholder,
# not datasheet truth; supply the exact register table for hardware runs.
AT86RF231 = TransceiverProfile(
    name="AT86RF231",
    tx_levels=tuple(float(p) for p in range(-17, 4)),
    sensitivity_levels=tuple(float(s) for s in range(-101, -47)),
)


@dataclass(frozen=True)
class RadioSetting:
    tx_power: float
    sensitivity: float

    @property
    def budget(self) -> float:
        return self.tx_power - self.sensitivity


@dataclass(frozen=True)
class GuardedSetting:
    """A base setting plus its guarded variant, or None if the profile allows none."""

    base: RadioSetting
    guarded: RadioSetting | None


def settings_for_bound(
    beta: float,
    profile: TransceiverProfile = AT86RF231,
    guard: float = 3.0,
) -> list[GuardedSetting]:
    """All settings realizing the bound exactly, lowest transmit power first,
    each with its guarded variant (see the module docstring) or None."""
    if guard < 0:
        raise ValueError("guard must be >= 0")
    if not profile.min_budget <= beta <= profile.max_budget:
        raise ValueError(
            f"bound {beta} outside profile {profile.name} budget range "
            f"[{profile.min_budget}, {profile.max_budget}]"
        )
    key = _budget_key(beta)
    bases = profile.settings.get(key)
    if not bases:
        raise ValueError(f"bound {beta} not exactly realizable with profile {profile.name}")
    raised = profile.settings.get(_budget_key(key + guard), [])
    return [
        GuardedSetting(RadioSetting(tx, s), next(
            (RadioSetting(*g) for g in raised if g[0] >= tx and g[1] <= s), None))
        for tx, s in bases
    ]
