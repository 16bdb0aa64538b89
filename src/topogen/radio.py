"""Mapping link-budget bounds to transceiver power/sensitivity settings.

The link budget of a setting is transmit power minus receiver
sensitivity; a link with loss at most that budget is receivable. A guard
raises the realized budget slightly (preferring improved sensitivity) to
move operation out of the transition region between perfect and no
reception.
"""

from __future__ import annotations

from dataclasses import dataclass


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

    @property
    def min_budget(self) -> float:
        return self.tx_levels[0] - self.sensitivity_levels[-1]

    @property
    def max_budget(self) -> float:
        return self.tx_levels[-1] - self.sensitivity_levels[0]


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
    """A base setting plus its guarded variant, if the profile allows one."""

    base: RadioSetting
    guarded: RadioSetting | None
    saturated: bool


def budget(setting: RadioSetting) -> float:
    return setting.budget


def bound_for_settings(setting: RadioSetting) -> float:
    """Largest loss receivable under the setting; equals its budget."""
    return setting.budget


def _guard_variant(
    base: RadioSetting, guard: float, profile: TransceiverProfile
) -> RadioSetting | None:
    if guard == 0:
        return base
    target = base.budget + guard
    sens_set = set(profile.sensitivity_levels)
    tx_set = set(profile.tx_levels)
    # Prefer improving sensitivity: keeps transmit power, and so
    # interference with co-located experiments, low.
    if base.tx_power - target in sens_set:
        return RadioSetting(base.tx_power, base.tx_power - target)
    if base.sensitivity + target in tx_set:
        return RadioSetting(base.sensitivity + target, base.sensitivity)
    candidates = [
        RadioSetting(tx, tx - target)
        for tx in profile.tx_levels
        if tx >= base.tx_power and tx - target in sens_set and tx - target <= base.sensitivity
    ]
    return min(candidates, key=lambda s: s.tx_power) if candidates else None


def settings_for_bound(
    beta: float,
    profile: TransceiverProfile = AT86RF231,
    guard: float = 3.0,
) -> list[GuardedSetting]:
    """All settings realizing the bound exactly, lowest transmit power first.

    Each base pair carries a guarded variant with realized budget
    beta + guard, or a saturation marker when the profile has no
    headroom left.
    """
    if guard < 0:
        raise ValueError("guard must be >= 0")
    if not profile.min_budget <= beta <= profile.max_budget:
        raise ValueError(
            f"bound {beta} outside profile {profile.name} budget range "
            f"[{profile.min_budget}, {profile.max_budget}]"
        )
    sens_set = set(profile.sensitivity_levels)
    results = []
    for tx in profile.tx_levels:
        sens = tx - beta
        if sens not in sens_set:
            continue
        base = RadioSetting(tx, sens)
        guarded = _guard_variant(base, guard, profile)
        results.append(
            GuardedSetting(base=base, guarded=guarded, saturated=guarded is None)
        )
    if not results:
        raise ValueError(
            f"bound {beta} not exactly realizable with profile {profile.name}"
        )
    return results
