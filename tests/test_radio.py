import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topogen.radio import (
    AT86RF231,
    RadioSetting,
    TransceiverProfile,
    settings_for_bound,
)


def test_budget_worked_examples():
    assert RadioSetting(-17, -63).budget == 46
    assert RadioSetting(3, -101).budget == 104
    assert RadioSetting(-17, -48).budget == 31


def test_default_profile_budget_range():
    assert AT86RF231.min_budget == 31
    assert AT86RF231.max_budget == 104
    assert AT86RF231.tx_levels[0] == -17 and AT86RF231.tx_levels[-1] == 3
    assert AT86RF231.sensitivity_levels[0] == -101
    assert AT86RF231.sensitivity_levels[-1] == -48


def test_settings_for_46_with_guard():
    options = settings_for_bound(46, AT86RF231, guard=3)
    first = options[0]
    assert first.base == RadioSetting(-17.0, -63.0)
    assert first.guarded == RadioSetting(-17.0, -66.0)
    # ascending transmit power, every base realizes the bound exactly
    tx_powers = [o.base.tx_power for o in options]
    assert tx_powers == sorted(tx_powers)
    assert all(o.base.budget == 46 for o in options)


def test_settings_at_max_bound_saturate():
    options = settings_for_bound(104, AT86RF231, guard=3)
    assert len(options) == 1
    assert options[0].base == RadioSetting(3.0, -101.0)
    assert options[0].guarded is None


def test_settings_below_minimum_is_error():
    with pytest.raises(ValueError, match=r"\[31.0, 104.0\]"):
        settings_for_bound(30)
    with pytest.raises(ValueError):
        settings_for_bound(105)


def test_bound_for_settings_inverse():
    assert RadioSetting(-3, -66).budget == 63
    for beta in (31, 46, 63, 80, 104):
        for option in settings_for_bound(beta, AT86RF231, guard=0):
            assert option.base.budget == beta
            assert option.guarded.budget == beta
    for option in settings_for_bound(46, AT86RF231, guard=3):
        if option.guarded is not None:
            assert option.guarded.budget == 49


def test_guard_never_decreases_budget():
    for beta in range(31, 105):
        for option in settings_for_bound(float(beta), AT86RF231, guard=3):
            if option.guarded is not None:
                assert option.guarded.budget == beta + 3


def test_guard_prefers_sensitivity_improvement():
    options = settings_for_bound(46, AT86RF231, guard=3)
    for option in options:
        if option.guarded is not None and option.guarded.sensitivity > AT86RF231.sensitivity_levels[0]:
            assert option.guarded.tx_power == option.base.tx_power


def test_guard_falls_back_to_tx_power():
    # sensitivity floor already reached: only raising power can guard
    profile = TransceiverProfile("narrow", (-17.0, -14.0), (-63.0,))
    [option] = settings_for_bound(46, profile, guard=3)
    assert option.guarded == RadioSetting(-14.0, -63.0)


def test_profile_validation():
    with pytest.raises(ValueError, match="empty"):
        TransceiverProfile("bad", (), (-50.0,))
    with pytest.raises(ValueError, match="ascending"):
        TransceiverProfile("bad", (3.0, -17.0), (-50.0,))


def test_negative_guard_rejected():
    with pytest.raises(ValueError):
        settings_for_bound(46, AT86RF231, guard=-1)


def least_power_guard(base, guard, profile):
    """Brute force: the least-tx level pair of budget base + guard, no worse than base."""
    candidates = [
        RadioSetting(tx, sens)
        for tx in profile.tx_levels
        for sens in profile.sensitivity_levels
        if tx - sens == base.budget + guard
        and tx >= base.tx_power
        and sens <= base.sensitivity
    ]
    return min(candidates, key=lambda s: s.tx_power, default=None)


def realizable_bounds(profile):
    return sorted({tx - sens for tx in profile.tx_levels for sens in profile.sensitivity_levels})


# the datasheet's TX_PWR register levels, with the 1 dB sensitivity grid
DECIMAL_TX = TransceiverProfile(
    "AT86RF231-decimal-tx",
    (-17.0, -12.0, -9.0, -7.0, -5.0, -4.0, -3.0, -2.0, -1.0,
     0.0, 0.7, 1.3, 1.8, 2.3, 2.8, 3.0),
    AT86RF231.sensitivity_levels,
)


def test_guard_is_the_least_power_setting_no_worse_than_base():
    for profile in (AT86RF231, DECIMAL_TX):
        for guard in (0, 0.5, 0.7, 1, 2, 3, 5):
            for beta in realizable_bounds(profile):
                for option in settings_for_bound(beta, profile, guard=guard):
                    assert option.guarded == least_power_guard(option.base, guard, profile)


@pytest.mark.parametrize("profile", [AT86RF231, DECIMAL_TX], ids=lambda p: p.name)
def test_guard_zero_returns_the_base(profile):
    for beta in realizable_bounds(profile):
        for option in settings_for_bound(beta, profile, guard=0):
            assert option.guarded == option.base


@st.composite
def decimal_levels(draw):
    """(decimals, tx levels, sensitivity levels), each level as an integer
    count of 10**-decimals dBm, both lists strictly ascending."""
    decimals = draw(st.sampled_from((1, 2)))
    unit = 10**decimals
    tx = draw(st.lists(st.integers(-30 * unit, 10 * unit), min_size=1, max_size=8, unique=True))
    sens = draw(
        st.lists(st.integers(-110 * unit, -40 * unit), min_size=1, max_size=12, unique=True)
    )
    return decimals, sorted(tx), sorted(sens)


def as_text(count, decimals):
    """The decimal text of ``count`` units of 10**-decimals, as an operator types it."""
    return f"{count / 10**decimals:.{decimals}f}"


def decimal_profile(decimals, tx, sens):
    unit = 10**decimals
    return TransceiverProfile("decimal", tuple(t / unit for t in tx), tuple(s / unit for s in sens))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(decimal_levels())
def test_every_budget_of_a_decimal_profile_is_accepted(levels):
    profile = decimal_profile(*levels)
    for beta in profile.budgets:
        assert settings_for_bound(beta, profile, guard=0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(decimal_levels())
def test_every_decimal_setting_is_found_by_its_typed_budget(levels):
    decimals, tx, sens = levels
    profile = decimal_profile(*levels)
    for t in tx:
        for s in sens:
            beta = float(as_text(t - s, decimals))
            bases = [option.base for option in settings_for_bound(beta, profile, guard=0)]
            assert RadioSetting(t / 10**decimals, s / 10**decimals) in bases


@settings(max_examples=200, deadline=None, derandomize=True)
@given(decimal_levels(), st.data())
def test_a_typed_decimal_guard_finds_its_guarded_pair(levels, data):
    decimals, tx, sens = levels
    unit = 10**decimals
    profile = decimal_profile(*levels)
    # a base pair and a different pair no worse than it, so of a larger budget
    i = data.draw(st.integers(0, len(tx) - 1))
    j = data.draw(st.integers(0, len(sens) - 1))
    g_i = data.draw(st.integers(i, len(tx) - 1))
    g_j = data.draw(st.integers(0, j))
    if (g_i, g_j) == (i, j):
        return
    budget, raised = tx[i] - sens[j], tx[g_i] - sens[g_j]
    beta = float(as_text(budget, decimals))
    guard = float(as_text(raised - budget, decimals))
    [option] = [
        o for o in settings_for_bound(beta, profile, guard=guard)
        if o.base == RadioSetting(tx[i] / unit, sens[j] / unit)
    ]
    least = min(t for t in tx[i:] for s in sens[: j + 1] if t - s == raised)
    assert option.guarded == RadioSetting(least / unit, (least - raised) / unit)
