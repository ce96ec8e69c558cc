"""The verify battery: shared divisor enumeration and the shrink path."""

import pytest

from folindex import verify
from folindex.cli import main
from folindex.errors import CheckFailed, PropertyViolation
from folindex.scenes import dump_scene, parse_scene


@pytest.mark.parametrize("count, seed", [(1, 0), (7, 3), (40, 11)])
def test_battery_enumerates_each_program_once(monkeypatch, count, seed):
    calls = []
    original = verify.enumerate_balanced

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "enumerate_balanced", counting)
    stats = verify.verify_battery(count=count, seed=seed)
    assert len(calls) == count
    assert all(runs == count for runs in stats["checks"].values())


def _broken_gsv(monkeypatch):
    original = verify.gsv

    def gsv(s_b, s, a):
        return original(s_b, s, a) + (1 if sum(s) > 1 else 0)

    monkeypatch.setattr(verify, "gsv", gsv)


def test_gsv_violation_shrinks_to_a_replayable_scene(monkeypatch, capsys):
    _broken_gsv(monkeypatch)
    with pytest.raises(PropertyViolation, match="'gsv-along'") as info:
        verify.verify_battery(50, 0, 12)
    scene = info.value.scene
    parse_scene(dump_scene(scene))
    assert verify._fails(scene, "gsv-along")
    assert main(["verify", "--count", "50"]) == 1
    assert "identity violation" in capsys.readouterr().out


def test_enumeration_error_names_balanced_pairing(monkeypatch):
    def enumerate_balanced(*args, **kwargs):
        raise CheckFailed("enumeration broke")

    monkeypatch.setattr(verify, "enumerate_balanced", enumerate_balanced)
    with pytest.raises(PropertyViolation, match="'balanced-pairing'") as info:
        verify.verify_battery(3, 0, 12)
    assert verify._fails(info.value.scene, "balanced-pairing")
    assert not verify._fails(info.value.scene, "steps-factorization")
