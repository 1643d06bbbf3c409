from __future__ import annotations

import dataclasses
import json
import math

import pytest

from hmot.config import (
    TrackerConfig,
    default_class_configs,
    load_config,
    parse_config,
    scalar_fields,
)
from hmot.errors import ConfigError
from hmot.kalman import Noise2D, Noise3D
from hmot.types import A_MAX_LIMIT, ClassConfig, Mode, ObjectClass

PED = ObjectClass.PEDESTRIAN
VEH = ObjectClass.VEHICLE
CYC = ObjectClass.CYCLIST


# ---------------------------------------------------------------------------
# defaults


def test_default_score_thresholds_by_mode():
    d2 = default_class_configs(Mode.D2)
    d3 = default_class_configs(Mode.D3)
    assert d2[PED].t_s == 0.5
    assert d2[VEH].t_s == 0.4
    assert d2[CYC].t_s == 0.5
    assert d3[PED].t_s == 0.5
    assert d3[VEH].t_s == 0.5
    assert d3[CYC].t_s == 0.5


def test_default_appearance_thresholds():
    d2 = default_class_configs(Mode.D2)
    assert d2[PED].t_a == 0.15
    assert d2[VEH].t_a == 0.06
    assert d2[CYC].t_a == 0.15


def test_default_iou_gates():
    d2 = default_class_configs(Mode.D2)
    assert (d2[PED].max_iou_dist_front, d2[PED].max_iou_dist_front_lr,
            d2[PED].max_iou_dist_side) == (0.95, 0.97, 0.99)
    assert (d2[VEH].max_iou_dist_front, d2[VEH].max_iou_dist_front_lr,
            d2[VEH].max_iou_dist_side) == (0.90, 0.93, 0.95)
    assert (d2[CYC].max_iou_dist_front, d2[CYC].max_iou_dist_front_lr,
            d2[CYC].max_iou_dist_side) == (0.95, 0.97, 0.99)


def test_default_3d_gates():
    d3 = default_class_configs(Mode.D3)
    assert (d3[PED].sigma, d3[VEH].sigma, d3[CYC].sigma) == (1.5, 5.0, 3.0)
    assert (d3[PED].max_center_dist, d3[VEH].max_center_dist,
            d3[CYC].max_center_dist) == (0.7, 0.5, 0.9)


def test_default_lifecycle_fields():
    for mode in (Mode.D2, Mode.D3):
        for cfg in default_class_configs(mode).values():
            assert cfg.a_max == 3
            assert cfg.min_hits == 1
            assert cfg.gallery_budget == 100
            assert cfg.enlarge_stage2 == 2.0
            assert cfg.enlarge_stage3 == 3.0
            assert cfg.mahalanobis_gating is False


# ---------------------------------------------------------------------------
# parse_config


def test_empty_config_equals_defaults():
    cfg = parse_config({}, mode=Mode.D2)
    assert cfg.mode is Mode.D2
    assert cfg.class_configs == default_class_configs(Mode.D2)
    assert cfg.noise_2d == Noise2D()
    assert cfg.noise_3d == Noise3D()


def test_mode_from_file():
    cfg = parse_config({"mode": "3d"})
    assert cfg.mode is Mode.D3
    assert cfg.class_configs[VEH].t_s == 0.5


def test_mode_conflict_rejected():
    with pytest.raises(ConfigError, match="contradicts"):
        parse_config({"mode": "3d"}, mode=Mode.D2)


def test_mode_agreement_accepted():
    cfg = parse_config({"mode": "2d"}, mode=Mode.D2)
    assert cfg.mode is Mode.D2


def test_missing_mode_rejected():
    with pytest.raises(ConfigError, match="no mode"):
        parse_config({})


def test_class_override_merges_onto_defaults():
    cfg = parse_config(
        {"classes": {"vehicle": {"t_s": 0.6, "a_max": 5}}}, mode=Mode.D2
    )
    veh = cfg.class_configs[VEH]
    assert veh.t_s == 0.6
    assert veh.a_max == 5
    assert veh.t_a == 0.06              # untouched default
    assert cfg.class_configs[PED] == default_class_configs(Mode.D2)[PED]


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown key 'tracks'"):
        parse_config({"tracks": {}}, mode=Mode.D2)


def test_unknown_class_name():
    with pytest.raises(ConfigError, match="unknown class 'bicycle'"):
        parse_config({"classes": {"bicycle": {}}}, mode=Mode.D2)


def test_unknown_class_field_names_path():
    with pytest.raises(ConfigError, match=r"config\.classes\.vehicle: unknown key 'foo'"):
        parse_config({"classes": {"vehicle": {"foo": 1}}}, mode=Mode.D2)


def test_type_enforcement():
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config({"classes": {"vehicle": {"a_max": 2.5}}}, mode=Mode.D2)
    with pytest.raises(ConfigError, match="expected a boolean"):
        parse_config({"classes": {"vehicle": {"mahalanobis_gating": 1}}},
                     mode=Mode.D2)
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config({"classes": {"vehicle": {"t_s": "high"}}}, mode=Mode.D2)
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config({"classes": {"vehicle": {"a_max": True}}}, mode=Mode.D2)


def test_field_kinds_follow_annotations():
    @dataclasses.dataclass
    class Probe:
        n: int
        on: bool
        x: float
        name: str
        pair: tuple[int, int]

    assert scalar_fields(Probe) == {"n": int, "on": bool, "x": float, "name": str}
    for cls in (ClassConfig, Noise2D, Noise3D):
        kinds = {name: kind.__name__ for name, kind in scalar_fields(cls).items()}
        assert kinds == {f.name: f.type for f in dataclasses.fields(cls)}


def test_out_of_range_value_reported_with_path():
    with pytest.raises(ConfigError, match=r"config\.classes\.vehicle"):
        parse_config({"classes": {"vehicle": {"t_s": 2.0}}}, mode=Mode.D2)


def test_a_max_limit_is_the_largest_a_max_accepted():
    cfg = parse_config({"classes": {"pedestrian": {"a_max": A_MAX_LIMIT}}}, mode=Mode.D2)
    assert cfg.class_configs[PED].a_max == A_MAX_LIMIT
    with pytest.raises(ConfigError,
                       match=rf"config\.classes\.pedestrian: a_max must be <= {A_MAX_LIMIT}"):
        parse_config({"classes": {"pedestrian": {"a_max": A_MAX_LIMIT + 1}}}, mode=Mode.D2)


@pytest.mark.parametrize("doc, path", [
    ({"classes": {"pedestrian": {"sigma": math.nan}}}, r"config\.classes\.pedestrian\.sigma"),
    ({"classes": {"vehicle": {"t_a": -math.inf}}}, r"config\.classes\.vehicle\.t_a"),
    ({"kalman": {"noise_3d": {"vel_proc_std": math.inf}}},
     r"config\.kalman\.noise_3d\.vel_proc_std"),
    ({"kalman": {"noise_2d": {"w_p": 10 ** 400}}}, r"config\.kalman\.noise_2d\.w_p"),
])
def test_non_finite_number_rejected_with_path(doc, path):
    with pytest.raises(ConfigError, match=path + ": expected a finite number"):
        parse_config(doc, mode=Mode.D3)


@pytest.mark.parametrize("mode", ["4d", 2])
def test_bad_mode_rejected_with_path(mode):
    with pytest.raises(ConfigError, match=rf"^config\.mode: expected '2d' or '3d', got {mode!r}$"):
        parse_config({"mode": mode})


@pytest.mark.parametrize("doc, message", [
    ({"kalman": {"noise_2d": {"w_p": -0.5}}}, r"config\.kalman\.noise_2d: w_p must be >= 0"),
    ({"kalman": {"noise_3d": {"pos_meas_std": -1}}},
     r"config\.kalman\.noise_3d: pos_meas_std must be >= 0"),
], ids=["noise_2d.w_p", "noise_3d.pos_meas_std"])
def test_negative_noise_rejected_with_path(doc, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(doc, mode=Mode.D3)


def test_kalman_noise_override():
    cfg = parse_config(
        {"kalman": {"noise_2d": {"w_p": 0.1}, "noise_3d": {"pos_proc_std": 2.0}}},
        mode=Mode.D2,
    )
    assert cfg.noise_2d.w_p == 0.1
    assert cfg.noise_2d.w_v == Noise2D().w_v
    assert cfg.noise_3d.pos_proc_std == 2.0


def test_kalman_unknown_noise_field():
    with pytest.raises(ConfigError, match=r"config\.kalman\.noise_2d: unknown key"):
        parse_config({"kalman": {"noise_2d": {"sigma": 1}}}, mode=Mode.D2)


def test_kalman_unknown_block():
    with pytest.raises(ConfigError, match=r"config\.kalman: unknown key"):
        parse_config({"kalman": {"noise_4d": {}}}, mode=Mode.D2)


def test_non_mapping_block_rejected():
    with pytest.raises(ConfigError, match="expected an object"):
        parse_config({"classes": []}, mode=Mode.D2)
    with pytest.raises(ConfigError, match="expected an object"):
        parse_config({"classes": {"vehicle": 3}}, mode=Mode.D2)


# ---------------------------------------------------------------------------
# load_config


def test_load_config_none_gives_defaults():
    cfg = load_config(None, mode=Mode.D3)
    assert cfg == parse_config({}, mode=Mode.D3)


def test_load_config_reads_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"mode": "2d", "classes": {"cyclist": {"t_a": 0.2}}}))
    cfg = load_config(p)
    assert cfg.mode is Mode.D2
    assert cfg.class_configs[CYC].t_a == 0.2


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.json", mode=Mode.D2)


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(p, mode=Mode.D2)


def test_tracker_config_is_complete():
    cfg = load_config(None, mode=Mode.D2)
    assert isinstance(cfg, TrackerConfig)
    assert set(cfg.class_configs) == set(ObjectClass)
