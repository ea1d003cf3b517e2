import pytest

from layoutedit.config import ConfigError, InjectionConfig, RunConfig


def test_defaults_match_run_settings():
    cfg = RunConfig().validate()
    assert cfg.heads == 8
    assert cfg.lam == 0.8
    assert cfg.cfg_w == 5.0
    assert cfg.sample_steps == 30
    assert cfg.lr == 2.5e-4
    assert cfg.train_steps == 2100
    assert cfg.dropout_rate == 0.05
    assert cfg.injection.position == "down4"


@pytest.mark.parametrize("field,value", [
    ("heads", 0), ("train_steps", -1), ("dropout_rate", 1.0),
    ("lam", -0.5), ("dtype", "float16"),
])
def test_rejects_bad_values(field, value):
    cfg = RunConfig()
    setattr(cfg, field, value)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_rejects_indivisible_dims():
    with pytest.raises(ConfigError, match="heads"):
        RunConfig(d_i=30, heads=8).validate()
    with pytest.raises(ConfigError, match="patch_size"):
        RunConfig(image_size=30).validate()


@pytest.mark.parametrize("kw,field", [
    (dict(d_model=9, heads=3, d_i=9, d_t=9, d_l=9), "d_model"),
    (dict(image_size=21, patch_size=7), "image_size"),
])
def test_rejects_odd_extents(kw, field):
    with pytest.raises(ConfigError, match=f"{field} must be even") as info:
        RunConfig(**kw).validate()
    assert info.value.fields == (field,)


def test_rejects_unknown_injection_site():
    cfg = RunConfig(injection=InjectionConfig(position="up9"))
    with pytest.raises(ConfigError, match="up9"):
        cfg.validate()


def test_json_roundtrip(tmp_path):
    cfg = RunConfig(seed=5, d_model=32, heads=4,
                    injection=InjectionConfig(position="mid", ip_scale=0.5))
    cfg.save(tmp_path / "c.json")
    back = RunConfig.load(tmp_path / "c.json")
    assert back == cfg


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="bogus"):
        RunConfig.from_dict({"bogus": 1})


@pytest.mark.parametrize("doc,field", [
    ({"heads": "8"}, "heads"), ({"heads": True}, "heads"),
    ({"lam": "0.8"}, "lam"), ({"dtype": 32}, "dtype"),
    ({"injection": {"ip_scale": "1"}}, "injection.ip_scale"),
])
def test_wrong_type_names_field(doc, field):
    with pytest.raises(ConfigError, match=field):
        RunConfig.from_dict(doc).validate()


def test_range_checks_wait_for_validate():
    cfg = RunConfig.from_dict({"heads": 0})
    cfg.heads = 4
    assert cfg.validate().heads == 4


def test_non_object_injection_rejected():
    with pytest.raises(ConfigError, match="injection"):
        RunConfig.from_dict({"injection": "mid"})


def test_unknown_injection_key_rejected():
    with pytest.raises(ConfigError, match="site"):
        RunConfig.from_dict({"injection": {"site": "mid"}})


def test_ql_seed_env_override(monkeypatch):
    monkeypatch.setenv("QL_SEED", "41")
    assert RunConfig(seed=3).apply_env().seed == 41
    monkeypatch.delenv("QL_SEED")
    assert RunConfig(seed=3).apply_env().seed == 3
