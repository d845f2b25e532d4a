import pytest

from gffpin import config
from gffpin.errors import ConfigError


def test_parse_basic():
    text = """
# a comment
[model]
N = 32
h = 0.25   # inline comment
name = thermo
"""
    cfg = config.parse_config(text)
    assert cfg == {"N": 32, "h": 0.25, "name": "thermo"}
    assert isinstance(cfg["N"], int)
    assert isinstance(cfg["h"], float)


def test_parse_errors():
    with pytest.raises(ConfigError):
        config.parse_config("just a line without equals")
    with pytest.raises(ConfigError):
        config.parse_config("a = 1\na = 2")
    with pytest.raises(ConfigError):
        config.parse_config("= 3")


def test_roundtrip():
    cfg = {"N": 64, "h": 0.3, "seed": 123456789, "tag": "run-1", "m": 1e-06}
    assert config.parse_config(config.render_config(cfg)) == cfg


def test_roundtrip_randomized():
    import random

    rnd = random.Random(7)
    for _ in range(25):
        cfg = {}
        for i in range(rnd.randint(1, 8)):
            key = f"k{i}"
            kind = rnd.choice(["int", "float", "str"])
            if kind == "int":
                cfg[key] = rnd.randint(-10**9, 10**9)
            elif kind == "float":
                cfg[key] = rnd.random() * 10 ** rnd.randint(-8, 8)
            else:
                cfg[key] = rnd.choice(["alpha", "x-y", "z_9"])
        assert config.parse_config(config.render_config(cfg)) == cfg


def test_registry_defaults_roundtrip():
    from gffpin import experiments

    for name, exp in experiments.REGISTRY.items():
        text = config.render_config(exp.defaults, header=name)
        assert config.parse_config(text) == exp.defaults
