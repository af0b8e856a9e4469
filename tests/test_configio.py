"""key = value config files and dataclass conversion."""

from dataclasses import dataclass

import pytest

from rfloc.cli import SynthScenario
from rfloc.configio import (
    dataclass_to_kv,
    kv_to_dataclass,
    parse_float,
    parse_float_tuple,
    parse_pair_tuple,
    read_kv,
    value_to_str,
    write_kv,
)
from rfloc.errors import ConfigError
from rfloc.meanteacher import ConfidenceConfig, MeanTeacherConfig


def test_read_kv_basics(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment\nalpha = 0.8\n\nepochs=5  # trailing comment\n")
    assert read_kv(p) == {"alpha": "0.8", "epochs": "5"}


def test_read_kv_malformed_line_reports_number(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("alpha = 0.8\nnot a pair\n")
    with pytest.raises(ConfigError, match="line 2"):
        read_kv(p)


def test_read_kv_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot open"):
        read_kv(tmp_path / "absent.cfg")


def test_read_kv_not_utf8(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_bytes(b"\xff\xfealpha = 0.8\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        read_kv(p)


def test_write_read_round_trip(tmp_path):
    p = tmp_path / "c.cfg"
    mapping = {"alpha": "0.7", "name": "target", "k": "2"}
    write_kv(p, mapping, header="snapshot")
    assert p.read_text().startswith("# snapshot\n")
    assert read_kv(p) == mapping


def test_parse_tuples():
    assert parse_float_tuple("5.0,9.0") == (5.0, 9.0)
    assert parse_pair_tuple("0,8;6.5,17.5") == ((0.0, 8.0), (6.5, 17.5))
    assert parse_pair_tuple("1,2;") == ((1.0, 2.0),)
    with pytest.raises(ConfigError):
        parse_float_tuple("1,abc")


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400"])
def test_float_parsers_reject_non_finite(text):
    with pytest.raises(ConfigError, match="finite"):
        parse_float(text)
    with pytest.raises(ConfigError, match="finite"):
        parse_float_tuple(f"1.0,{text}")
    with pytest.raises(ConfigError, match="finite"):
        parse_pair_tuple(f"0,1;{text},2")
    assert parse_float("-1e300") == -1e300


def test_dataclass_round_trip_mean_teacher():
    cfg = ConfidenceConfig(alpha=0.8, c_x=8.0, c_y=4.0, k=2, seed=3)
    back = kv_to_dataclass(ConfidenceConfig, dataclass_to_kv(cfg))
    assert back == cfg


def test_dataclass_round_trip_tuple_fields():
    # gen-synth's settable config; SynthConfig, built from it, also has a
    # str name, which is not settable and has no parser.
    cfg = SynthScenario(source_rx=((1.5, 1.5), (1.5, 8.5)), room=(12.0, 9.0), seed=4)
    back = kv_to_dataclass(SynthScenario, dataclass_to_kv(cfg))
    assert back == cfg


def test_kv_to_dataclass_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key 'alhpa'"):
        kv_to_dataclass(MeanTeacherConfig, {"alhpa": "0.8"})


def test_kv_to_dataclass_reports_bad_value():
    with pytest.raises(ConfigError, match="'epochs'"):
        kv_to_dataclass(MeanTeacherConfig, {"epochs": "many"})


@dataclass
class _Typed:
    on: bool = False
    name: str = "a"
    k: int = 2


def test_kv_to_dataclass_refuses_bool_and_str_fields():
    # rfloc's configs have int, float and tuple fields only. A bool is an
    # int too, but must not parse as one.
    assert kv_to_dataclass(_Typed, {"k": "5"}).k == 5
    for key, text, kind in (("on", "1", "bool"), ("name", "b", "str")):
        with pytest.raises(ConfigError, match=f"no parser for config value of type {kind}"):
            kv_to_dataclass(_Typed, {key: text})


def test_value_to_str_repr_floats():
    assert value_to_str(0.1) == "0.1"
    assert value_to_str(((1.5, 2.5),)) == "1.5,2.5"
    assert value_to_str((1.0, 2.0)) == "1.0,2.0"
    # repr keeps full precision, so parse(value_to_str(x)) == x bit for bit.
    x = 0.1 + 0.2
    assert float(value_to_str(x)) == x
