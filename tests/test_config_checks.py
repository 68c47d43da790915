"""Config checks that live in one place: key types, the target's range, file decoding."""

from dataclasses import fields

import pytest

from qrepsim import (
    CavityParams,
    Config,
    ConfigError,
    GateNoiseParams,
    LinkParams,
    optimize_plan,
    parse_config,
)
from qrepsim.cli import main


def test_config_field_types_are_annotation_strings():
    # every record module postpones annotations, so the converter compares strings
    assert {f.type for f in fields(Config)} == {"float", "int", "str"}


def test_config_and_chain_reject_a_target_with_one_message():
    message = r"^fidelity_target must lie in \[0, 1\)$"
    with pytest.raises(ConfigError, match=message):
        parse_config("fidelity_target = 1.0")
    with pytest.raises(ValueError, match=message):
        optimize_plan(2, 1.0, CavityParams(), LinkParams(), GateNoiseParams(), fidelity_target=1.0)


def test_cli_config_file_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("herald_mode = sérial\n".encode("latin-1"))
    assert main(["link", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"config error: cannot read config file {str(cfg)!r}: 'utf-8' codec can't decode byte 0xe9"
    )
