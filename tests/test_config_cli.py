import json

import pytest

from qrepsim import Config, ConfigError, parse_config
from qrepsim.cli import main


def test_empty_config_gives_defaults():
    config = parse_config("")
    assert config == Config()
    assert config.g_mhz == 7.6
    assert config.kappa_mhz == 4.0
    assert config.kappa0_mhz == 0.2
    assert config.gamma_mhz == 3.0
    assert config.herald_mode == "serial"


def test_config_comments_and_values():
    config = parse_config(
        """
        # cavity overrides
        g_mhz = 8.0
        eta_fc = 0.5   # conversion efficiency
        parallel_links = 2
        """
    )
    assert config.g_mhz == 8.0
    assert config.eta_fc == 0.5
    assert config.parallel_links == 2


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="line 1.*unknown key"):
        parse_config("coupling = 7.6")


def test_config_parse_error_has_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("g_mhz = 7.6\nnot a key value line")


def test_config_bad_value_type():
    with pytest.raises(ConfigError, match="line 1.*g_mhz"):
        parse_config("g_mhz = fast")


def test_config_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("g_mhz = 7.6\ng_mhz = 8.0")


def test_config_validates_cavity_invariant():
    with pytest.raises(ConfigError, match="kappa"):
        parse_config("kappa0_mhz = 5\nkappa_mhz = 4")


def test_config_validates_mode_names():
    with pytest.raises(ConfigError, match="herald_mode"):
        parse_config("herald_mode = batched")


def test_cli_link_defaults(tmp_path, capsys):
    assert main(["link"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    values = dict(zip(header, lines[1].split(",")))
    assert float(values["p_cz"]) == pytest.approx(0.81, abs=1e-6)
    assert float(values["p_succ"]) == pytest.approx(0.36, abs=0.01)
    assert float(values["t_esta_us"]) == pytest.approx(4.53, abs=0.1)
    assert float(values["heralded_fidelity"]) == pytest.approx(0.96)
    # config echo embeds the resolved settings
    assert "# herald_mode = serial" in out
    assert "# esta_convention = text" in out


def test_cli_output_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["link", "--out", str(a)]) == 0
    assert main(["link", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "x.cfg"
    cfg.write_text("detector_efficiency = 0.9\n")
    assert main(["link", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "# detector_efficiency = 0.9" in out


def test_cli_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kappa0_mhz = 9\n")
    assert main(["link", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_missing_config_file(capsys):
    assert main(["link", "--config", "/nonexistent/path.cfg"]) == 2


def test_cli_purify_n_max_above_10_rejected(tmp_path, capsys):
    out = tmp_path / "purify.csv"
    assert main(["purify", "--n-max", "11", "--out", str(out)]) == 2
    assert "error: n_max above 10 is not supported" in capsys.readouterr().err
    assert not out.exists()


def test_cli_purify_rows(tmp_path):
    out = tmp_path / "purify.csv"
    assert main(["purify", "--n-max", "4", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header == ["ops", "f0", "n", "fidelity", "p_puri", "t_eg_us", "rate_hz"]
    assert len(lines) - 1 == 2 * 2 * 5  # {noisy, ideal} x {0.91, 0.8} x N in 0..4
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    noisy_091 = [r for r in rows if r["ops"] == "noisy" and r["f0"] == "0.91"]
    assert float(noisy_091[4]["fidelity"]) >= 0.99
    for r in rows:
        assert 0.0 <= float(r["p_puri"]) <= 1.0
        assert float(r["rate_hz"]) >= 0.0


def test_cli_chain_feasible_and_infeasible(tmp_path, capsys):
    assert main(["chain", "--stations", "2", "--distance-km", "0.1"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["feasible"] == "true"
    assert float(row["rate_hz"]) == pytest.approx(1130.0, rel=0.05)

    assert (
        main(["chain", "--stations", "2", "--distance-km", "0.1", "--target", "0.9999"])
        == 3
    )
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["feasible"] == "false"
    assert float(row["rate_hz"]) == 0.0


def test_cli_chain_rejects_bad_station_count(capsys):
    assert main(["chain", "--stations", "4", "--distance-km", "1.0"]) == 2


def test_cli_sweep_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    assert (
        main(
            [
                "sweep",
                "--stations",
                "2,5",
                "--distances",
                "1:10:3,log",
                "--fc",
                "both",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) - 1 == 3 * 2 * 2
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    keys = [
        (float(r["total_length_km"]), int(r["m_stations"]), int(r["fc"]))
        for r in rows
    ]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "repeated, once",
    [
        (["--stations", "2,2,5"], ["--stations", "2,5"]),
        (
            ["--stations", "5,2,5", "--distances", "10:10:3,lin"],
            ["--stations", "2,5", "--distances", "10:10:1,lin"],
        ),
    ],
)
def test_cli_sweep_prints_each_row_once(capsys, repeated, once):
    assert main(["sweep", *repeated]) == 0
    repeated_out = capsys.readouterr().out
    assert main(["sweep", *once]) == 0
    assert repeated_out == capsys.readouterr().out


def test_cli_sweep_bad_distances(capsys):
    assert main(["sweep", "--distances", "bogus"]) == 2


def test_cli_json_mirror(tmp_path):
    out = tmp_path / "link.json"
    assert main(["link", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["g_mhz"] == 7.6
    assert payload["rows"][0]["p_cz"] == pytest.approx(0.81)
    assert payload["columns"][0] == "r_uncoupled"


def test_cli_json_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["purify", "--n-max", "2", "--format", "json", "--out", str(a)])
    main(["purify", "--n-max", "2", "--format", "json", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# Non-finite input: each of these was once accepted and gave NaN rows marked
# feasible, or a traceback, instead of a configuration error.


def test_cli_chain_rejects_nan_distance(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["chain", "--stations", "5", "--distance-km", "nan"])
    assert stop.value.code == 2
    assert "--distance-km: 'nan' is not a finite number" in capsys.readouterr().err


def test_cli_sweep_rejects_infinite_distance(capsys):
    assert main(["sweep", "--distances", "1:inf:3"]) == 2
    assert "bad --distances" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, argv",
    [
        ("t_proj_us = nan", ["chain", "--stations", "5", "--distance-km", "25"]),
        ("g_mhz = nan", ["link"]),
        ("length_km = inf", ["link"]),
    ],
)
def test_cli_rejects_non_finite_config(tmp_path, capsys, line, argv):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main([*argv, "--config", str(cfg)]) == 2
    key, _, value = line.partition(" = ")
    assert f"config error: {key} must be finite, got {value}" in capsys.readouterr().err


def test_params_reject_non_finite():
    from qrepsim import CavityParams, ChainParams, LinkParams, OperationTimings

    nan, inf = float("nan"), float("inf")
    for build in (
        lambda: CavityParams(g_mhz=nan),
        lambda: LinkParams(length_km=inf),
        lambda: LinkParams(fiber_index=nan),
        lambda: OperationTimings(t_esta_us=1.0, t_proj_us=nan),
        lambda: OperationTimings(t_esta_us=inf),
        lambda: ChainParams(5, nan),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            build()
