import json
from dataclasses import FrozenInstanceError, fields

import pytest

from qrepsim import (
    CavityParams,
    Config,
    ConfigError,
    GateNoiseParams,
    LinkParams,
    OperationTimings,
    parse_config,
)
from qrepsim.chain import FIDELITY_TARGET
from qrepsim.cli import main
from qrepsim.config import load_config, records
from test_golden import EVERY_KEY

RECORDS = (CavityParams, LinkParams, GateNoiseParams, OperationTimings)


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


def test_config_keys_are_the_record_fields():
    names = [f.name for record in RECORDS for f in fields(record)]
    assert len(names) == len(set(names))
    # the keys in record order, then the chain's target: also the config echo's order
    assert list(vars(Config())) == [*names, "fidelity_target"]
    assert records(Config()) == tuple(record() for record in RECORDS)
    assert FIDELITY_TARGET == Config().fidelity_target


def test_config_is_a_frozen_dataclass_of_the_config_module():
    assert Config.__module__ == "qrepsim.config"
    with pytest.raises(FrozenInstanceError):
        Config().g_mhz = 8.0


def test_config_file_with_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(EVERY_KEY, encoding="utf-8")
    marked.write_text(EVERY_KEY, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert load_config(str(marked)) == load_config(str(plain)) == parse_config(EVERY_KEY)


def test_records_take_every_key_from_the_config():
    config = parse_config(EVERY_KEY)
    for record in records(config):
        for f in fields(record):
            assert getattr(record, f.name) == getattr(config, f.name)


def test_config_reports_f_move_with_the_noise_record():
    # a bad transport fidelity is found before a bad timing
    with pytest.raises(ConfigError, match=r"^f_move 0.2 outside \(0.25, 1\]$"):
        parse_config("t_swap_us = -1\nf_move = 0.2\n")


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


def test_cli_chain_says_on_stderr_why_it_exits_3(tmp_path, capsys):
    out = tmp_path / "plan.csv"
    argv = ["chain", "--stations", "5", "--distance-km", "25", "--target", "0.995"]
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr() == (
        "",
        "infeasible: no plan with N1, N2 <= 8 reaches target 0.995; "
        "best f_m 0.993126706 at N1=8, N2=8\n",
    )
    # the line names the row's own best cell
    assert out.read_text().splitlines()[-1] == "25,5,0,0.995,8,8,0.993126706,0,0,false"
    assert main(["chain", "--stations", "5", "--distance-km", "25", "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")


def test_cli_chain_rejects_bad_station_count(capsys):
    assert main(["chain", "--stations", "4", "--distance-km", "1.0"]) == 2


@pytest.mark.parametrize("m_stations", ["0", "1", "4", "6", "10"])
def test_chain_and_sweep_reject_a_station_count_with_one_message(capsys, m_stations):
    assert main(["chain", "--stations", m_stations, "--distance-km", "10"]) == 2
    chain = capsys.readouterr()
    assert main(["sweep", "--stations", m_stations]) == 2
    sweep = capsys.readouterr()
    assert chain.out == sweep.out == ""
    assert chain.err == sweep.err
    assert chain.err.startswith("error: ") and chain.err.count("\n") == 1


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


@pytest.mark.parametrize("distances", ["bogus", "1:500:40,"])
def test_cli_sweep_bad_distances(capsys, distances):
    assert main(["sweep", "--distances", distances]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: bad --distances {distances!r}; expected lo:hi:points[,log|lin]\n"
    )


@pytest.mark.parametrize("stations", ["x", "2,,5", "2.5"])
def test_cli_sweep_bad_stations(capsys, stations):
    assert main(["sweep", "--stations", stations]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: bad --stations {stations!r}; expected comma-separated integers\n"
    )


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
    from qrepsim import CavityParams, LinkParams, OperationTimings, optimize_plan

    nan, inf = float("nan"), float("inf")
    for build in (
        lambda: CavityParams(g_mhz=nan),
        lambda: LinkParams(length_km=inf),
        lambda: LinkParams(fiber_index=nan),
        lambda: OperationTimings(t_proj_us=nan),
        lambda: OperationTimings().stage_time_us(inf),
        lambda: optimize_plan(5, nan, CavityParams(), LinkParams(), GateNoiseParams()),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            build()


# A link budget or pipeline time that overflows to infinity: link printed
# t_esta_us = inf (Infinity in JSON, which is not JSON) and purify printed
# t_eg_us = inf rows with rate 0, both with exit code 0. At 1100 km the herald
# success underflows to 0, and both died with a ZeroDivisionError traceback.


@pytest.mark.parametrize(
    "length_km, argv, message",
    [
        ("1015", ["link"], "t_esta_us must be finite, got inf"),
        ("1015", ["link", "--format", "json"], "t_esta_us must be finite, got inf"),
        ("1010", ["purify", "--n-max", "10"], "t_eg_us must be finite, got inf"),
        (
            "1010",
            ["purify", "--n-max", "10", "--format", "json"],
            "t_eg_us must be finite, got inf",
        ),
        ("1100", ["link"], "t_esta_us must be finite, got inf"),
        ("1100", ["link", "--format", "json"], "t_esta_us must be finite, got inf"),
        ("1100", ["purify"], "t_esta_us must be finite, got inf"),
        ("1100", ["purify", "--format", "json"], "t_esta_us must be finite, got inf"),
    ],
)
def test_cli_rejects_an_infinite_time(tmp_path, capsys, length_km, argv, message):
    cfg = tmp_path / "long.cfg"
    cfg.write_text(f"length_km = {length_km}\n")
    assert main([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


COMMANDS = [["link"], ["purify"], ["chain", "--stations", "5", "--distance-km", "25"],
            ["sweep", "--distances", "1:10:2"]]
HUGE = "1" + "0" * 400  # an int that float() cannot hold


# An int key past the float range died with an OverflowError traceback (exit 1)
# wherever a record turned it into a float: parallel_links in every command
# but link, n_circulators in all four.
@pytest.mark.parametrize("argv", COMMANDS)
@pytest.mark.parametrize("key", ["parallel_links", "n_circulators"])
def test_cli_rejects_an_int_past_the_float_range(tmp_path, capsys, key, argv):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"{key} = {HUGE}\n")
    assert main([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {key} must lie within the float range\n"
    assert captured.out == ""


# A rate that overflowed to infinity printed rate_khz = inf or rate_hz = inf, exit 0.
@pytest.mark.parametrize(
    "text, argv, message",
    [
        ("pulse_factor = 1e-306\nlength_km = 1e-320\n", COMMANDS[0], "rate_khz"),
        *[(f"parallel_links = 1{'0' * 305}\n", argv, "rate_hz") for argv in COMMANDS[1:]],
    ],
)
def test_cli_rejects_an_infinite_rate(tmp_path, capsys, text, argv, message):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(text)
    assert main([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message} must be finite, got inf\n"
    assert captured.out == ""


# M - 1 past 2**1023 died with an OverflowError traceback at L / (M - 1) (exit 1).
# The largest station count still runs; at 10 km no plan is feasible, so chain exits 3.
@pytest.mark.parametrize(
    "command, rc", [(["chain", "--distance-km", "10"], 3), (["sweep", "--distances", "10:10:1"], 0)]
)
def test_cli_rejects_a_station_count_past_the_float_range(capsys, command, rc):
    assert main([*command, "--stations", str(2**1024 + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: m_stations - 1 must be at most 2**1023\n"
    assert captured.out == ""
    assert main([*command, "--stations", str(2**1023 + 1)]) == rc
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert (row[1], row[-1]) == (str(2**1023 + 1), "false")


def test_cli_purify_keeps_the_largest_finite_rows(tmp_path, capsys):
    cfg = tmp_path / "long.cfg"
    cfg.write_text("length_km = 1000\n")
    assert main(["purify", "--n-max", "10", "--config", str(cfg)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 44


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "target, reason",
    [("missing/out.txt", "No such file or directory"), (".", "Is a directory")],
)
def test_cli_unwritable_out_exits_2(tmp_path, capsys, fmt, target, reason):
    out = str(tmp_path / target)
    assert main(["link", "--format", fmt, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write output file {out!r}: {reason}\n"
    assert captured.out == ""
