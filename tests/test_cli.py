"""CLI scenario runner and flat key=value configuration."""

import dataclasses
import errno
import functools
import os
import stat
import threading

import pytest

from asap_stream.cli import main
from asap_stream.config import (DEFAULTS, SCENARIOS, build_pipeline_config,
                                build_source, merge, parse_config_file,
                                parse_overrides)
from asap_stream.errors import ConfigurationError
from asap_stream.events import SensorGeometry
from asap_stream.pipeline import METRICS_HEADER, PipelineConfig

#: Settings fields whose dotted paths differ from their config keys.
_FIELD_OF = {"gamma.a": "gamma.a_evps", "gamma.min": "gamma.gamma_min",
             "pipeline.input_buffer_capacity": "input_buffer_capacity"}


def _replaced(settings, path, value):
    """``settings`` with the field at dotted ``path`` set to ``value``."""
    head, _, rest = path.partition(".")
    if rest:
        value = _replaced(getattr(settings, head), rest, value)
    return dataclasses.replace(settings, **{head: value})


class TestConfigLayers:
    def test_defaults_cover_every_documented_key(self):
        # every key, its default and the type its values parse to
        pinned = {
            "source.kind": "constant", "source.rate_evps": 1e6,
            "source.rate_start_evps": 1e5, "source.rate_end_evps": 1e7,
            "source.duration_s": 1.0, "source.path": "",
            "source.chunk_events": 65536, "mode": "virtual", "seed": 0,
            "geometry.width": 346, "geometry.height": 260, "gamma.a": 5e6,
            "gamma.beta": 0.25, "gamma.min": 0.01,
            "gamma.rate_window_us": 10000, "packager.n_min": 1,
            "packager.n_max": 1_000_000, "packager.timeout_us": 10000,
            "packager.model_smoothing": 0.2, "packager.headroom": 1.05,
            "packager.initial_size": 1000, "consumer.kind": "synthetic",
            "consumer.o_us": 1000.0, "consumer.c_ns": 500.0,
            "consumer.jitter": 0.0, "consumer.radius_px": 10.0,
            "consumer.ttl_us": 50000,
            "pipeline.input_buffer_capacity": 2_000_000}
        assert len(pinned) == 28
        assert ({key: (value, type(value)) for key, value in DEFAULTS.items()}
                == {key: (value, type(value))
                    for key, value in pinned.items()})

    def test_parse_overrides(self):
        # integer keys parse exactly, in exponent or decimal form too
        out = parse_overrides(["gamma.a=2e6", "packager.n_min=5", "seed=1e3",
                               "packager.n_max=12345678901234567.0"])
        assert out == {"gamma.a": 2e6, "packager.n_min": 5, "seed": 1000,
                       "packager.n_max": 12345678901234567}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="no.such.key"):
            parse_overrides(["no.such.key=1"])

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\ngamma.a = 1e6\nseed = 5  # inline\n\n")
        assert parse_config_file(path) == {"gamma.a": 1e6, "seed": 5}

    def test_config_file_error_names_line_and_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("gamma.a = 1e6\nbogus.key = 3\n")
        with pytest.raises(ConfigurationError, match=":2.*bogus.key"):
            parse_config_file(path)

    def test_precedence_flag_over_file_over_default(self, tmp_path):
        file_layer = {"seed": 11, "gamma.a": 2e6}
        flag_layer = {"seed": 99}
        cfg = merge(file_layer, flag_layer)
        assert cfg["seed"] == 99            # flag wins
        assert cfg["gamma.a"] == 2e6        # file wins over default
        assert cfg["gamma.beta"] == DEFAULTS["gamma.beta"]

    def test_defaults_build_the_default_pipeline_config(self):
        assert build_pipeline_config(merge()) == PipelineConfig()

    @pytest.mark.parametrize("key", [k for k in DEFAULTS
                                     if not k.startswith("source.")])
    def test_each_key_reaches_its_field(self, key):
        default = DEFAULTS[key]
        value = {"mode": "realtime", "consumer.kind": "clustering"}.get(key)
        if isinstance(default, int):
            value = default + 1
        elif isinstance(default, float):
            value = default * 1.5 + 0.125
        path = _FIELD_OF.get(key, key)
        cfg = merge(parse_overrides([f"{key}={value}"]))
        if key.startswith("geometry."):
            # the sensor geometry is the source's
            built, settings = build_source(cfg).geometry, SensorGeometry()
            path = path.partition(".")[2]
        else:
            built, settings = build_pipeline_config(cfg), PipelineConfig()
        assert built == _replaced(settings, path, value)
        assert type(functools.reduce(getattr, path.split("."), built)) \
            is type(default)

    def test_build_pipeline_config_validates(self):
        cfg = merge({"consumer.c_ns": -5.0})
        with pytest.raises(ConfigurationError) as err:
            build_pipeline_config(cfg)
        assert err.value.key == "consumer.c_ns"


class TestCliRun:
    def test_run_twice_identical_output(self, tmp_path):
        out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        base = ["run", "--scenario", "constant", "--seed", "7",
                "--set", "source.duration_s=0.2"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_invalid_value_exit_2_names_key(self, tmp_path, capsys):
        code = main(["run", "--scenario", "constant",
                     "--out", str(tmp_path / "m.csv"),
                     "--consumer.c_ns", "-5"])
        assert code == 2
        assert "consumer.c_ns" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, key", [
        (["geometry.width=40000"], "geometry.width"),
        (["source.duration_s=inf"], "source.duration_s"),
        # checked before the event file is read
        (["source.kind=file", "source.path=missing.csv",
          "source.chunk_events=0"], "source.chunk_events")],
        ids=["wide-sensor", "infinite-duration", "chunk-before-file"])
    def test_source_value_exit_2_names_key(self, tmp_path, capsys, flags, key):
        argv = ["run", "--scenario", "constant",
                "--set", "source.duration_s=0.05",
                "--out", str(tmp_path / "m.csv")]
        for flag in flags:
            argv += ["--set", flag]
        assert main(argv) == 2
        assert f"configuration error ({key}):" in capsys.readouterr().err

    def test_unknown_scenario_exit_2(self, tmp_path, capsys):
        code = main(["run", "--scenario", "nope",
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2

    def test_fig3_summary_reports_discard(self, tmp_path, capsys):
        code = main(["run", "--scenario", "fig3", "--seed", "0",
                     "--out", str(tmp_path / "m.csv")])
        assert code == 0
        summary = capsys.readouterr().out
        final_gamma = float(summary.split("final_gamma=")[1].split()[0])
        max_rate_raw = float(summary.split("max_rate_raw=")[1].split()[0])
        assert final_gamma < 1.0
        assert max_rate_raw > 5e6

    def test_scenario_file_and_events_out(self, tmp_path):
        scen = tmp_path / "tiny.cfg"
        scen.write_text("source.kind = constant\n"
                        "source.rate_evps = 1e4\n"
                        "source.duration_s = 0.1\n")
        out = tmp_path / "m.csv"
        events_out = tmp_path / "ev.csv"
        code = main(["run", "--scenario", str(scen), "--out", str(out),
                     "--events-out", str(events_out)])
        assert code == 0
        assert out.exists() and events_out.exists()
        assert events_out.read_text().startswith("t_us,x,y,p")

    def test_events_out_writes_the_same_metrics(self, tmp_path):
        # without --events-out the pipeline checks the Poisson chunks'
        # order itself; with it, it runs the ArraySource that vouches
        base = ["run", "--scenario", "constant", "--set", "gamma.a=3e5",
                "--set", "source.duration_s=0.3",
                "--set", "source.chunk_events=4096"]
        checked, vouched = tmp_path / "checked.csv", tmp_path / "vouched.csv"
        assert main(base + ["--out", str(checked)]) == 0
        assert main(base + ["--out", str(vouched),
                            "--events-out", str(tmp_path / "ev.csv")]) == 0
        assert checked.read_bytes() == vouched.read_bytes()

    def test_realtime_run_writes_metrics(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["run", "--scenario", "constant", "--mode", "realtime",
                     "--set", "source.duration_s=0.3",
                     "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header == METRICS_HEADER and len(header.split(",")) == 11
        assert rows and all(len(row.split(",")) == 11 for row in rows)

    def test_file_replay_round_trip(self, tmp_path, capsys):
        # generate events once, then replay them from disk
        events_out = tmp_path / "ev.csv"
        assert main(["run", "--scenario", "constant",
                     "--set", "source.duration_s=0.05",
                     "--out", str(tmp_path / "m1.csv"),
                     "--events-out", str(events_out)]) == 0
        assert main(["run", "--scenario", "constant",
                     "--set", "source.kind=file",
                     "--set", f"source.path={events_out}",
                     "--out", str(tmp_path / "m2.csv")]) == 0
        assert (tmp_path / "m1.csv").read_bytes() == \
            (tmp_path / "m2.csv").read_bytes()

    def test_a_config_file_path_may_contain_a_hash(self, tmp_path):
        # a ``#`` inside a value is kept; one after whitespace starts a
        # comment: the config file replays what --set replays
        events_out = tmp_path / "run#1" / "ev.csv"
        events_out.parent.mkdir()
        assert main(["run", "--scenario", "constant",
                     "--set", "source.duration_s=0.05",
                     "--out", str(tmp_path / "m0.csv"),
                     "--events-out", str(events_out)]) == 0
        scen = tmp_path / "replay.cfg"
        scen.write_text(f"source.kind = file  # replay\n"
                        f"source.path = {events_out}\n")
        assert parse_config_file(scen)["source.path"] == str(events_out)
        assert main(["run", "--scenario", str(scen),
                     "--out", str(tmp_path / "m1.csv")]) == 0
        assert main(["run", "--scenario", "constant",
                     "--set", "source.kind=file",
                     "--set", f"source.path={events_out}",
                     "--out", str(tmp_path / "m2.csv")]) == 0
        assert (tmp_path / "m1.csv").read_bytes() == \
            (tmp_path / "m2.csv").read_bytes()

    @pytest.mark.parametrize("line, message", [
        ("0,65541,5,1", ":2: x must lie in [-32768, 32767], got 65541"),
        (f"{2**63},1,5,1",
         f":2: t must lie in [{-2**63}, {2**63 - 1}], got {2**63}"),
        ("10,1000,5,1", ": event x out of sensor bounds (346x260)")],
        ids=["x-wraps-int16", "t-overflows-int64", "x-outside-geometry"])
    def test_bad_replayed_file_is_a_one_line_error(self, tmp_path, capsys,
                                                   line, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,1,1,1\n{line}\n")
        out = tmp_path / "m.csv"
        code = main(["run", "--scenario", "constant",
                     "--set", "source.kind=file",
                     "--set", f"source.path={path}", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err == f"error: {path}{message}\n"

    @pytest.mark.parametrize("kind, reason", [
        ("directory", os.strerror(errno.EISDIR)),
        ("missing", os.strerror(errno.ENOENT)),
        ("not-utf8", "not UTF-8 text")],
        ids=["directory", "missing", "not-utf8"])
    def test_unreadable_replay_file_is_a_configuration_error(
            self, tmp_path, capsys, kind, reason):
        path = tmp_path / "events"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"0,1,1,1\n\xff\xfe,1,1,1\n")
        out = tmp_path / "m.csv"
        code = main(["run", "--scenario", "constant",
                     "--set", "source.kind=file",
                     "--set", f"source.path={path}", "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"configuration error (source.path): cannot read event file "
            f"{path}: {reason}\n")

    def test_env_base_config(self, tmp_path, monkeypatch):
        base = tmp_path / "base.cfg"
        base.write_text("source.duration_s = 0.05\nseed = 3\n")
        monkeypatch.setenv("ASAP_CONFIG", str(base))
        out = tmp_path / "m.csv"
        assert main(["run", "--scenario", "constant", "--out", str(out)]) == 0
        assert out.exists()

    def test_failed_run_leaves_no_partial_output(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(["run", "--scenario", "constant",
                     "--set", "gamma.beta=7", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert not (tmp_path / "m.csv.tmp").exists()

    def test_out_through_symlink_writes_its_target(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        assert main(["run", "--scenario", "constant",
                     "--set", "source.duration_s=0.05",
                     "--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_text().startswith("seq,size,")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "link.csv", "target.csv"]

    def test_out_to_fifo_feeds_its_reader(self, tmp_path):
        fifo = tmp_path / "m.csv"
        os.mkfifo(fifo)
        # the read end and a spare write end are open before the run, so
        # the run's own open does not block and the reader sees the end
        # of the stream only once the spare end is closed too
        read_fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        os.set_blocking(read_fd, True)
        spare = os.open(fifo, os.O_WRONLY)
        received = []

        def drain():
            with os.fdopen(read_fd, "rb") as f:
                received.append(f.read())

        reader = threading.Thread(target=drain)
        reader.start()
        try:
            code = main(["run", "--scenario", "constant",
                         "--set", "source.duration_s=0.05",
                         "--out", str(fifo)])
        finally:
            os.close(spare)
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert code == 0
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert received[0].startswith(b"seq,size,")

    def test_out_to_directory_is_a_one_line_error(self, tmp_path, capsys):
        code = main(["run", "--scenario", "constant",
                     "--set", "source.duration_s=0.05",
                     "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {tmp_path}: {os.strerror(errno.EISDIR)}\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_in_missing_directory_names_the_path(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--scenario", "constant",
                     "--set", "source.duration_s=0.05",
                     "--out", "missing/m.csv"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: cannot write missing/m.csv: "
            f"{os.strerror(errno.ENOENT)}\n")
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_file_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ASAP_CONFIG", str(tmp_path / "none.cfg"))
        assert main(["run", "--scenario", "constant",
                     "--out", str(tmp_path / "m.csv")]) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("route", ["scenario", "env"])
    def test_config_file_not_utf8_exit_2(self, tmp_path, monkeypatch,
                                         capsys, route):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfeseed = 1\n")
        out = tmp_path / "m.csv"
        if route == "env":
            monkeypatch.setenv("ASAP_CONFIG", str(cfg))
            scenario = "constant"
        else:
            scenario = str(cfg)
        assert main(["run", "--scenario", scenario, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: cannot read config file {cfg}: "
            f"not UTF-8 text\n")
        assert not out.exists()

    @pytest.mark.parametrize("scenario, setting", [
        ("constant", "gamma.a=nan"),
        ("constant", "packager.headroom=nan"),
        ("constant", "source.rate_evps=inf"),
        ("ramp", "source.rate_end_evps=inf"),
        ("constant", "source.rate_evps=1e300"),
        ("ramp", "source.rate_end_evps=1e300"),
        ("constant", "consumer.o_us=nan"),
        ("constant", "consumer.c_ns=inf"),
        ("constant", "consumer.o_us=1e308"),
        ("constant", "consumer.c_ns=1e308"),
        ("constant", "consumer.jitter=inf"),
        ("constant", "consumer.jitter=nan"),
        ("constant", "consumer.jitter=1.5"),
        ("constant", "consumer.radius_px=nan"),
        ("constant", "packager.n_max=1e400"),
        ("constant", "gamma.rate_window_us=1e400"),
        ("constant", "packager.model_smoothing=1"),
        # removed: the one rate window is gamma.rate_window_us
        ("constant", "packager.rate_window_us=100"),
        # removed: the fallback law's exponent is fixed at 0.5
        ("constant", "packager.kappa=0.5"),
        ("constant", "seed=0.7"),
        ("constant", "packager.n_min=1.5"),
        ("constant", "seed=-1"),
        ("constant", "seed=nan")])
    def test_out_of_range_value_exit_2_names_key(self, tmp_path, capsys,
                                                 scenario, setting):
        out = tmp_path / "m.csv"
        code = main(["run", "--scenario", scenario,
                     "--set", "source.duration_s=0.05", "--set", setting,
                     "--out", str(out)])
        key = setting.split("=")[0]
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err.startswith(
            f"configuration error ({key}): ")

    @pytest.mark.parametrize("setting", [
        "gamma.a=inf", "packager.headroom=inf", "consumer.radius_px=inf"])
    def test_infinity_runs_where_it_means_unbounded(self, tmp_path, setting):
        assert main(["run", "--scenario", "constant",
                     "--set", "source.duration_s=0.05", "--set", setting,
                     "--out", str(tmp_path / "m.csv")]) == 0

    def test_bundled_scenarios_registered(self):
        assert set(SCENARIOS) >= {"fig3", "fig4", "constant", "ramp"}
