import argparse
import hashlib
import os
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tamedac import ErrorPoint, ErrorReport, load_error_csv
from tamedac.cli import main, parse_options
from tamedac.errors import BlowupError
from tamedac.reporting import csv_text, emit_csv, emit_loglog_plot, format_csv

CSV_HEADER = "resolution,rms_error,mc_std_error,samples\n"


def make_report(points=None, slope=0.494, residual=0.017) -> ErrorReport:
    if points is None:
        points = (
            ErrorPoint(4, 0.106381, 0.0021), ErrorPoint(8, 0.077172, 0.0015),
            ErrorPoint(16, 0.055174, 0.0011), ErrorPoint(32, 0.039209, 0.0008),
            ErrorPoint(64, 0.027624, 0.0006), ErrorPoint(128, 0.019225, 0.0004),
        )
    return ErrorReport(mode="joint", samples=200, ref_resolution=1024,
                       points=points, fitted_slope=slope, fit_residual=residual)


class TestParsing:
    def test_happy_path_flags(self):
        opts = parse_options(
            "converge --mode joint --resolutions 4,8,16,32,64,128 "
            "--ref 1024 --samples 200 --seed 42".split()
        )
        assert opts["mode"] == "joint"
        assert opts["resolutions"] == (4, 8, 16, 32, 64, 128)
        assert opts["ref"] == 1024 and opts["samples"] == 200 and opts["seed"] == 42

    def test_unknown_flag_exits_with_usage_code(self):
        assert main(["converge", "--frobnicate"]) == 2

    def test_invalid_reference_multiple(self, capsys):
        code = main(["converge", "--ref", "100", "--resolutions", "4,8"])
        assert code == 2
        assert "100" in capsys.readouterr().err

    def test_zero_samples_rejected(self):
        assert main(["converge", "--samples", "0", "--ref", "32",
                     "--resolutions", "4,8"]) == 2

    def test_zero_samples_fail_with_the_flag_and_the_library_message(self, capsys):
        assert main(["converge", "--samples", "0"]) == 2
        assert ("argument --samples: samples must be an integer in [1, 2^64), got 0"
                in capsys.readouterr().err)

    def test_negative_cubic_coefficient_required(self):
        assert main(["converge", "--a3", "1.0", "--ref", "32",
                     "--resolutions", "4,8"]) == 2

    def test_infinite_drift_coefficient_fails_with_the_flag(self, capsys):
        assert main(["simulate", "--a1=inf"]) == 2
        assert "argument --a1: a1 must be finite" in capsys.readouterr().err

    # A horizon so small that a step of the run underflows to 0 is refused
    # before any work, under every command.
    @pytest.mark.parametrize("argv", [
        "converge --resolutions 4,8 --ref 16 --samples 2 --horizon 5e-324",
        "simulate --resolutions 8 --steps 16 --horizon 5e-324",
        "diagnose --resolutions 8 --samples 2 --horizon 5e-324",
        "diagnose --resolutions 1 --samples 2 --horizon 1e-323 --steps 5",
    ])
    def test_step_that_underflows_is_a_usage_error(self, argv, capsys):
        assert main(argv.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be positive and finite, got 0.0" in err

    def test_unparsable_resolutions(self):
        assert main(["converge", "--resolutions", "4,eight", "--ref", "32"]) == 2

    @pytest.mark.parametrize("argv", [
        ["converge", "--resolutions", "4,8", "--ref", "16", "--samples", "1", "--threads", "0"],
    ])
    def test_nonpositive_threads_rejected(self, argv, capsys, tmp_path):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert ("argument --threads: threads must be an integer in [1, 2^64), got 0"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_paper_scale_defaults(self):
        opts = parse_options(["converge", "--paper-scale"])
        assert opts["ref"] == 2048 and opts["samples"] == 1000

    def test_paper_scale_yields_to_explicit_flags(self):
        opts = parse_options(["converge", "--paper-scale", "--ref", "512"])
        assert opts["ref"] == 512 and opts["samples"] == 1000

    @pytest.mark.parametrize("argv, parses", [
        (["converge", "--samples", "5"], 1),
        (["converge", "--paper-scale"], 2),
    ])
    def test_parsed_again_only_under_new_defaults(self, argv, parses, monkeypatch):
        calls = []
        parse_args = argparse.ArgumentParser.parse_args

        def counted(parser, *args, **kwargs):
            calls.append(args)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted)
        parse_options(argv)
        assert len(calls) == parses


class TestConfigFile:
    def test_precedence_defaults_config_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# study setup\nref = 64\nsamples = 7\nseed = 9\n")
        opts = parse_options(["converge", "--config", str(cfg), "--samples", "5"])
        assert opts["ref"] == 64          # from config file
        assert opts["samples"] == 5       # flag wins over config
        assert opts["seed"] == 9
        assert opts["mode"] == "joint"    # untouched default

    def test_paper_scale_sets_ref_and_samples_over_the_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ref = 64\nsamples = 7\nseed = 9\n")
        opts = parse_options(["converge", "--config", str(cfg), "--paper-scale", "--samples", "5"])
        assert (opts["ref"], opts["samples"], opts["seed"]) == (2048, 5, 9)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("refinement = 64\n")
        assert main(["converge", "--config", str(cfg)]) == 2

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("ref 64\n")
        assert main(["converge", "--config", str(cfg)]) == 2

    def test_missing_file_rejected(self):
        assert main(["converge", "--config", "/no/such/file.cfg"]) == 2

    def test_file_that_is_not_utf8_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bin.cfg"
        cfg.write_bytes(b"samples = 2\n\xff = 3\n")
        assert main(["converge", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err and "Traceback" not in err

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfsamples = 2\n")
        assert parse_options(["converge", "--config", str(cfg)])["samples"] == 2

    # Config values go through the type of the flag of the same name, which
    # runs the library's check of the field it sets; a key of another command
    # (samples, ref and threads under simulate) is checked all the same.
    @pytest.mark.parametrize("line, message", [
        ("threads = 0", "argument --threads: threads must be an integer in [1, 2^64), got 0"),
        ("steps = -3", "argument --steps: n_steps must be an integer in [1, 2^64), got -3"),
        ("seed = 18446744073709551616", "argument --seed: master_seed must be an integer in "
                                        "[0, 2^64), got 18446744073709551616"),
        ("resolutions = 8,0",
         "argument --resolutions: resolutions must be an integer in [1, 2^64), got 0"),
        ("snapshots = 1",
         "argument --snapshots: snapshots must be an integer in [2, 2^64), got 1"),
        ("samples = many", "invalid int value: 'many'"),
        ("samples = 0", "argument --samples: samples must be an integer in [1, 2^64), got 0"),
        ("ref = 0", "argument --ref: ref_resolution must be an integer in [1, 2^64), got 0"),
        ("horizon = nan", "argument --horizon: horizon_T must be positive and finite, got nan"),
        ("horizon = -1", "argument --horizon: horizon_T must be positive and finite, got -1.0"),
        ("a3 = 1", "argument --a3: a3 must be negative and finite, got 1.0"),
        ("a0 = nan", "argument --a0: a0 must be finite, got nan"),
    ])
    def test_values_pass_the_flag_checks(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# setup\n{line}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2:" in err and message in err


# What each command resolves with no flags, and the options its usage line
# lists.  The converge entries are as captured before each option was
# declared in one place.
RESOLVED_DEFAULTS = {
    "converge": {"command": "converge", "config": None,
                 "resolutions": (4, 8, 16, 32, 64, 128), "samples": 200, "seed": 0,
                 "threads": 1, "horizon": 1.0, "a3": -1.0, "a2": 0.0, "a1": 1.0, "a0": 0.0,
                 "out": None, "mode": "joint", "ref": 1024, "plot": None,
                 "paper_scale": False},
    "simulate": {"command": "simulate", "config": None, "resolutions": (64,),
                 "seed": 0, "horizon": 1.0, "a3": -1.0, "a2": 0.0, "a1": 1.0,
                 "a0": 0.0, "out": None, "steps": None, "snapshots": 11},
    "diagnose": {"command": "diagnose", "config": None, "resolutions": (64,), "samples": 100,
                 "seed": 0, "horizon": 1.0, "a3": -1.0, "a2": 0.0, "a1": 1.0,
                 "a0": 0.0, "out": None, "steps": None},
}
SHARED_OPTIONS = ["--horizon", "--a3", "--a2", "--a1", "--a0", "--out"]
USAGE_OPTIONS = {
    "converge": ["-h", "--config", "--resolutions", "--samples", "--seed", "--threads",
                 *SHARED_OPTIONS, "--mode", "--ref", "--plot", "--paper-scale"],
    "simulate": ["-h", "--config", "--resolutions", "--seed", *SHARED_OPTIONS,
                 "--steps", "--snapshots"],
    "diagnose": ["-h", "--config", "--resolutions", "--samples", "--seed", *SHARED_OPTIONS,
                 "--steps"],
}


class RecordingOptions(dict):
    """An options mapping that remembers which keys were read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestSurface:
    @pytest.mark.parametrize("command", sorted(RESOLVED_DEFAULTS))
    def test_resolved_defaults_are_pinned(self, command):
        assert parse_options([command]) == RESOLVED_DEFAULTS[command]

    @pytest.mark.parametrize("command", sorted(USAGE_OPTIONS))
    def test_usage_lists_the_same_options(self, command, capsys):
        assert main([command, "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert re.findall(r"\[(-[-\w]+)", usage) == USAGE_OPTIONS[command]

    def test_diagnose_samples_default_yields_to_config_then_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 7\n")
        assert parse_options(["diagnose"])["samples"] == 100
        assert parse_options(["diagnose", "--config", str(cfg)])["samples"] == 7
        assert parse_options(["diagnose", "--config", str(cfg), "--samples", "5"])["samples"] == 5

    def test_key_of_another_command_is_accepted_and_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = spatial\nref = 64\nplot = p.svg\n")
        plain, configured = tmp_path / "plain.csv", tmp_path / "configured.csv"
        assert main(["simulate", "--resolutions", "8", "--out", str(plain)]) == 0
        assert main(["simulate", "--resolutions", "8", "--config", str(cfg),
                     "--out", str(configured)]) == 0
        assert configured.read_bytes() == plain.read_bytes()
        assert parse_options(["simulate", "--config", str(cfg)]).keys() == \
            RESOLVED_DEFAULTS["simulate"].keys()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--samples", "5"],
        ["simulate", "--threads", "2"],
        ["diagnose", "--threads", "2"],
    ])
    def test_unread_options_are_not_declared(self, argv, capsys):
        assert main(argv + ["--resolutions", "8"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    def test_threads_and_samples_config_keys_are_checked_then_ignored(self, command, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 2\nsamples = 3\n")
        flags = ["--resolutions", "8", "--steps", "2"]
        if command == "diagnose":
            flags += ["--samples", "2"]
        plain, configured = tmp_path / "plain.csv", tmp_path / "configured.csv"
        assert main([command, *flags, "--out", str(plain)]) == 0
        assert main([command, *flags, "--config", str(cfg), "--out", str(configured)]) == 0
        assert configured.read_bytes() == plain.read_bytes()

    # Every option a command declares is read by its runner: a flag that is
    # parsed and range-checked but never read fails here.
    @pytest.mark.parametrize("argv", [
        ["converge", "--resolutions", "4,8", "--ref", "16", "--samples", "1"],
        ["simulate", "--resolutions", "4", "--steps", "2"],
        ["diagnose", "--resolutions", "4", "--samples", "2", "--steps", "2"],
    ], ids=lambda argv: argv[0])
    def test_runner_reads_every_declared_option(self, argv, tmp_path, monkeypatch):
        import tamedac.cli as cli

        monkeypatch.setattr(cli, "strong_error_study", lambda config, threads=1: make_report())
        opts = RecordingOptions(parse_options(argv + ["--out", str(tmp_path / "out.csv")]))
        runners = {"converge": cli._run_converge, "simulate": cli._run_simulate,
                   "diagnose": cli._run_diagnose}
        assert runners[argv[0]](opts) == 0
        assert set(opts) - {"command", "config", "paper_scale"} <= opts.read

    def test_negative_exponent_in_the_equals_form(self, tmp_path):
        # argparse takes "-1e120" after a space for a flag; "--a3=-1e120" is a value.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a3 = -1e120\n")
        assert parse_options(["converge", "--a3=-1e120"])["a3"] == -1e120
        assert parse_options(["converge", "--config", str(cfg)])["a3"] == -1e120


class TestCsv:
    def test_format_structure(self):
        text = format_csv(make_report())
        lines = text.split("\n")
        assert lines[0] == "resolution,rms_error,mc_std_error,samples"
        assert lines[1].startswith("4,0.106381,")
        assert lines[-2].startswith("# fitted_slope=")
        assert lines[-1] == ""          # newline terminated
        assert all(line == line.rstrip() for line in lines)

    def test_csv_text_writes_floats_to_8_digits_and_other_values_by_str(self):
        text = csv_text("a,b,c,d", [(np.float64(1 / 3), 2 / 3, 12345678901, True),
                                    (np.float64(-1.25e-7), 1e300, -7, False)])
        assert text == ("a,b,c,d\n0.33333333,0.66666667,12345678901,True\n"
                        "-1.25e-07,1e+300,-7,False\n")

    def test_csv_text_without_rows_is_the_header_line(self):
        assert csv_text("x,t=0", []) == "x,t=0\n"

    def test_round_trip_at_printed_precision(self, tmp_path):
        report = make_report()
        path = tmp_path / "errors.csv"
        emit_csv(report, str(path))
        points, samples, slope = load_error_csv(str(path))
        assert samples == report.samples
        assert slope == float(f"{report.fitted_slope:.8g}")
        for parsed, original in zip(points, report.points):
            assert parsed.resolution == original.resolution
            assert parsed.rms_error == float(f"{original.rms_error:.8g}")
            assert parsed.mc_std_error == float(f"{original.mc_std_error:.8g}")

    def test_blank_lines_and_unknown_comments_are_skipped(self, tmp_path):
        path = tmp_path / "errors.csv"
        lines = format_csv(make_report()).split("\n")
        path.write_text("\n".join(lines[:2] + ["", "# against=next"] + lines[2:]) + "\n")
        points, samples, slope = load_error_csv(str(path))
        assert len(points) == 6 and samples == 200 and slope == 0.494

    @pytest.mark.parametrize("text, message", [
        ("resolution,rms,se,samples\n4,0.1,0.01,5\n# fitted_slope=0.5\n",
         r"errors\.csv: unrecognized header"),
        (CSV_HEADER + "4,0.1\n# fitted_slope=0.5\n", r"errors\.csv:2: expected four numbers"),
        (CSV_HEADER + "4,0.1,0.01,five\n# fitted_slope=0.5\n",
         r"errors\.csv:2: expected four numbers"),
        (CSV_HEADER + "4,0.1,0.01,5\n\n# fitted_slope=half\n",
         r"errors\.csv:4: expected four numbers"),
        (CSV_HEADER + "4,0.1,0.01,5\n8,0.05,0.005,5\n", r"errors\.csv: no '# fitted_slope=' footer"),
        (CSV_HEADER + "4,0.1,0.01,5\n8,0.05,0.005,6\n# fitted_slope=0.5\n",
         r"errors\.csv: rows of different sample counts \[5, 6\]"),
    ], ids=["header", "two-fields", "not-a-number", "bad-footer", "no-footer", "mixed-samples"])
    def test_rejects_what_format_csv_never_writes(self, tmp_path, text, message):
        path = tmp_path / "errors.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_error_csv(str(path))


class TestSvg:
    def test_structure(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_loglog_plot(make_report(), str(path))
        text = path.read_text()
        assert text.count('class="pt"') == 6           # one marker per point
        assert text.count("<polyline") == 2            # fit plus guide line
        assert "slope 0.494" in text
        ET.fromstring(text[text.index("<svg"):])       # well-formed XML

    def test_two_point_report_is_valid(self, tmp_path):
        report = make_report(points=(ErrorPoint(4, 0.1, 0.01),
                                     ErrorPoint(8, 0.1, 0.01)), slope=0.0)
        path = tmp_path / "tiny.svg"
        emit_loglog_plot(report, str(path))
        text = path.read_text()
        assert text.count('class="pt"') == 2
        ET.fromstring(text[text.index("<svg"):])

    def test_slope_legend_matches_report(self, tmp_path):
        report = make_report(slope=0.51724)
        path = tmp_path / "plot.svg"
        emit_loglog_plot(report, str(path))
        assert "slope 0.517" in path.read_text()

    # sha256 prefixes of plots written before the marks were drawn from one
    # table: a change of any byte of the figure fails here.
    @pytest.mark.parametrize("report, digest", [
        (make_report(), "7713a73531a0c2a7"),
        (make_report(points=(ErrorPoint(4, 0.1, 0.01), ErrorPoint(8, 0.1, 0.01)), slope=0.0),
         "30cc9e17206f5d7c"),
    ])
    def test_svg_bytes_are_pinned(self, tmp_path, report, digest):
        path = tmp_path / "plot.svg"
        emit_loglog_plot(report, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest


class TestConvergeCommand:
    BASE = ["converge", "--resolutions", "4,8", "--ref", "32",
            "--samples", "5", "--seed", "3", "--threads", "1"]

    def test_writes_csv_and_plot(self, tmp_path, capsys):
        out = tmp_path / "errors.csv"
        plot = tmp_path / "errors.svg"
        code = main(self.BASE + ["--out", str(out), "--plot", str(plot)])
        assert code == 0
        assert "fitted slope" in capsys.readouterr().out
        points, samples, slope = load_error_csv(str(out))
        assert [p.resolution for p in points] == [4, 8]
        assert samples == 5
        assert np.isfinite(slope)
        assert plot.read_text().count("<polyline") == 2

    def test_byte_identical_reruns(self, tmp_path):
        files = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            plot = tmp_path / f"{tag}.svg"
            assert main(self.BASE + ["--out", str(out), "--plot", str(plot)]) == 0
            files.append((out.read_bytes(), plot.read_bytes()))
        assert files[0] == files[1]

    def test_unwritable_output_is_io_error(self, tmp_path, monkeypatch, capsys):
        import tamedac.cli as cli

        def never(config, threads=1):
            raise AssertionError("the study ran before its output was checked")

        monkeypatch.setattr(cli, "strong_error_study", never)
        for flag in ("--out", "--plot"):
            for target in (tmp_path / "no" / "dir" / "x.csv", tmp_path):
                assert main(self.BASE + [flag, str(target)]) == 3
                assert capsys.readouterr().err.startswith("I/O error:")
        assert not (tmp_path / "no").exists()

    @pytest.mark.parametrize("flag", ["--out", "--plot"])
    def test_existing_unwritable_output_is_io_error(self, flag, tmp_path, monkeypatch, capsys):
        import tamedac.cli as cli

        def never(config, threads=1):
            raise AssertionError("the study ran before its output was checked")

        # Mode bits do not bind a superuser, so the denial is patched in.
        target = tmp_path / "locked.csv"
        target.write_text("kept\n")
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode, **kw: (
            str(path) != str(target) and access(path, mode, **kw)))
        monkeypatch.setattr(cli, "strong_error_study", never)
        assert main(self.BASE + [flag, str(target)]) == 3
        assert capsys.readouterr().err.startswith(f"I/O error: cannot write {target}")
        assert target.read_text() == "kept\n"

    @pytest.mark.parametrize("plot", ["same.csv", "./same.csv", "sub/../same.csv"])
    def test_out_and_plot_on_one_file_rejected(self, plot, tmp_path, monkeypatch, capsys):
        import tamedac.cli as cli

        def never(config, threads=1):
            raise AssertionError("the study ran before its outputs were checked")

        monkeypatch.setattr(cli, "strong_error_study", never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main(self.BASE + ["--out", "same.csv", "--plot", plot]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "--plot" in err and "same file" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]

    def test_single_resolution_rejected_before_sampling(self, tmp_path, capsys):
        out = tmp_path / "errors.csv"
        code = main(["converge", "--resolutions", "8", "--ref", "16", "--samples", "1",
                     "--out", str(out)])
        assert code == 2
        assert "at least two resolutions" in capsys.readouterr().err
        assert not out.exists()

    # sha256 prefixes of CSVs captured before the block step was made lean:
    # a change of any bit of the study fails here.
    @pytest.mark.parametrize("flags, digest", [
        ("--mode joint --resolutions 4,8,16,32,64,128", "b65b05136cc70d69"),
        ("--mode spatial --resolutions 4,8,16,32,64,128", "2b211733c4ce12eb"),
        ("--mode temporal --resolutions 8,16,32,64,128", "b380abdd74bbb7fb"),
    ])
    def test_csv_bytes_are_pinned(self, tmp_path, flags, digest):
        out = tmp_path / "errors.csv"
        argv = ["converge", *flags.split(), "--ref", "256", "--samples", "2", "--seed", "7"]
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest

    def test_huge_horizon_fits_a_slope(self, capsys):
        assert main(["converge", "--resolutions", "4,8", "--ref", "16", "--samples", "2",
                     "--horizon", "1e308"]) == 0
        assert "fitted slope" in capsys.readouterr().out

    def test_errors_that_admit_no_fit_are_a_usage_error(self, tmp_path, capsys):
        # Steps of 1e308 / 8 forget all but the last fine increment, and the
        # tamed drift, at most 1 / tau, vanishes next to it: every temporal
        # rung ends exactly on the reference.
        out = tmp_path / "errors.csv"
        assert main(["converge", "--mode", "temporal", "--resolutions", "2,4", "--ref", "8",
                     "--samples", "2", "--horizon", "1e308", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: resolutions and errors must be positive and "
                                           "finite, got [(2, 0.0), (4, 0.0)]\n")
        assert not out.exists()

    def test_blowup_maps_to_exit_code_4(self, monkeypatch):
        import tamedac.cli as cli

        def explode(config, threads=1):
            raise BlowupError("synthetic blowup", sample_index=1)

        monkeypatch.setattr(cli, "strong_error_study", explode)
        assert main(self.BASE) == 4

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 8.00 TiB for an array"),
         "Unable to allocate 8.00 TiB for an array"),
        (MemoryError(), "out of memory"),
    ])
    def test_memory_error_is_one_line_and_exit_code_2(self, threads, error, message,
                                                       monkeypatch, capsys):
        # Only the block of sample 1 fails: in this process at --threads 1,
        # in the forked share's child at --threads 2.  No real allocation is
        # made, as an oversized one can succeed under overcommit.
        import tamedac.experiments as experiments
        block = experiments._block_squared_errors

        def starved(config, samples):
            if 1 in samples:
                raise error
            return block(config, samples)

        monkeypatch.setattr(experiments, "_block_squared_errors", starved)
        argv = ["converge", "--resolutions", "2,4", "--ref", "8", "--samples", "2",
                "--threads", str(threads)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


class TestSimulateCommand:
    def test_snapshot_csv(self, tmp_path):
        out = tmp_path / "path.csv"
        code = main(["simulate", "--resolutions", "16", "--steps", "8",
                     "--seed", "1", "--snapshots", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "x"
        assert header[1] == "t=0"
        assert len(lines) == 1 + 64     # rendering grid of 4 N points
        first = np.array([float(v) for v in lines[1].split(",")])
        x = first[0]
        # Values are printed with 8 significant digits.
        assert first[1] == pytest.approx(np.sin(np.pi * x), rel=1e-7)

    def test_multiple_resolutions_rejected(self):
        assert main(["simulate", "--resolutions", "8,16"]) == 2

    @pytest.mark.parametrize("count", ["-3", "0", "1"])
    def test_fewer_than_two_snapshots_rejected(self, count, capsys, tmp_path):
        out = tmp_path / "path.csv"
        assert main(["simulate", "--resolutions", "8", "--snapshots", count,
                     "--out", str(out)]) == 2
        assert (f"argument --snapshots: snapshots must be an integer in [2, 2^64), got {count}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unwritable_output_is_io_error(self, tmp_path, monkeypatch, capsys):
        import tamedac.stepper as stepper

        def never(*args, **kwargs):
            raise AssertionError("the path ran before its output was checked")

        monkeypatch.setattr(stepper.PathBlock, "at_initial_data", never)
        code = main(["simulate", "--resolutions", "8", "--out", str(tmp_path / "no" / "x.csv")])
        assert code == 3
        assert capsys.readouterr().err.startswith("I/O error:")

    # sha256 prefixes of the written CSVs: a change of any bit of the path
    # fails here.  The default one predates the streamed increments, which
    # changed no byte.
    @pytest.mark.parametrize("flags, digest", [
        ("--seed 7", "195d08caaa6f8c94"),
        ("--resolutions 16 --steps 48 --seed 7 --a2 0.8 --a0 0.3 --snapshots 4",
         "17b8d8c472da4b81"),
    ])
    def test_csv_bytes_are_pinned(self, tmp_path, flags, digest):
        out = tmp_path / "path.csv"
        assert main(["simulate", *flags.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest

    def test_snapshot_count_beyond_the_steps_takes_every_step(self, tmp_path):
        every, huge = tmp_path / "every.csv", tmp_path / "huge.csv"
        for count, out in (("17", every), (str(2 ** 64 - 1), huge)):
            assert main(["simulate", "--resolutions", "8", "--steps", "16",
                         "--snapshots", count, "--out", str(out)]) == 0
        assert huge.read_bytes() == every.read_bytes()

    def test_huge_horizon_takes_the_limit_factors(self, tmp_path):
        # At 1e308 nearly every lambda_i tau overflows; the factors then take
        # the limits that 1e306 reaches without overflow, so the paths agree
        # and neither loses its drift or its noise.
        grids = []
        for horizon in ("1e306", "1e308"):
            out = tmp_path / f"{horizon}.csv"
            assert main(["simulate", "--resolutions", "8", "--horizon", horizon,
                         "--out", str(out)]) == 0
            grids.append(np.loadtxt(out, delimiter=",", skiprows=1))
        assert grids[1] == pytest.approx(grids[0], rel=1e-7, abs=1e-8)
        assert np.abs(grids[1][:, 2:]).max() > 0.01

    def test_step_size_beyond_the_norm_range(self, tmp_path):
        # tau ||q_N|| overflows at this step size; the drift takes the limit
        # without a RuntimeWarning, which the test configuration makes an error.
        assert main(["simulate", "--a3=-1e120", "--resolutions", "8", "--horizon", "1e300",
                     "--out", str(tmp_path / "s.csv")]) == 0

    def test_stdout_equals_the_out_file(self, tmp_path, capsysbinary):
        argv = ["simulate", "--resolutions", "8", "--steps", "16", "--seed", "5"]
        out = tmp_path / "path.csv"
        assert main(argv + ["--out", str(out)]) == 0
        capsysbinary.readouterr()
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_out_of_range_seed_rejected(self, seed, capsys):
        assert main(["simulate", "--resolutions", "8", "--seed", seed]) == 2
        assert (f"argument --seed: master_seed must be an integer in [0, 2^64), got {seed}"
                in capsys.readouterr().err)

    # Past any array numpy can index: a usage error, with no allocation.
    @pytest.mark.parametrize("resolution", [2 ** 62, 2 ** 63], ids=["2^62", "2^63"])
    def test_unindexable_resolution_is_usage_error(self, resolution, capsys):
        assert main(["simulate", "--resolutions", str(resolution), "--steps", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestDiagnoseCommand:
    def test_prints_and_writes_summary(self, tmp_path, capsys):
        out = tmp_path / "diag.csv"
        code = main(["diagnose", "--resolutions", "16", "--steps", "4",
                     "--samples", "10", "--seed", "2", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "blowups 0" in printed
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("resolution,steps,tau,samples,sup_max")
        assert len(lines) == 2

    # sha256 prefixes of files written when every sample ran as its own path
    # on its own noise matrix; running the samples in blocks changes no byte.
    @pytest.mark.parametrize("flags, digest", [
        ("--resolutions 8,16 --samples 5 --seed 7", "7d49557e3ef2426b"),
        ("--resolutions 8,16 --samples 5 --seed 7 --steps 2", "73162abb6a93fef5"),
        ("--samples 100 --seed 0", "5e90fe7d961b0ad4"),
    ])
    def test_csv_bytes_are_pinned(self, tmp_path, flags, digest):
        out = tmp_path / "diag.csv"
        assert main(["diagnose", *flags.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest

    def test_unwritable_output_is_io_error(self, tmp_path, monkeypatch, capsys):
        import tamedac.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("the diagnostics ran before their output was checked")

        monkeypatch.setattr(cli, "_moments", never)
        code = main(["diagnose", "--resolutions", "8", "--samples", "2",
                     "--out", str(tmp_path / "no" / "x.csv")])
        assert code == 3
        assert capsys.readouterr().err.startswith("I/O error:")

    # No run of diagnose has a reference: a horizon runs whenever its own
    # step tau = T / M is positive, as in simulate.
    @pytest.mark.parametrize("horizon", ["1e-323", "1.5e-323"])
    def test_tiny_horizon_runs(self, horizon, tmp_path):
        assert main(["diagnose", "--resolutions", "4", "--samples", "2", "--steps", "1",
                     "--horizon", horizon, "--out", str(tmp_path / "d.csv")]) == 0

    def test_underflowing_step_is_usage_error(self, capsys):
        # tau = 5e-324 / 4 rounds to 0; the check names the run's own step.
        assert main(["diagnose", "--resolutions", "4", "--horizon", "5e-324"]) == 2
        assert ("error: horizon / steps must be positive and finite, got 0.0"
                in capsys.readouterr().err)

    def test_builds_no_run_config(self, tmp_path, monkeypatch):
        import tamedac.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("diagnose built a RunConfig")

        monkeypatch.setattr(cli, "RunConfig", never)
        assert main(["diagnose", "--resolutions", "4,8", "--samples", "2", "--steps", "2",
                     "--out", str(tmp_path / "d.csv")]) == 0

    # Past any array numpy can index: a usage error, with no allocation.
    @pytest.mark.parametrize("resolution", [2 ** 62, 2 ** 63])
    def test_unindexable_resolution_is_usage_error(self, resolution, capsys):
        assert main(["diagnose", "--resolutions", str(resolution), "--samples", "1",
                     "--steps", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_nonpositive_steps_rejected(self, steps, capsys):
        assert main(["diagnose", "--resolutions", "8", "--steps", steps]) == 2
        assert (f"argument --steps: n_steps must be an integer in [1, 2^64), got {steps}"
                in capsys.readouterr().err)

    def test_coprime_resolutions_run_each_on_its_own(self, tmp_path):
        # Their least common multiple is beyond 2^64, and no run needs it.
        resolutions = "61,67,71,73,79,83,89,97,101,103,107,109"
        out = tmp_path / "diag.csv"
        assert main(["diagnose", "--resolutions", resolutions, "--samples", "1", "--steps", "1",
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert [row.split(",")[0] for row in rows] == resolutions.split(",")

    @pytest.mark.parametrize("resolutions", ["16,8", "8,8"])
    def test_resolutions_must_ascend(self, resolutions, capsys):
        assert main(["diagnose", "--resolutions", resolutions, "--samples", "1"]) == 2
        assert "resolutions must be strictly ascending" in capsys.readouterr().err


# Unscaled, a finite drift coefficient this large overflows the analysis DST
# of the tamed drift; the test configuration makes a RuntimeWarning an error.
@pytest.mark.parametrize("argv", [
    "converge --resolutions 4,8 --ref 16 --samples 2 --a1 1e306",
    "converge --resolutions 4,8 --ref 16 --samples 2 --a0 1.7e308",
    "simulate --resolutions 8 --steps 4 --a1 1.7e308",
    "diagnose --resolutions 8 --samples 3 --a2 1e306",
])
def test_huge_drift_coefficient_runs(argv, tmp_path):
    assert main([*argv.split(), "--out", str(tmp_path / "out.csv")]) == 0


# A ValueError from any runner's work, whatever raises it, is one line and exit 2.
@pytest.mark.parametrize("argv, work", [
    (["converge", "--resolutions", "2,4", "--ref", "8", "--samples", "2"], "strong_error_study"),
    (["simulate", "--resolutions", "4", "--steps", "2"], "_coupled_terminals"),
    (["diagnose", "--resolutions", "4", "--samples", "2"], "_moments"),
], ids=["converge", "simulate", "diagnose"])
@pytest.mark.parametrize("error, message", [(ValueError("synthetic"), "synthetic"),
                                            (ValueError(), "")], ids=["message", "empty"])
def test_value_error_is_a_usage_error(argv, work, error, message, monkeypatch, capsys):
    import tamedac.cli as cli

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, work, fail)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
