"""Command-line interface behavior and exit codes."""

import json

import pytest

from scaledq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInfo:
    def test_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "info")
        assert code == 0
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert values["bits_per_element"] == "13"
        assert abs(float(values["reduction_factor"]) - 4.923) <= 0.001

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--json")
        assert code == 0
        assert json.loads(out)["p_bits"] == 8

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_bits": 4, "scale_bits": 4, "newton_iters": 20,
                                   "gelu_variant": "series-linear", "seed": 0}))
        code, out, _ = run_cli(capsys, "info", "--config", str(cfg), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["bits_per_element"] == 8
        assert report["reduction_factor"] == 8.0

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_bits": 4}))
        code, out, _ = run_cli(capsys, "info", "--config", str(cfg),
                               "--p-bits", "8", "--json")
        assert code == 0
        assert json.loads(out)["p_bits"] == 8

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(capsys, "info", "--config", str(cfg))
        assert code == 1
        assert "bogus" in err

    def test_div_t_max_config_key_refused(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"div_t_max": 5}))
        code, _, err = run_cli(capsys, "info", "--config", str(cfg))
        assert code == 1
        assert err == "scaledq: error: unknown config keys: ['div_t_max']\n"

    def test_div_t_max_flag_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["info", "--div-t-max", "5"])
        assert exc.value.code == 1
        errors = [l for l in capsys.readouterr().err.splitlines()
                  if l.startswith("scaledq: error:")]
        assert errors == ["scaledq: error: unrecognized arguments: --div-t-max 5"]

    @pytest.mark.parametrize("raw", [{"p_bits": "8"}, {"seed": "x"}, {"seed": 1.5},
                                     {"newton_iters": True}, {"gelu_variant": 3},
                                     {"p_bits": 1}])
    def test_bad_config_value_one_line(self, capsys, tmp_path, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "info", "--config", str(cfg))
        assert code == 1
        assert err.startswith("scaledq: error:") and err.count("\n") == 1


class TestInvsqrt:
    def test_trace_output(self, capsys):
        code, out, _ = run_cli(capsys, "invsqrt", "15.25", "--int", "122",
                               "--scale", "3", "--y0-int", "1", "--y0-scale", "6",
                               "--iters", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "iteration,fp64,int,scale,quantized"
        assert len(lines) == 10
        rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
        assert (rows[8][2], rows[8][3]) == ("33", "7")
        assert float(rows[8][4]) == 0.2578125

    def test_quantizes_value_when_no_int_given(self, capsys):
        code, out, _ = run_cli(capsys, "invsqrt", "4.0", "--iters", "20")
        assert code == 0
        final = float(out.strip().splitlines()[-1].split(",")[4])
        assert abs(final - 0.5) <= 0.02

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "invsqrt", "15.25", "--int", "122",
                               "--scale", "3", "--iters", "8", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["final"] == 0.2578125

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "invsqrt", "4.0", "--int", "-3", "--scale", "0")
        assert code == 2

    def test_mismatched_int_scale_flags(self, capsys):
        code, _, _ = run_cli(capsys, "invsqrt", "4.0", "--int", "3")
        assert code == 1

    @pytest.mark.parametrize("flags,named", [(("--int", "999", "--scale", "0"), "--int 999"),
                                             (("--int", "3", "--scale", "16"), "--scale 16"),
                                             (("--y0-int", "999"), "--y0-int 999"),
                                             (("--y0-int", "-1"), "--y0-int -1"),
                                             (("--y0-scale", "-17"), "--y0-scale -17")])
    def test_out_of_format_flags_exit_1(self, capsys, flags, named):
        code, out, err = run_cli(capsys, "invsqrt", "4.0", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith(f"scaledq: error: {named} is outside") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["4", "15.250001", "-15.25"])
    def test_value_that_disagrees_with_int_and_scale_exit_1(self, capsys, value):
        code, out, err = run_cli(capsys, "invsqrt", value, "--int", "122", "--scale", "3")
        assert code == 1
        assert out == ""
        assert err.startswith(f"scaledq: error: VALUE {float(value)!r} is not --int 122")
        assert err.count("\n") == 1

    def test_diverging_fp64_twin_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "invsqrt", "4", "--y0-int", "200")
        assert code == 1
        assert out == ""
        assert err.startswith("scaledq: error:") and "diverges" in err
        assert err.count("\n") == 1

    def test_default_seed_fits_narrow_scale_range(self, capsys):
        code, out, _ = run_cli(capsys, "invsqrt", "4", "--scale-bits", "3")
        assert code == 0
        assert out.splitlines()[1].split(",")[2:4] == ["1", "3"]


class TestBench:
    def test_single_row_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "linear", "--height", "4",
                               "--width", "4", "--trials", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("operator,B,I,O,K,H,W,trials,mse")
        assert lines[1].split(",")[0] == "linear"

    def test_identity_weight_mode(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "linear", "--height", "2",
                               "--width", "2", "--trials", "1",
                               "--weight-mode", "identity")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[8]) == 0.0

    def test_deterministic_bytes(self, capsys):
        args = ("bench", "softmax", "--height", "4", "--width", "4",
                "--trials", "2", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_json_includes_wall_time(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "gelu", "--height", "2",
                               "--width", "2", "--trials", "1", "--json")
        assert code == 0
        assert "wall_time_s" in json.loads(out)

    def test_unknown_operator_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "fft"])
        assert exc.value.code == 1

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(
            {"shape": [1, 1, 2, 2], "kind": "f64", "data": [0.1, 0.2, 0.3, 0.4]}))
        code, out, _ = run_cli(capsys, "bench", "conv2d", "--in-channels", "1",
                               "--out-channels", "1", "--height", "2", "--width", "2",
                               "--trials", "2", "--input-file", str(path))
        assert code == 0

    @pytest.mark.parametrize("payload", [
        {"shape": [2, 2], "kind": "scaled", "data": [1, 2]},
        {"shape": [2, 2], "kind": "f64", "data": [0.1, 0.2, "x", 0.4]},
        {"shape": [2, 2], "kind": "f64", "data": [0.1, 0.2, 0.3]},
    ])
    def test_bad_input_file_exit_1(self, capsys, tmp_path, payload):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "bench", "softmax", "--height", "2",
                               "--width", "2", "--trials", "1", "--input-file", str(path))
        assert code == 1
        assert err.startswith("scaledq: error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,named", [
        (["conv2d", "--kernel", "20", "--height", "4", "--width", "4"],
         "kernel 20 does not fit the 4x4 input"),
        (["depthwise-conv2d", "--in-channels", "2", "--out-channels", "3"],
         "out_channels 3 is no multiple of 2"),
        (["linear", "--weight-mode", "identity", "--in-channels", "3", "--out-channels", "4"],
         "got 3 in and 4 out"),
        (["suite", "--height", "0"], "all dimensions must be positive"),
        (["suite", "--trials", "0"], "trials must be >= 1"),
    ])
    def test_bad_geometry_refused_before_out_is_opened(self, capsys, tmp_path, argv, named):
        report = tmp_path / "report.csv"
        code, out, err = run_cli(capsys, "bench", *argv, "--out", str(report))
        assert code == 1
        assert out == ""
        assert err.startswith("scaledq: error:") and named in err and err.count("\n") == 1
        assert not report.exists()

    def test_f64_int_past_fp64_range_exit_1(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"shape": [1], "kind": "f64", "data": [10 ** 400]}))
        code, out, err = run_cli(capsys, "bench", "softmax", "--height", "1", "--width", "1",
                                 "--trials", "1", "--input-file", str(path))
        assert (code, out) == (1, "")
        assert err == f"scaledq: error: bad tensor file {path}: f64 entry past FP64's range\n"

    def test_oversized_dims_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "bench", "softmax", "--height", "100000",
                               "--width", "100000")
        assert code == 1
        assert "elements" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "bench", "softmax", "--height", "2",
                               "--width", "2", "--trials", "1", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("operator,")

    def test_unwritable_out_refused_before_first_trial(self, capsys, tmp_path,
                                                       monkeypatch):
        def no_trial(*_args, **_kwargs):
            raise AssertionError("a trial ran before --out was opened")
        monkeypatch.setattr("scaledq.cli.run_bench", no_trial)
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "bench", "softmax", "--height", "2",
                                 "--width", "2", "--trials", "1", "--out", str(target))
        assert code == 1
        assert out == ""
        assert err == f"scaledq: error: cannot write {target}: No such file or directory\n"

    def test_suite_small(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "suite", "--trials", "1",
                               "--height", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 13
        assert lines[11].split(",")[0] == "gelu[series-cubed]"
        assert lines[12].split(",")[0] == "gelu[series-linear]"

    def test_suite_refuses_flags_it_ignores(self, capsys):
        code, out, err = run_cli(capsys, "bench", "suite", "--input-file", "/nonexistent.json",
                                 "--kernel", "3", "--width", "99", "--trials", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("scaledq: error:")
        assert err.endswith("not --kernel, --width, --input-file\n")


class TestQuantizeCmd:
    def test_encoding_shown(self, capsys):
        code, out, _ = run_cli(capsys, "quantize", "15.25")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert (row[1], row[2]) == ("244", "4")
        assert float(row[4]) == 0.0

    def test_range_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "quantize", "99999999")
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--scale-bits", "11"), ("--p-bits", "1100")])
    def test_format_past_fp64_exit_1(self, capsys, flag, value):
        code, _, err = run_cli(capsys, "quantize", "1.0", flag, value)
        assert code == 1
        assert err.startswith("scaledq: error: p_bits + 2**(scale_bits - 1)")
        assert err.count("\n") == 1


class TestGeluCurve:
    def test_rows(self, capsys):
        code, out, _ = run_cli(capsys, "gelu-curve", "--start", "-1", "--stop", "1",
                               "--steps", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,quantized,exact"
        assert len(lines) == 6
        mid = lines[3].split(",")
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == 0.0
        assert float(mid[2]) == 0.0

    def test_bad_steps(self, capsys):
        code, _, _ = run_cli(capsys, "gelu-curve", "--steps", "1")
        assert code == 1

    def test_steps_above_max_elements_refused_before_any_row(self, capsys, monkeypatch):
        def no_row(*_args, **_kwargs):
            raise AssertionError("a row ran for refused --steps")
        monkeypatch.setattr("scaledq.cli.gelu", no_row)
        code, out, err = run_cli(capsys, "gelu-curve", "--steps", "16777217")
        assert (code, out) == (1, "")
        assert err == "scaledq: error: --steps 16777217 is outside [2, 16777216]\n"


class TestDivSweepCmd:
    def test_small_config(self, capsys):
        code, out, _ = run_cli(capsys, "div-sweep", "--p-bits", "4",
                               "--scale-bits", "4")
        assert code == 0
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert values["pairs"] == "225"
        assert values["divisible_inexact"] == "0"

    def test_oversized_sweep_refused_at_once(self, capsys):
        code, out, err = run_cli(capsys, "div-sweep", "--p-bits", "16")
        assert code == 1
        assert out == ""
        assert "pairs" in err


class TestSaveTensor:
    def test_generates_file(self, capsys, tmp_path):
        path = tmp_path / "gen.json"
        code, _, _ = run_cli(capsys, "save-tensor", str(path), "--shape", "2,3",
                             "--seed", "4")
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["shape"] == [2, 3]
        assert len(payload["data"]) == 6

    def test_bad_shape(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "save-tensor", str(tmp_path / "x.json"),
                             "--shape", "2,x")
        assert code == 1

    def test_unwritable_path_exit_1(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "save-tensor", str(path), "--shape", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("scaledq: error: cannot write tensor file")
        assert err.count("\n") == 1

    def test_oversized_shape_rejected_before_allocation(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        code, _, err = run_cli(capsys, "save-tensor", str(path),
                               "--shape", "100000,100000,100000")
        assert code == 1
        assert "elements" in err
        assert not path.exists()


# Config flags no longer offered where the command never read them (or read
# them only through a second flag, as invsqrt's --iters and gelu-curve's
# --variant), with the positional arguments each command needs.
REMOVED_FLAGS = [
    (cmd, flag, value)
    for cmd in ("invsqrt", "div-sweep", "quantize", "gelu-curve")
    for flag, value in (("--newton-iters", "5"), ("--gelu-variant", "series-cubed"),
                        ("--seed", "1"))
] + [("info", "--seed", "1")] + [
    ("save-tensor", flag, value)
    for flag, value in (("--p-bits", "6"), ("--scale-bits", "4"), ("--newton-iters", "5"),
                        ("--gelu-variant", "series-cubed"))
]
# Run from a temporary directory, where save-tensor writes t.json.
POSITIONALS = {"invsqrt": ["4"], "quantize": ["1.5"], "save-tensor": ["t.json", "--shape", "2"]}


@pytest.mark.parametrize("cmd,flag,value", REMOVED_FLAGS,
                         ids=[f"{c} {f}" for c, f, _ in REMOVED_FLAGS])
def test_removed_config_flag_unrecognized(capsys, tmp_path, monkeypatch, cmd, flag, value):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([cmd, *POSITIONALS.get(cmd, []), flag, value])
    assert exc.value.code == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("scaledq: error:")]
    assert errors == [f"scaledq: error: unrecognized arguments: {flag} {value}"]
    assert not (tmp_path / "t.json").exists()


KEPT_FLAGS = [
    (cmd, flag, value)
    for cmd in ("invsqrt", "quantize", "gelu-curve", "div-sweep")
    for flag, value in (("--p-bits", "4"), ("--scale-bits", "4"))
] + [("info", flag, value) for flag, value in (("--p-bits", "6"), ("--scale-bits", "4"),
                                                ("--newton-iters", "5"),
                                                ("--gelu-variant", "series-cubed"))] + [
    ("save-tensor", "--seed", "5")]


@pytest.mark.parametrize("cmd,flag,value", KEPT_FLAGS, ids=[f"{c} {f}" for c, f, _ in KEPT_FLAGS])
def test_kept_config_flag_runs(capsys, tmp_path, monkeypatch, cmd, flag, value):
    monkeypatch.chdir(tmp_path)
    argv = [cmd, *POSITIONALS.get(cmd, []), flag, value]
    if cmd == "div-sweep" and flag != "--p-bits":
        argv += ["--p-bits", "4"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")


ALL_KEYS_CONFIG = {"p_bits": 8, "scale_bits": 5, "newton_iters": 20,
                   "gelu_variant": "series-cubed", "seed": 1}


@pytest.mark.parametrize("argv", [
    ["bench", "softmax", "--height", "2", "--width", "2", "--trials", "1"],
    ["bench", "suite", "--height", "2", "--trials", "1"],
    ["invsqrt", "4"], ["div-sweep", "--p-bits", "4"], ["quantize", "1.5"],
    ["gelu-curve", "--steps", "3"], ["info"], ["save-tensor", *POSITIONALS["save-tensor"]],
], ids=lambda argv: " ".join(argv[:2]))
def test_config_file_with_every_key_accepted_everywhere(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(ALL_KEYS_CONFIG))
    code, _, err = run_cli(capsys, *argv, "--config", "cfg.json")
    assert (code, err) == (0, "")


# What each bench row does not read; it reads every other bench setting.
BENCH_UNREAD = {
    "conv2d": ("--weight-mode", "--newton-iters", "--gelu-variant"),
    "depthwise-conv2d": ("--weight-mode", "--newton-iters", "--gelu-variant"),
    "linear": ("--batch", "--kernel", "--newton-iters", "--gelu-variant"),
    "layer-norm": ("--batch", "--in-channels", "--out-channels", "--kernel", "--weight-mode",
                   "--gelu-variant"),
    "softmax": ("--batch", "--in-channels", "--out-channels", "--kernel", "--weight-mode",
                "--newton-iters", "--gelu-variant"),
    "gelu": ("--batch", "--in-channels", "--out-channels", "--kernel", "--weight-mode",
             "--newton-iters"),
    "suite": ("--batch", "--in-channels", "--out-channels", "--kernel", "--width",
              "--weight-mode", "--input-file", "--gelu-variant"),
}
# A value for each bench setting that differs from its default.
BENCH_VALUES = {"--batch": "2", "--in-channels": "1", "--out-channels": "6", "--kernel": "2",
                "--height": "4", "--width": "4", "--trials": "2", "--weight-mode": "identity",
                "--p-bits": "6", "--scale-bits": "4", "--newton-iters": "3",
                "--gelu-variant": "series-cubed", "--seed": "3"}
FILE_FLAGS = ("--input-file", "--config")
BENCH_READ = [(row, flag) for row in BENCH_UNREAD for flag in (*BENCH_VALUES, *FILE_FLAGS)
              if flag not in BENCH_UNREAD[row]]


def _bench_argv(row, flag, tmp_path):
    base = ["--height", "3", "--trials", "1"] + ([] if row == "suite" else ["--width", "3"])
    if flag == "--config":
        value = tmp_path / "cfg.json"
        value.write_text(json.dumps({"p_bits": 6}))
    elif flag == "--input-file":
        shape = {"conv2d": [1, 3, 3, 3], "depthwise-conv2d": [1, 3, 3, 3],
                 "linear": [9, 3]}.get(row, [9])
        value = tmp_path / "x.json"
        value.write_text(json.dumps({"shape": shape, "kind": "f64",
                                     "data": [0.5] * (27 if len(shape) > 1 else 9)}))
    else:
        value = BENCH_VALUES[flag]
    return ["bench", row, *base, flag, str(value)]


@pytest.mark.parametrize("row,flag", [(r, f) for r, fs in BENCH_UNREAD.items() for f in fs])
def test_bench_refuses_unread_flag_before_any_trial(capsys, tmp_path, monkeypatch, row, flag):
    def no_trial(*_args, **_kwargs):
        raise AssertionError("a trial ran for an unread flag")
    monkeypatch.setattr("scaledq.cli.run_bench", no_trial)
    monkeypatch.setattr("scaledq.cli.run_suite", no_trial)
    report = tmp_path / "report.csv"
    code, out, err = run_cli(capsys, *_bench_argv(row, flag, tmp_path), "--out", str(report))
    assert code == 1
    assert out == ""
    assert err.startswith(f"scaledq: error: bench {row} reads only --height")
    assert err.endswith(f", not {flag}\n") and err.count("\n") == 1
    assert not report.exists()


@pytest.mark.parametrize("row,flag", BENCH_READ)
def test_bench_read_flag_changes_the_report(capsys, tmp_path, row, flag):
    argv = _bench_argv(row, flag, tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    _, base, _ = run_cli(capsys, *argv[:-2])
    assert out != base


@pytest.mark.parametrize("argv,named", [
    (["invsqrt", "4", "--iters", "4097"], "--iters 4097 is outside [0, 4096]"),
    (["invsqrt", "4", "--iters", "-1"], "--iters -1 is outside [0, 4096]"),
    (["bench", "layer-norm", "--newton-iters", "4097"], "got 4097"),
    (["bench", "suite", "--newton-iters", "0"], "got 0"),
])
def test_newton_iteration_count_bounded(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("scaledq: error:") and named in err and err.count("\n") == 1


def test_invsqrt_accepts_the_iteration_bound(capsys):
    code, out, _ = run_cli(capsys, "invsqrt", "4", "--iters", "4096")
    assert code == 0
    assert len(out.splitlines()) == 4098


def test_config_newton_iters_above_bound_exit_1(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"newton_iters": 4097}))
    code, _, err = run_cli(capsys, "invsqrt", "4", "--config", str(cfg))
    assert code == 1
    assert err == "scaledq: error: newton_iters must be from 1 to 4096, got 4097\n"


@pytest.mark.parametrize("contents,named", [
    (None, "missing.json"),
    ("{not json", "cfg.json"),
    ("[1, 2]", "got list"),
    ('"p_bits"', "got str"),
])
def test_unusable_config_file_named(capsys, tmp_path, contents, named):
    cfg = tmp_path / ("missing.json" if contents is None else "cfg.json")
    if contents is not None:
        cfg.write_text(contents)
    code, out, err = run_cli(capsys, "quantize", "1.5", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("scaledq: error:") and named in err and err.count("\n") == 1


@pytest.mark.parametrize("shape", ["2,0", "3,-1", "0"])
def test_save_tensor_non_positive_dim_named(capsys, tmp_path, shape):
    path = tmp_path / "t.json"
    code, out, err = run_cli(capsys, "save-tensor", str(path), f"--shape={shape}")
    assert code == 1
    assert out == ""
    assert err == f"scaledq: error: shape dims must be positive, got {shape}\n"
    assert not path.exists()


def test_bench_scaled_input_file_matches_equal_f64_file(capsys, tmp_path):
    pairs = [[122, 3], [-33, 7], [0, 0], [255, 15]]
    scaled, f64 = tmp_path / "scaled.json", tmp_path / "f64.json"
    scaled.write_text(json.dumps({"shape": [4], "kind": "scaled", "data": pairs}))
    f64.write_text(json.dumps({"shape": [4], "kind": "f64",
                               "data": [m / 2 ** s for m, s in pairs]}))
    argv = ["bench", "softmax", "--height", "2", "--width", "2", "--trials", "2"]
    reports = [run_cli(capsys, *argv, "--input-file", str(p)) for p in (scaled, f64)]
    assert reports[0] == reports[1]
    assert reports[0][0] == 0 and reports[0][1].startswith("operator,")
