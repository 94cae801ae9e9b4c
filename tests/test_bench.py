"""Harness tests: experiment plumbing, reports, tensor files, determinism."""

import hashlib
import json
import math

import pytest

from scaledq import bench
from scaledq.core import RangeError, ScaleConfig, ScaledInt, quotient
from scaledq.ops import QTensor
from scaledq.reference import FTensor
from scaledq.bench import (
    MAX_ELEMENTS,
    ExperimentSpec,
    UsageError,
    div_sweep,
    load_tensor,
    memory_report,
    reports_to_csv,
    run_bench,
    run_suite,
    save_tensor,
    suite_specs,
)
from scaledq.cli import main

CFG = ScaleConfig()
CSV_HEADER = ("operator,B,I,O,K,H,W,trials,mse,max_abs_err,saturations,"
              "bits_per_element,reduction_factor")


class TestExperimentSpec:
    def test_unknown_operator(self):
        with pytest.raises(UsageError):
            ExperimentSpec("fft")

    def test_bad_dims(self):
        with pytest.raises(UsageError):
            ExperimentSpec("conv2d", h=0)
        with pytest.raises(UsageError):
            ExperimentSpec("conv2d", trials=0)

    @pytest.mark.parametrize("dims", [dict(h=100000, w=100000),
                                      dict(b=4096, i=4096, h=2, w=2),
                                      dict(i=4096, o=4096, k=2)])
    def test_oversized_dims_rejected(self, dims):
        with pytest.raises(UsageError, match="elements"):
            ExperimentSpec("conv2d", **dims)

    def test_full_size_image_accepted(self):
        ExperimentSpec("conv2d", i=3, o=9, k=3, h=224, w=224)

    @pytest.mark.parametrize("dims", [dict(b=400000), dict(k=5000)])
    def test_dims_a_flat_row_never_builds_accepted(self, dims):
        ExperimentSpec("softmax", **dims)

    @pytest.mark.parametrize("operator,dims", [
        ("conv2d", dict(b=400000)),
        ("depthwise-conv2d", dict(o=4096, k=65)),
        ("linear", dict(o=4096, h=64, w=65)),
        ("softmax", dict(h=4097, w=4096)),
    ])
    def test_tensor_a_row_builds_bounded(self, operator, dims):
        with pytest.raises(UsageError, match="elements"):
            ExperimentSpec(operator, **dims)

    @pytest.mark.parametrize("operator,dims,trials", [
        ("conv2d", dict(i=3, o=9), 7281),  # 7281 x 2304 <= 2**24 < 7282 x 2304
        ("softmax", dict(h=4096, w=4096), 1),
        ("linear", dict(i=3, o=9, h=16, w=16), 7281),
    ])
    def test_trials_times_largest_tensor_bounded(self, operator, dims, trials):
        ExperimentSpec(operator, trials=trials, **dims)
        with pytest.raises(UsageError, match=f"give {trials + 1} x "):
            ExperimentSpec(operator, trials=trials + 1, **dims)

    def test_huge_trial_count_refused_with_the_product(self):
        with pytest.raises(UsageError) as exc:
            ExperimentSpec("conv2d", i=3, o=9, trials=10 ** 9)
        assert str(exc.value) == ("dimensions and trials give 1000000000 x 2304 "
                                  "elements, above 16777216")

    def test_every_suite_row_far_below_the_bound(self):
        for spec, _ in suite_specs():
            largest = max(map(math.prod, bench._OPERATORS[spec.operator].shapes(spec)))
            assert spec.trials * largest <= 25 * 2304 < MAX_ELEMENTS // 256

    @pytest.mark.parametrize("operator,dims,named", [
        ("conv2d", dict(k=5, h=4, w=9), "kernel 5 does not fit the 4x9 input"),
        ("depthwise-conv2d", dict(k=3, h=3, w=2), "kernel 3 does not fit the 3x2 input"),
        ("depthwise-conv2d", dict(i=2, o=3), "out_channels 3 is no multiple of 2"),
    ])
    def test_conv_geometry_refused(self, operator, dims, named):
        with pytest.raises(UsageError, match=named):
            ExperimentSpec(operator, **dims)

    @pytest.mark.parametrize("build,needle", [
        (lambda: ExperimentSpec("linear", weight_mode="eye"), "got 'eye'"),
        (lambda: ExperimentSpec("linear", weight_mode=""), "got ''"),
        (lambda: run_bench(ExperimentSpec("linear", i=3, o=2, h=2, w=2, trials=1,
                                          weight_mode="identity"), CFG),
         "got 3 in and 2 out"),
    ])
    def test_bad_weights_named(self, build, needle):
        with pytest.raises(UsageError) as exc:
            build()
        assert type(exc.value) is UsageError
        assert needle in str(exc.value)


class TestRunBench:
    def test_identity_linear_is_exact(self):
        spec = ExperimentSpec("linear", i=3, o=3, h=4, w=4, trials=3,
                              weight_mode="identity")
        report = run_bench(spec, CFG)
        assert report.mse == 0.0
        assert report.max_abs_err == 0.0

    def test_same_seed_same_bytes(self):
        spec = ExperimentSpec("conv2d", i=2, o=2, h=6, w=6, trials=3, seed=11)
        a = run_bench(spec, CFG)
        b = run_bench(spec, CFG)
        assert reports_to_csv([a]) == reports_to_csv([b])

    def test_different_seed_differs(self):
        s1 = ExperimentSpec("conv2d", i=2, o=2, h=6, w=6, trials=3, seed=1)
        s2 = ExperimentSpec("conv2d", i=2, o=2, h=6, w=6, trials=3, seed=2)
        assert run_bench(s1, CFG).mse != run_bench(s2, CFG).mse

    def test_fixed_input_reused_across_trials(self):
        fixed = FTensor((1, 1, 2, 2), (0.1, 0.2, 0.3, 0.4))
        spec = ExperimentSpec("conv2d", i=1, o=1, h=2, w=2, trials=2, seed=3)
        report = run_bench(spec, CFG, fixed_input=fixed)
        assert report.mse >= 0.0
        with pytest.raises(UsageError):
            run_bench(ExperimentSpec("conv2d", i=2, o=1, h=2, w=2, trials=1), CFG,
                      fixed_input=fixed)

    def test_report_row_fields(self):
        spec = ExperimentSpec("softmax", i=1, o=1, h=2, w=2, trials=2)
        row = run_bench(spec, CFG).row()
        assert list(row) == CSV_HEADER.split(",")
        assert row["operator"] == "softmax"
        assert row["trials"] == 2

    def test_gelu_variant_label(self):
        spec = ExperimentSpec("gelu", h=2, w=2, trials=1, label="gelu[series-linear]")
        report = run_bench(spec, CFG, gelu_variant="series-linear")
        assert report.operator_label == "gelu[series-linear]"


class TestSuite:
    def test_row_order_and_labels(self):
        labels = [(s.label or s.operator, s.i, s.o) for s, _ in suite_specs(seed=0)]
        assert labels == [
            ("conv2d", 3, 3), ("conv2d", 3, 9), ("conv2d", 3, 1),
            ("layer-norm", 1, 1),
            ("depthwise-conv2d", 3, 3), ("depthwise-conv2d", 3, 9),
            ("linear", 3, 9), ("linear", 3, 1), ("linear", 3, 3),
            ("softmax", 1, 1),
            ("gelu[series-cubed]", 1, 1), ("gelu[series-linear]", 1, 1),
        ]

    def test_small_suite_reproducible(self):
        a = reports_to_csv(run_suite(CFG, seed=5, trials=2, side=4))
        b = reports_to_csv(run_suite(CFG, seed=5, trials=2, side=4))
        assert a == b
        assert a.startswith(CSV_HEADER + "\n")


class TestDivSweep:
    def test_tiny_config_sweep_exhaustive(self):
        cfg = ScaleConfig(p_bits=4, scale_bits=4)
        report = div_sweep(cfg)
        assert report.pairs == 15 * 15
        assert report.divisible_inexact == 0
        assert report.max_rel_err <= 2 ** -2  # 4-bit magnitudes are coarse

    def test_refused_above_max_elements(self):
        with pytest.raises(UsageError, match="pairs"):
            div_sweep(ScaleConfig(p_bits=13))

    def test_counts_divisible_pairs_whose_quotient_is_inexact(self, monkeypatch):
        def drops_a_bit_when_divisible(a, b, scale, cfg, sat=None):
            magnitude, scale = quotient(a, b, scale, cfg, sat)
            return (magnitude & (magnitude - 1) if a % b == 0 else magnitude), scale

        cfg = ScaleConfig(p_bits=2, scale_bits=3)
        clean = div_sweep(cfg)
        monkeypatch.setattr(bench, "quotient", drops_a_bit_when_divisible)
        lossy = div_sweep(cfg)
        # (1, 1), (2, 1), (3, 1), (2, 2) and (3, 3)
        assert (clean.divisible_inexact, lossy.divisible_inexact) == (0, 5)
        assert lossy.exact == clean.exact - 5


class TestTensorFiles:
    def test_f64_round_trip(self, tmp_path):
        path = str(tmp_path / "t.json")
        t = FTensor((2, 2), (0.5, -1.25, 3.0, 0.0))
        save_tensor(path, t)
        back = load_tensor(path, CFG)
        assert isinstance(back, FTensor)
        assert back == t

    def test_scaled_round_trip(self, tmp_path):
        path = str(tmp_path / "q.json")
        t = QTensor((3,), (ScaledInt(122, 3), ScaledInt(33, 7, True), ScaledInt(0)))
        save_tensor(path, t)
        back = load_tensor(path, CFG)
        assert isinstance(back, QTensor)
        assert back.data == t.data

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_f64_entry_refused_before_the_file(self, tmp_path, value):
        path = tmp_path / "t.json"
        with pytest.raises(UsageError, match="JSON holds no inf or nan"):
            save_tensor(str(path), FTensor((2,), (0.5, value)))
        assert not path.exists()

    def test_scaled_format_is_signed_pairs(self, tmp_path):
        path = str(tmp_path / "q.json")
        save_tensor(path, QTensor((1,), (ScaledInt(7, 2, True),)))
        payload = json.loads((tmp_path / "q.json").read_text())
        assert payload == {"shape": [1], "kind": "scaled", "data": [[-7, 2]]}

    def test_f64_int_past_fp64_range_rejected(self, tmp_path):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"shape": [1], "kind": "f64", "data": [10 ** 400]}))
        with pytest.raises(UsageError, match="past FP64's range"):
            load_tensor(str(p), CFG)

    def test_out_of_range_magnitude_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"shape": [1], "kind": "scaled", "data": [[256, 0]]}')
        with pytest.raises(RangeError):
            load_tensor(str(p), CFG)

    def test_out_of_range_scale_rejected(self, tmp_path):
        p = tmp_path / "bad2.json"
        p.write_text('{"shape": [1], "kind": "scaled", "data": [[1, 99]]}')
        with pytest.raises(RangeError):
            load_tensor(str(p), CFG)

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "nope.json"
        p.write_text("[1, 2")
        with pytest.raises(UsageError):
            load_tensor(str(p), CFG)
        with pytest.raises(UsageError):
            load_tensor(str(tmp_path / "missing.json"), CFG)

    @pytest.mark.parametrize("kind,entry", [("f64", 0.5), ("scaled", [1, 0])])
    def test_negative_dimension_refused(self, tmp_path, kind, entry):
        p = tmp_path / "neg.json"
        p.write_text(json.dumps({"shape": [-2, -2], "kind": kind, "data": [entry] * 4}))
        with pytest.raises(UsageError, match=r"shape \(-2, -2\) has a negative dimension"):
            load_tensor(str(p), CFG)

    @pytest.mark.parametrize("payload", [
        {"shape": [2], "kind": "scaled", "data": [1, 2]},
        {"shape": [1], "kind": "scaled", "data": [[1, 2, 3]]},
        {"shape": [1], "kind": "scaled", "data": [["a", 0]]},
        {"shape": [2], "kind": "f64", "data": [0.5, "x"]},
        {"shape": [1], "kind": "f64", "data": [None]},
        {"shape": [2, 2], "kind": "f64", "data": [0.5, 1.0]},
        {"shape": [3], "kind": "scaled", "data": [[1, 0]]},
        {"shape": [1], "kind": "complex", "data": [1]},
        {"shape": [1], "kind": "scaled", "data": [[1.5, 0]]},
        {"shape": [1], "kind": "scaled", "data": [["7", 0]]},
        {"shape": [1], "kind": "scaled", "data": [[1, 0.0]]},
        {"shape": [1], "kind": "scaled", "data": [[True, 0]]},
        {"shape": [2.5], "kind": "f64", "data": [0.5, 1.0]},
        {"shape": [True], "kind": "f64", "data": [0.5]},
        {"shape": [1], "kind": "f64", "data": ["0.5"]},
        {"shape": [1], "kind": "f64", "data": [True]},
        {"shape": [1], "kind": "f64", "data": 0.5},
    ])
    def test_bad_contents_are_usage_errors(self, tmp_path, payload):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(UsageError):
            load_tensor(str(p), CFG)


# SHA-256 of CLI reports, pinned so a refactor that changes any byte fails.
GOLDEN = [
    (("bench", "suite"),
     "81561f8efc2e807ce3b0a4ca48594251ce743931861e88f4d7a6fff69c415e50"),
    (("bench", "suite", "--trials", "3", "--height", "8"),
     "ce09b2901f18dfb5dee6a76c8edc99ff94b946d97c7de2e64fec81eba4a236e1"),
    (("div-sweep",),
     "105aef91e8579d92e89f9cedb3c01764404fae44d42c2a5b18c85153ce3cf286"),
    (("div-sweep", "--json"),
     "feb5d0a9c1b7cfe6a469657e415dcac1bd22f6cf0085a635affc493e2309e881"),
    (("info",),
     "968654e290afbcda1aafeb6da4af2179f03d0d533224f5d63a41da3ec744f4be"),
    (("info", "--json"),
     "b83e9ebeae1ee0080d0087c925f4b61a79bf341ac4bfe2f97a5fc39cd12264e6"),
    (("bench", "linear", "--height", "4", "--width", "4", "--trials", "2"),
     "2409dbb0200b4d1e2e74bbd230b80468c0949d3a28afe1a6711e891e5d4ab141"),
    (("bench", "conv2d", "--kernel", "3", "--height", "6", "--width", "6", "--trials", "2"),
     "27b622fcb800651b1856fe22a80d436f45bf1a645fb2f6b798dd0acc0979e7ae"),
    (("quantize", "15.25"),
     "2ec3293994e4caad0d11c79a1935b6735f26b9a7ed3431971319f5f2a3efaf6d"),
    (("quantize", "-0.3", "--json"),
     "0011c9d52198f82acc13823e1a587e7a2b0f7f55eaef6847d525dab8c0708fa3"),
    (("invsqrt", "15.25", "--int", "122", "--scale", "3", "--iters", "8"),
     "8b83a3a4fe73050c314fbaca3aa7e335f2062723153c4020f30f2d1815f3f584"),
    (("invsqrt", "15.25", "--int", "122", "--scale", "3", "--iters", "8", "--json"),
     "72686086ea008f572dac08377ca9f6a78b8b5d81fa74b9684646a3ec8780b401"),
    (("gelu-curve",),
     "4d0ea3dc40daad853d4d61c7ac2cfae50564e885d93bdce343464c1b20c1c827"),
    (("gelu-curve", "--gelu-variant", "series-cubed", "--steps", "9"),
     "79a2bae29b0e8cbafe7073e9518e682bedbef79de9a014f84f89b0ecb7a595ce"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_report_bytes(capsys, argv, digest):
    assert main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("operator", ["linear", "suite"])
def test_bench_json_keys_are_csv_columns_plus_wall_time(capsys, operator):
    argv = ["bench", operator, "--height", "2", "--trials", "1"]
    assert main(argv) == 0
    header = capsys.readouterr().out.splitlines()[0].split(",")
    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for row in payload if isinstance(payload, list) else [payload]:
        assert sorted(row) == sorted(header + ["wall_time_s", "op_s"])


def test_suite_op_time_is_within_wall_time():
    reports = bench.run_suite(CFG, trials=2, side=4)
    assert len(reports) == 12
    assert all(0.0 <= r.op_s <= r.wall_time_s for r in reports)


class TestMemoryReport:
    def test_default_config(self):
        report = memory_report(CFG)
        assert report["bits_per_element"] == 13
        assert abs(report["reduction_factor"] - 4.923) <= 0.001

    def test_other_configs(self):
        assert memory_report(ScaleConfig(p_bits=8, scale_bits=8))["reduction_factor"] == 4.0
        assert memory_report(ScaleConfig(p_bits=4, scale_bits=4))["reduction_factor"] == 8.0
