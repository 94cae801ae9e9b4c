"""Integer-only scaled quantization: P-bit magnitudes with per-value
power-of-two scales, quantized transformer operators, FP64 references and a
benchmark harness."""

from .core import (
    DEFAULT_CONFIG,
    GELU_SERIES_CUBED,
    GELU_SERIES_CUBED_CORRECTED,
    GELU_SERIES_LINEAR,
    GELU_VARIANTS,
    ONE,
    ZERO,
    DivisionByZero,
    DomainError,
    RangeError,
    SaturationCounter,
    ScaleConfig,
    ScaledInt,
    dequantize,
    handle_overflow,
    quantize,
    scale_add,
    scale_div,
    scale_mul,
    scale_sub,
    shift_scale,
)
from .newton import NewtonTrace, exponent_seed, newton_inv_sqrt
from .ops import (
    ConvSpec,
    LayerNormParams,
    QTensor,
    ShapeError,
    attention,
    conv2d,
    factorized_attention,
    gelu,
    gelu_map,
    layer_norm,
    linear,
    matmul,
    relu,
    softmax,
    softmax_tensor,
    sum_aligned,
    transpose,
)
from .reference import FTensor, dequantize_tensor, max_abs_error, mse
from .bench import (
    BenchReport,
    DivSweepReport,
    ExperimentSpec,
    UsageError,
    div_sweep,
    load_tensor,
    memory_report,
    run_bench,
    run_suite,
    save_tensor,
)

__version__ = "0.1.0"
