"""Audio spectrogram transformer inference with token merging.

The pipeline: waveform -> 128 x 100t log-mel spectrogram -> overlapping
16x16 patch tokens -> pre-norm transformer encoder that merges the r most
similar tokens in every block -> linear [CLS] readout. A benchmark harness
sweeps r and reports the throughput/accuracy trade-off; a distillation loss
scores student logits against frozen teacher logits from file.
"""

from .bench import (
    BenchConfig,
    InferenceResult,
    SweepResult,
    SweepRow,
    benchmark_throughput,
    kd_eval,
    run_inference,
    sweep_report,
)
from .errors import (
    AlignmentError,
    AstmergeError,
    ConfigError,
    FormatError,
    NumericError,
    ShapeError,
)
from .features import (
    Spectrogram,
    SpectrogramConfig,
    Waveform,
    compute_log_mel,
    load_spec,
    read_wav,
    save_spec,
)
from .head import HeadWeights, accuracy, mean_average_precision
from .kd import (
    KdBatch,
    KdConfig,
    kd_loss,
    kd_loss_grad,
    load_teacher_logits,
    save_teacher_logits,
)
from .model_io import (
    DatasetManifest,
    SyntheticDataConfig,
    fit_head_probe,
    generate_synthetic_dataset,
    generate_synthetic_model,
    load_manifest,
    load_model,
    save_manifest,
    save_model,
)
from .patchify import (
    EmbeddingWeights,
    add_positional_and_cls,
    embed_patches,
    extract_patches,
    patch_count,
)
from .tome import ToMeConfig, merge_step
from .transformer import (
    BlockWeights,
    ModelConfig,
    ModelWeights,
    count_trajectory,
)

__version__ = "0.1.0"
