"""Tile-streamed CNN training with exact activation-map reconstruction.

Train convolutional networks on images far larger than activation memory
allows: every layer below the network's flatten runs tile-by-tile with
planner-computed overlaps. The planner cuts that section at checkpoint
maps (pool outputs) into segments, each tiled with its own grid from the
retained map below it (tilestream.planner's module doc, "Choosing the
plan", gives the rule); every checkpoint map and the split map, the
flatten's input, are reconstructed bit-exactly, and the head runs once
on the split map. The backward pass walks the segments top-down and
recomputes each tile's forward crop instead of retaining its
activations (but the last tile's), summing the tiles' parameter gradients
into the whole-image gradient and their input gradients into the
checkpoints' gradient maps. Whole-image training is whole_image_plan.
"""

from .engine import (
    StreamingForwardState,
    StreamingRunRecord,
    accumulate_minibatch,
    sgd_step,
    streaming_backward,
    streaming_forward,
    train_step,
)
from .equivalence import (baseline_forward_backward, compare_runs, finite_difference_check,
                          lockstep_train)
from .errors import (
    ConfigError,
    NondeterminismError,
    NonFiniteError,
    PlanError,
    ShapeError,
    TilestreamError,
)
from .memory import estimate_streaming, estimate_whole_image, reduction_report
from .network import (
    Conv,
    Dense,
    Flatten,
    MaxPool,
    NetworkSpec,
    ParamGrads,
    Relu,
    init_params,
    net_giga64mp,
    net_tiny2,
    net_vgg13,
)
from .planner import (
    Region,
    TilePlan,
    build_tile_plan,
    validate_tile_plan,
    whole_image_plan,
)

__version__ = "0.1.0"
