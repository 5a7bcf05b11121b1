"""qtrack: tracking-by-detection for video text detection streams."""

from .association import AssociationOutcome, MemoryBank, TrackerConfig, associate_frame, nms, track_sequence
from .data_io import (
    DetectionFrame,
    DetectionRecord,
    GroundTruthTrack,
    StreamHeader,
    TrajectoryOutput,
    parse_annotations,
    parse_detection_stream,
    read_trajectories,
    write_annotations,
    write_detection_stream,
    write_trajectories,
)
from .matcher import (
    MatcherParams,
    MatcherVariant,
    PackedMatcher,
    count_parameters,
    embed_queries,
    matcher_forward,
)
from .metrics import EvalConfig, MotReport, clear_mot, detection_prf, idf1
from .model import ModelConfig, TrackerModel, load_checkpoint, save_checkpoint
from .rescoring import RescoringHead, ScoredInstance, filter_instances
from .synth import SynthConfig, generate_sequence
from .training import (
    LossConfig,
    TrainConfig,
    Video,
    assign_targets,
    hungarian_match,
    matching_cost,
    total_loss,
    train,
)

__version__ = "0.1.0"
