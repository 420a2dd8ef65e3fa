"""pawpulse: dual-wavelength reflectance vitals pipeline.

Turns raw red/IR samples into heart rate and SpO2 estimates plus a
rule-table emotion assessment, with a synthetic generator serving as
ground-truth oracle, a binary wire format, and deterministic session
replay.
"""

from .core import (
    ADC_MAX,
    BeatEvent,
    CalibrationCoeffs,
    ContactState,
    DEFAULT_COEFFS,
    PipelineConfig,
    SampleFrame,
    VitalsEstimate,
    validate_frame,
)
from .dsp import AcBlock, contact_state
from .emotion import (
    Certainty,
    EmotionAssessment,
    EmotionState,
    VitalsBands,
    audit_coverage,
    classify,
    discretize,
)
from .synth import ArtifactKind, GroundTruth, SynthProfile, generate, inject_artifacts
from .vitals import (
    BeatDetectorState,
    VitalsPipeline,
    accept_bpm,
    beat_interval,
    clamp_spo2,
    detect_beats,
    fit_calibration,
    instantaneous_bpm,
    rolling_average_bpm,
    spo2_estimate,
)
from .wire import FrameBlock, decode_frame, encode_frame, resync, validate_block

__version__ = "0.1.0"

__all__ = [
    "ADC_MAX",
    "AcBlock",
    "ArtifactKind",
    "BeatDetectorState",
    "BeatEvent",
    "CalibrationCoeffs",
    "Certainty",
    "ContactState",
    "DEFAULT_COEFFS",
    "EmotionAssessment",
    "EmotionState",
    "FrameBlock",
    "GroundTruth",
    "PipelineConfig",
    "SampleFrame",
    "SynthProfile",
    "VitalsBands",
    "VitalsEstimate",
    "VitalsPipeline",
    "accept_bpm",
    "audit_coverage",
    "beat_interval",
    "clamp_spo2",
    "classify",
    "contact_state",
    "decode_frame",
    "detect_beats",
    "discretize",
    "encode_frame",
    "fit_calibration",
    "generate",
    "inject_artifacts",
    "instantaneous_bpm",
    "resync",
    "rolling_average_bpm",
    "spo2_estimate",
    "validate_block",
    "validate_frame",
]
