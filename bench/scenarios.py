"""Benchmark inputs: one synthetic stream per workload, made from a seed.

Each scenario fixes the structure of its stream (duration, BPM schedule,
artifact times and polarities, temperature schedule) and lets the seed
drive everything random in it (sensor noise, which frames get a byte
flipped, where garbage bursts sit and what they hold). So every seed is a
different stream of the same difficulty.

The stream is cut into ticks at frame boundaries. A tick's bytes are the
encodings of the frames whose timestamps fall in that tick, each preceded
by the garbage burst (if any) placed before it. Alongside the bytes the
scenario keeps the bookkeeping the benchmark checks the decoder against:
which frames are intact, and per tick the frames the decoder must return.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from pawpulse import synth, wire
from pawpulse.core import PipelineConfig, SampleFrame

FS_HZ = 100.0
SNR_DIVISOR = 10.0  # 20 dB: noise std is a tenth of the clean AC RMS

# BPM schedules cross the default emotion bands (low/normal/elevated/high).
# The clean ones start at 80 BPM: a start at 55 BPM reads 90-120 BPM for the
# first seconds on some seeds, which would dominate the error of a short stream.
CLEAN_SCHEDULE = ((0.0, 80.0), (20.0, 55.0), (40.0, 115.0), (60.0, 150.0), (80.0, 90.0))
HOSTILE_SCHEDULE = ((0.0, 90.0), (40.0, 130.0), (80.0, 70.0))
RECORD_SCHEDULE = ((0.0, 80.0), (8.0, 55.0), (15.0, 115.0), (23.0, 150.0))
# Temperature crosses the normal / fever / low bands.
HOSTILE_TEMPS = ((0.0, 38.5), (40.0, 39.6), (80.0, 37.2))
# (start_s, duration_s, artifact seed); the artifact seeds fix the
# polarities to up, down, up, so every seed sees the same spikes.
HOSTILE_SPIKES = ((20.0, 1.5, 1), (70.0, 1.5, 0), (100.0, 1.5, 6))
HOSTILE_DROPOUT_S = (52.0, 8.0)  # long enough for several no-contact ticks
FLIP_FRACTION = 0.01
BURST_EVERY_FRAMES = 200  # one garbage burst per ~2 s of signal on average
BURST_BYTES = (4, 33)


@dataclass(frozen=True)
class Workload:
    name: str
    seconds: float
    schedule: tuple
    tick_interval_ms: int
    outlier_z: float | None
    hostile: bool

    def config(self) -> PipelineConfig:
        return PipelineConfig(tick_interval_ms=self.tick_interval_ms, outlier_z=self.outlier_z)


WORKLOADS = {
    "live_clean": Workload("live_clean", 100.0, CLEAN_SCHEDULE, 1000, None, hostile=False),
    "live_hostile": Workload("live_hostile", 120.0, HOSTILE_SCHEDULE, 250, 5.0, hostile=True),
    "record_replay": Workload("record_replay", 30.0, RECORD_SCHEDULE, 1000, None, hostile=False),
}


@dataclass
class Stream:
    """A generated workload input plus what the benchmark checks it against."""

    frames: list[SampleFrame]
    intact: list[bool]
    chunks: list[bytes]  # one per tick
    tick_sizes: list[int]  # input frames per tick, corrupted ones included
    tick_frames: list[list[SampleFrame]]  # intact frames per tick, in order
    truth_bpm: list[float | None]  # per tick
    truth_spo2: float


def frame_key(frame) -> tuple:
    return (frame.timestamp_ms, frame.red, frame.ir, frame.temperature_c)


def frames_digest(frames) -> str:
    """Digest of a frame list, independent of the frame type's class."""
    return hashlib.sha256(repr([frame_key(f) for f in frames]).encode()).hexdigest()


def _noise_std(profile: synth.SynthProfile, seconds: float) -> float:
    clean, _ = synth.generate(profile, seconds, FS_HZ)
    ir = np.array([f.ir for f in clean], dtype=float)
    return float(np.std(ir - ir.mean())) / SNR_DIVISOR


def _schedule_at(schedule, t_ms: int) -> float:
    value = schedule[0][1]
    for start_s, v in schedule:
        if t_ms >= start_s * 1000.0:
            value = v
    return value


def truth_bpm_at(beat_times_ms, tick_time_ms: int, window: int) -> float | None:
    """Mean of 60 / dt over the last ``window`` true intervals completed
    by ``tick_time_ms``: the ideal version of the pipeline's rolling
    average, read off the generator's exact beat times."""
    done = [t for t in beat_times_ms if t <= tick_time_ms]
    if len(done) < 2:
        return None
    last = done[-(window + 1):]
    bpms = [60_000.0 / (b - a) for a, b in zip(last, last[1:])]
    return sum(bpms) / len(bpms)


def corrupt(encoded: list[bytes], rng: np.random.Generator) -> tuple[list[bytes], list[bool], list[bytes]]:
    """Flip one byte in about FLIP_FRACTION of the frames and put random
    garbage bursts in front of some frames.

    Returns the per-frame byte segments (burst + frame), the intact flag
    of each frame, and the bursts. A flipped frame differs from its
    encoding in exactly one byte; CRC-16 catches every such change, so a
    correct decoder must drop exactly the flipped frames.
    """
    n = len(encoded)
    flipped = rng.random(n) < FLIP_FRACTION
    has_burst = rng.random(n) < 1.0 / BURST_EVERY_FRAMES
    segments: list[bytes] = []
    bursts: list[bytes] = []
    for i, raw in enumerate(encoded):
        burst = b""
        if has_burst[i]:
            size = int(rng.integers(*BURST_BYTES))
            burst = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        bursts.append(burst)
        if flipped[i]:
            pos = int(rng.integers(0, len(raw)))
            mask = int(rng.integers(1, 256))
            raw = raw[:pos] + bytes([raw[pos] ^ mask]) + raw[pos + 1:]
        segments.append(burst + raw)
    return segments, [not f for f in flipped], bursts


def split_ticks(frames, segments, interval_ms: int) -> tuple[list[bytes], list[list[int]]]:
    """Group per-frame segments into ticks by frame timestamp, the same
    cut ``VitalsPipeline.run`` makes: tick k holds frames with
    k * interval <= t < (k + 1) * interval."""
    n_ticks = frames[-1].timestamp_ms // interval_ms + 1
    members: list[list[int]] = [[] for _ in range(n_ticks)]
    for i, frame in enumerate(frames):
        members[frame.timestamp_ms // interval_ms].append(i)
    chunks = [b"".join(segments[i] for i in idx) for idx in members]
    return chunks, members


def build(workload: str, seed: int) -> Stream:
    spec = WORKLOADS[workload]
    window = spec.config().avg_window_beats  # the pipeline's rolling-average length
    base = synth.SynthProfile(true_bpm=spec.schedule, seed=seed)
    noise = _noise_std(base, 10.0)
    profile = synth.SynthProfile(true_bpm=spec.schedule, noise_std_counts=noise, seed=seed)
    frames, truth = synth.generate(profile, spec.seconds, FS_HZ)
    rng = np.random.default_rng([seed, 0x5EED])

    if spec.hostile:
        # Each spike is sized from the unspiked stream; injecting them one
        # after another would size each from the previous spikes.
        spiked = list(frames)
        for at_s, dur_s, artifact_seed in HOSTILE_SPIKES:
            at_ms, dur_ms = int(at_s * 1000), int(dur_s * 1000)
            one = synth.inject_artifacts(
                frames, synth.ArtifactKind.MOTION_SPIKE, at_ms, dur_ms, seed=artifact_seed
            )
            for i, f in enumerate(frames):
                if at_ms <= f.timestamp_ms < at_ms + dur_ms:
                    spiked[i] = one[i]
        frames = spiked
        at_s, dur_s = HOSTILE_DROPOUT_S
        frames = synth.inject_artifacts(
            frames, synth.ArtifactKind.DROPOUT, int(at_s * 1000), int(dur_s * 1000)
        )
        frames = [
            SampleFrame(f.timestamp_ms, f.red, f.ir, round(_schedule_at(HOSTILE_TEMPS, f.timestamp_ms) * 10) / 10.0)
            for f in frames
        ]

    encoded = [wire.encode_frame(f) for f in frames]
    if spec.hostile:
        segments, intact, _ = corrupt(encoded, rng)
    else:
        segments, intact = encoded, [True] * len(frames)
    chunks, members = split_ticks(frames, segments, spec.tick_interval_ms)
    tick_frames = [[frames[i] for i in idx if intact[i]] for idx in members]
    truth_bpm = [
        truth_bpm_at(truth.beat_times_ms, (k + 1) * spec.tick_interval_ms, window)
        for k in range(len(chunks))
    ]
    return Stream(
        frames=frames,
        intact=intact,
        chunks=chunks,
        tick_sizes=[len(idx) for idx in members],
        tick_frames=tick_frames,
        truth_bpm=truth_bpm,
        truth_spo2=profile.true_spo2_pct,
    )
