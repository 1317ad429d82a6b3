//! # gm-sim
//!
//! Event-driven **transport-delay** simulation of `gm-netlist` circuits,
//! faithful enough to reproduce the glitch phenomena the paper builds on.
//!
//! This crate is the software stand-in for the paper's physical platform
//! (Spartan-6 FPGA + oscilloscope):
//!
//! * [`delay`] — per-gate-instance delays: nominal cell delay × process
//!   variation, plus per-event jitter. Unequal arrival times are the *only*
//!   source of glitches, exactly as in hardware.
//! * [`engine`] — the event queue. Every input edge re-evaluates the fan-out
//!   cone; a gate whose inputs settle at different moments emits the full
//!   glitch train, not just the final value.
//! * [`power`] — capacitance-weighted toggle counting into time bins: the
//!   standard dynamic-power proxy, playing the role of the shunt-resistor
//!   measurement on the SAKURA-G board.
//! * [`sched`] — the compiled-schedule backend: levelizes the event
//!   cascade once per trace-set and sweeps it for 64 traces at a time,
//!   falling back to the dynamic engine for the rare jitter-divergent
//!   lanes; [`LaneSweep`] is the acquisition loop every gate-level trace
//!   source runs.
//! * [`noise`] — amplifier gain, Gaussian noise, and ADC quantisation, so
//!   traces look like the "raw oscilloscope ADC output" of Fig. 13/16.
//! * [`coupling`] — a Miller-capacitance model of crosstalk between
//!   designated (long) nets, the physical effect the paper blames for the
//!   residual first-order leakage of the secAND2-PD core (§VII-C).
//! * [`clocked`] — a multi-cycle harness that drives flip-flops, applies
//!   per-cycle stimuli with configurable intra-cycle arrival offsets, and
//!   produces one power trace per run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clocked;
pub mod coupling;
pub mod delay;
pub mod engine;
pub mod noise;
pub mod power;
pub mod sched;
pub mod vcd;
pub mod waveform;
pub mod wheel;

pub use clocked::ClockedCore;
pub use coupling::{CouplingModel, CouplingSink};
pub use delay::{DelayModel, JitterTile, TILE};
pub use engine::{PowerSink, SimCore, SimGraph, SimStats};
pub use noise::MeasurementModel;
pub use power::{
    CountingSink, LaneBinTrace, LaneCounting, LaneEnergy, LaneSink, NullSink, PackStats, PowerTrace,
};
pub use sched::{CompiledSchedule, LaneSweep, SchedRunner, SchedStats, LANES};
pub use vcd::VcdSink;
pub use waveform::WaveformRecorder;
pub use wheel::{TimingWheel, WheelStats};
