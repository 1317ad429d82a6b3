//! # gm-netlist
//!
//! Gate-level netlist intermediate representation used by every other crate
//! in the `glitchmask` workspace.
//!
//! The crate models the two implementation targets of the paper:
//!
//! * an **ASIC**-flavoured view: every gate carries an area weight in gate
//!   equivalents (GE, NAND2 = 1.0) loosely calibrated against the
//!   NanGate 45 nm Open Cell Library that the paper synthesises with, and
//! * an **FPGA**-flavoured view: a LUT-packing estimate plus a dedicated
//!   [`GateKind::DelayBuf`] cell that corresponds to the paper's
//!   "LUT wired as a buffer" delay element (Section V).
//!
//! On top of the IR the crate provides:
//!
//! * a hierarchical [`Netlist`] builder with module scoping,
//! * structural validation (single driver per net, no combinational loops),
//! * zero-delay functional evaluation ([`eval`]) for correctness testing,
//! * static timing analysis ([`timing`]) giving critical paths and maximum
//!   clock frequency (Table III's "Max Freq." column), and
//! * area reporting ([`area`]) giving GE totals and FF/LUT counts
//!   (Table III's "ASIC \[GEs\]" and "FPGA \[FF/LUT\]" columns).
//!
//! The event-driven glitch simulator in `gm-sim` executes these netlists
//! with real transport delays; this crate itself is timing-model agnostic
//! beyond the per-kind nominal delays in [`GateKind::nominal_delay_ps`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod csr;
pub mod error;
pub mod eval;
pub mod gate;
pub mod netlist;
pub mod opt;
pub mod stats;
pub mod timing;
pub mod topo;
pub mod verilog;

pub use area::AreaReport;
pub use csr::Csr;
pub use error::NetlistError;
pub use eval::Evaluator;
pub use gate::{DffConfig, Gate, GateId, GateKind};
pub use netlist::{NetId, Netlist};
pub use opt::{optimize, OptOptions, OptStats};
pub use timing::TimingReport;
pub use verilog::to_verilog;
