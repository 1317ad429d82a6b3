//! # gm-bench
//!
//! Shared helpers for the table/figure regeneration binaries. Each
//! evaluation artefact of the paper has its own binary:
//!
//! | Artefact | Binary |
//! |---|---|
//! | Table I (safe input sequences) | `table1` |
//! | Table II (delay sequences) | `table2` |
//! | Table III (utilisation) | `table3` |
//! | Fig. 13 (power trace, FF core) | `fig13` |
//! | Fig. 14 (TVLA, FF core) | `fig14` |
//! | Fig. 15 (DelayUnit sweep) | `fig15` |
//! | Fig. 16 (power trace, PD core) | `fig16` |
//! | Fig. 17 (TVLA, PD core) | `fig17` |
//!
//! Beyond the paper:
//!
//! | Artefact | Binary |
//! |---|---|
//! | Design-decision ablations (refresh, recycling, reset) | `ablations` |
//! | CPA key recovery (orders 1 and 2) | `cpa_attack` |
//! | Fig. 15 mechanism at gate level (placement lottery) | `fig15_gate` |
//! | Per-module glitch census of both cores | `glitch_census` |
//! | SNR vs. gadget replication | `snr_replication` |
//! | Leak-model calibration sweep | `calibrate` |
//! | Campaign throughput and per-layer cost (the repository benchmark) | `benchmark` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod gate;
pub mod json;
pub mod metrics;
pub mod panel;

pub use cli::Args;
pub use metrics::MetricsSink;
