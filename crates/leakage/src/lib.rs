//! # gm-leakage
//!
//! Streaming side-channel leakage assessment: the software equivalent of
//! the paper's measurement-and-analysis pipeline (Section VII).
//!
//! * [`moments`] — numerically-stable one-pass central moments up to order
//!   six (Pébay update/merge formulas), per sample point, mergeable across
//!   threads.
//! * [`ttest`] — Welch's t-test and the univariate higher-order variants of
//!   Schneider & Moradi: order 1 (raw), order 2 (centred squares), order 3
//!   (standardised cubes). The paper reports all three per figure.
//! * [`tvla`] — the non-specific fixed-vs-random TVLA campaign harness:
//!   random class interleaving, multi-threaded acquisition (`std::thread`),
//!   checkpointed detection.
//! * [`detect`] — the ±4.5 threshold, the cross-plaintext consistency rule
//!   the paper applies in §VII-A, and a traces-to-detection estimator
//!   (how the paper arrives at "~15 M traces" style statements).
//! * [`snr`] — signal-to-noise ratio over labelled partitions.
//! * [`cpa`] — correlation power analysis, to demonstrate that detected
//!   leaks are *exploitable* (key recovery on the PRNG-off cores).
//! * [`chi2`] — χ² leakage detection: whole-histogram comparison that
//!   catches shape differences fixed-order t-tests are blind to.
//! * [`trace_io`] — CSV / compact-binary trace import & export, so the
//!   pipeline also serves traces captured on real hardware.
//! * [`report`] — ASCII rendering of t-statistic curves and CSV dumps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chi2;
pub mod cpa;
pub mod detect;
pub mod moments;
pub mod report;
pub mod snr;
pub mod trace_io;
pub mod ttest;
pub mod tvla;

pub use chi2::Chi2;
pub use cpa::Cpa;
pub use detect::{first_detection, leaks, THRESHOLD};
pub use moments::{BlockScratch, TraceMoments};
pub use snr::Snr;
pub use trace_io::TraceSet;
pub use ttest::{t_first_order, t_second_order, t_third_order};
pub use tvla::{BlockLayout, Campaign, CampaignObs, Class, TraceSource, TvlaResult, WorkerObs};
