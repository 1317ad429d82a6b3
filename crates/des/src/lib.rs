//! # gm-des
//!
//! The paper's case study: the Data Encryption Standard, both as a plain
//! reference encryption and as two first-order masked encryption cores
//! built from the `gm-core` gadgets:
//!
//! * [`mod@reference`] — byte-exact DES encryption with the official
//!   tables and NIST test vectors.
//! * [`sbox`] — the paper's S-box decomposition: each of the eight S-boxes
//!   as four 4-bit *mini S-boxes* (rows) plus a masked 4:1 MUX, with ANF
//!   extraction (Möbius transform) verifying the structural claims of
//!   §IV-A (degree ≤ 3, ten shared product terms).
//! * [`masked`] — the two DES cores: `core_ff` (secAND2-FF, 7 cycles per
//!   round) and `core_pd` (secAND2-PD, 2 cycles per round), both with the
//!   masked key schedule and the 14-fresh-bits-per-round refresh budget.
//! * [`netlist_gen`] — full gate-level netlists of both cores for the
//!   Table III utilisation numbers and gate-level leakage simulation.
//! * [`power`] — the fast cycle-accurate power model used for large
//!   TVLA campaigns (cross-validated against the event simulator).
//! * [`tvla_src`] — `gm_leakage::TraceSource` adapters over both the
//!   cycle model and the gate-level netlists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod masked;
pub mod netlist_gen;
pub mod power;
pub mod reference;
pub mod sbox;
pub mod tables;
pub mod tvla_src;

pub use reference::Des;
