//! # gm-core
//!
//! The paper's contribution: low-cost first-order secure Boolean masking
//! for glitchy hardware, without fresh randomness in the AND gadget.
//!
//! * [`share`] — two-share Boolean masking of bits and words.
//! * [`rng`] — the masking/refresh randomness source, with the "PRNG off"
//!   switch used for the paper's sanity-check experiments.
//! * [`gadgets`] — software models *and* netlist generators for
//!   `secAND2` (Eq. 2), `secAND2-FF` (Fig. 2), `secAND2-PD` (Fig. 3),
//!   masked XOR/NOT, the refresh gadget (Fig. 7), and the baselines the
//!   paper compares against: Trichina's AND (Eq. 1), DOM-indep and
//!   DOM-dep.
//! * [`schedule`] — input arrival sequences (Table I) and DelayUnit
//!   schedules (Table II).
//! * [`compose`] — product trees (Fig. 4), product chains (Fig. 6), and
//!   the shared-input-register form (Fig. 5).
//! * [`analysis`] — share-dependency tracking (when must one refresh,
//!   §III-C) and the exact first-order probing oracle, stationary and
//!   glitch-extended, that decides Table I.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bitslice;
pub mod compose;
pub mod gadgets;
pub mod rng;
pub mod schedule;
pub mod share;

pub use bitslice::LaneBit;
pub use rng::MaskRng;
pub use share::{MaskedBit, MaskedWord};
