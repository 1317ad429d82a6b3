//! # gm-core
//!
//! The paper's contribution: low-cost first-order secure Boolean masking
//! for glitchy hardware, without fresh randomness in the AND gadget.
//!
//! * [`share`] — two-share Boolean masking of bits and words.
//! * [`rng`] — the masking/refresh randomness source, with the "PRNG off"
//!   switch used for the paper's sanity-check experiments.
//! * [`gadgets`] — netlist generators for `secAND2` (Eq. 2),
//!   `secAND2-FF` (Fig. 2) and `secAND2-PD` (Fig. 3), `secAND2`'s
//!   software model, and two probing fixtures: Trichina's AND (Eq. 1)
//!   and the insecure classical AND.
//! * [`bitslice`] — the share algebra and `secAND2` on 256-lane words,
//!   for the bitsliced cycle model.
//! * [`schedule`] — input arrival sequences (Table I) and DelayUnit
//!   schedules (Table II).
//! * [`compose`] — the single-cycle PD product chain (Fig. 6).
//! * [`analysis`] — the exact first-order probing oracle, stationary and
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
