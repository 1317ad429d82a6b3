//! Masked gadgets: software models and netlist generators.
//!
//! Every gadget comes in two forms:
//!
//! 1. a **software model** operating on [`crate::MaskedBit`]s — used for
//!    functional verification and for the fast cycle-accurate DES cores;
//! 2. a **netlist generator** emitting `gm-netlist` gates — used for area
//!    and timing (Table III) and for gate-level glitch simulation.
//!
//! The paper’s gadgets: [`mod@sec_and2`] (the randomness-free AND, Eq. 2),
//! [`sec_and2_ff`] (internal flip-flop, Fig. 2), [`sec_and2_pd`]
//! (path-delayed inputs, Fig. 3), plus [`xor`]/[`refresh`] linear gadgets.
//!
//! Baselines the paper measures against: [`trichina`] (Eq. 1) and
//! [`dom`] (DOM-indep and DOM-dep).

pub mod dom;
pub mod refresh;
pub mod sec_and2;
pub mod sec_and2_ff;
pub mod sec_and2_pd;
pub mod trichina;
pub mod xor;

pub use sec_and2::{build_sec_and2, sec_and2};
pub use sec_and2_ff::{build_sec_and2_ff, SecAnd2Ff};
pub use sec_and2_pd::{build_sec_and2_pd, PdConfig};

use gm_netlist::NetId;

/// The four nets of one masked operand pair `(x₀, x₁, y₀, y₁)` feeding an
/// AND gadget netlist.
#[derive(Debug, Clone, Copy)]
pub struct AndInputs {
    /// Share 0 of `x`.
    pub x0: NetId,
    /// Share 1 of `x`.
    pub x1: NetId,
    /// Share 0 of `y`.
    pub y0: NetId,
    /// Share 1 of `y`.
    pub y1: NetId,
}

/// The two output-share nets of an AND gadget netlist.
#[derive(Debug, Clone, Copy)]
pub struct AndOutputs {
    /// Share 0 of `z = x·y`.
    pub z0: NetId,
    /// Share 1 of `z`.
    pub z1: NetId,
}
