//! The paper's masked AND gadgets, as netlist generators.
//!
//! [`mod@sec_and2`] (the randomness-free AND, Eq. 2) is the one gadget
//! with a software model as well: the scalar masked S-box evaluates it,
//! and the netlists and the bitsliced lanes are checked against it. Its hardened
//! forms differ only in timing, so they exist only as netlists:
//! [`sec_and2_ff`] (internal flip-flop, Fig. 2) and [`sec_and2_pd`]
//! (path-delayed inputs, Fig. 3).
//!
//! [`trichina`] (Eq. 1) is the baseline the paper opens with; its netlist
//! is a fixture of the probing oracle.

pub mod sec_and2;
pub mod sec_and2_ff;
pub mod sec_and2_pd;
pub mod trichina;

pub use sec_and2::{build_sec_and2, sec_and2};
pub use sec_and2_ff::build_sec_and2_ff;
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
