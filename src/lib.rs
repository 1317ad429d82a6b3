//! # glitchmask
//!
//! Facade crate for the `glitchmask` workspace — a from-scratch Rust
//! reproduction of *"Low-Cost First-Order Secure Boolean Masking in Glitchy
//! Hardware"* (DATE 2023).
//!
//! The heavy lifting lives in the member crates, re-exported here:
//!
//! * [`netlist`] — gate-level IR, area model, static timing analysis;
//! * [`sim`] — event-driven transport-delay simulator with glitch-accurate
//!   waveforms, power model, noise, and coupling;
//! * [`leakage`] — streaming TVLA (Welch t-tests of orders 1–3), SNR, and
//!   leak detection;
//! * [`masking`] — the paper's contribution: `secAND2`, `secAND2-FF`,
//!   `secAND2-PD`, the single-cycle PD product chain with its delay
//!   schedules, and the exact probing oracle;
//! * [`des`] — reference DES and the two first-order masked DES cores.
//!
//! See `examples/quickstart.rs` for a guided tour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gm_core as masking;
pub use gm_des as des;
pub use gm_leakage as leakage;
pub use gm_netlist as netlist;
pub use gm_sim as sim;
