//! Security analysis tooling for masked circuits.
//!
//! * [`deps`] — conservative share-dependency tracking over masked
//!   expressions: flags compositions that XOR dependent sharings without
//!   a refresh (§III-C's rule, mechanised).
//! * [`probing`] — exhaustive *stationary* first-order probing check of a
//!   gadget netlist: every wire's distribution must be independent of the
//!   unshared inputs.
//! * [`glitch_model`] — Monte-Carlo **glitch-extended** check: drives a
//!   gadget netlist through the event simulator under a chosen arrival
//!   schedule and measures whether any wire's expected *toggle count*
//!   depends on unshared values. This is the mechanism behind Table I.

pub mod deps;
pub mod glitch_model;
pub mod probing;

pub use deps::{CompositionError, MaskedExpr};
pub use glitch_model::{glitch_probe, GlitchProbeReport};
pub use probing::{probe_check, ProbeReport};
