//! Security analysis tooling for masked circuits.
//!
//! * [`deps`] — conservative share-dependency tracking over masked
//!   expressions: flags compositions that XOR dependent sharings without
//!   a refresh (§III-C's rule, mechanised).
//! * [`probing`] — the exact first-order probing oracle: runs every
//!   share assignment of a gadget netlist through the event simulator
//!   under an arrival schedule and fixed delays, and flags any wire whose
//!   settled value (stationary) or toggle count (glitch-extended)
//!   depends on the unshared inputs. This is the mechanism behind
//!   Table I.

pub mod deps;
pub mod probing;

pub use deps::{CompositionError, MaskedExpr};
pub use probing::{probe_check, Arrival, Drive, ProbeReport, Violation};
