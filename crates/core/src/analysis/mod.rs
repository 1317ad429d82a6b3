//! Security analysis tooling for masked circuits.
//!
//! [`probing`] is the exact first-order probing oracle: it runs every
//! share assignment of a gadget netlist through the event simulator under
//! an arrival schedule and fixed delays, and flags any wire whose settled
//! value (stationary) or toggle count (glitch-extended) depends on the
//! unshared inputs. This is the mechanism behind Table I.

pub mod probing;

pub use probing::{probe_check, Arrival, Drive, ProbeReport, Violation};
