//! The two first-order masked DES cores.
//!
//! * [`key_schedule`] — the masked key schedule (all linear: PC1,
//!   rotations, PC2 applied per share), running alongside the datapath.
//! * [`datapath`] — the shared value-level round function: expansion,
//!   key mix, eight masked S-boxes fed by the same 14 fresh bits,
//!   P-permutation, Feistel combine.
//! * [`core_ff`] — the secAND2-FF core: 7 cycles per round
//!   (115 cycles per block), input/output S-box registers, FSM-controlled
//!   enables (Fig. 8).
//! * [`core_pd`] — the secAND2-PD core: 2 cycles per round, the S-box
//!   output wired straight into the input register (Fig. 9).
//!
//! The cycle-accurate cores also expose per-cycle register snapshots so
//! the fast power model in [`crate::power`] can derive Hamming-distance
//! traces without gate-level simulation; the gate-level path lives in
//! [`crate::netlist_gen`].

pub mod bitslice;
pub mod core_ff;
pub mod core_pd;
pub mod datapath;
pub mod key_schedule;

pub use bitslice::BitslicedDes;
pub use core_ff::MaskedDesFf;
pub use core_pd::MaskedDesPd;
pub use datapath::MaskedDes;
pub use key_schedule::MaskedKeySchedule;
