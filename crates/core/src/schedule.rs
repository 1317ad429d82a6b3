//! Input arrival sequences and DelayUnit schedules.
//!
//! §II-B: the order in which the four shares reach a `secAND2` decides
//! whether glitches can leak. This module enumerates the 24 sequences of
//! Table I and encodes the analytic safety rule derived there, plus the
//! generalised chain delay schedules of Table II.

use crate::analysis::Drive;

/// One of the four input shares of a 2-input masked AND gadget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputShare {
    /// Share 0 of operand `x`.
    X0,
    /// Share 1 of operand `x`.
    X1,
    /// Share 0 of operand `y`.
    Y0,
    /// Share 1 of operand `y`.
    Y1,
}

impl InputShare {
    /// All four shares in canonical order.
    pub const ALL: [InputShare; 4] =
        [InputShare::X0, InputShare::X1, InputShare::Y0, InputShare::Y1];

    /// True for `x₀`/`x₁`.
    pub fn is_x(self) -> bool {
        matches!(self, InputShare::X0 | InputShare::X1)
    }

    /// What this share carries in a probing-oracle schedule
    /// ([`crate::analysis::probing`]): `x` is variable 0, `y` variable 1.
    pub fn drive(self) -> Drive {
        let (var, share) = match self {
            InputShare::X0 => (0, 0),
            InputShare::X1 => (0, 1),
            InputShare::Y0 => (1, 0),
            InputShare::Y1 => (1, 1),
        };
        Drive::Share { var, share }
    }
}

impl std::fmt::Display for InputShare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InputShare::X0 => "x0",
            InputShare::X1 => "x1",
            InputShare::Y0 => "y0",
            InputShare::Y1 => "y1",
        };
        f.write_str(s)
    }
}

/// An order in which the four shares arrive, one per clock cycle.
pub type ArrivalSequence = [InputShare; 4];

/// All `4! = 24` arrival sequences, in lexicographic order of
/// [`InputShare::ALL`] indices — the experiment space of Table I.
pub fn all_sequences() -> Vec<ArrivalSequence> {
    let mut out = Vec::with_capacity(24);
    let items = InputShare::ALL;
    for a in 0..4 {
        for b in 0..4 {
            if b == a {
                continue;
            }
            for c in 0..4 {
                if c == a || c == b {
                    continue;
                }
                let d = 6 - a - b - c;
                out.push([items[a], items[b], items[c], items[d]]);
            }
        }
    }
    out
}

/// Table I's analytic rule: a sequence leaks **iff `x₀` or `x₁` arrives
/// last**.
///
/// Derivation (§II-B): `secAND2` is not non-complete in `y` — both `z`
/// equations contain `y₀` *and* `y₁`. Starting from all-zero registers,
/// if e.g. `x₀` arrives last and is 1, the output XOR toggles from `¬y₁`
/// to `y₀ ⊕ 1`, a Hamming distance of `y₀ ⊕ y₁ = y`: a glitch there
/// exposes the unshared `y`. If instead `y₀`/`y₁` arrives last, only one
/// gate input changes in the final cycle, every wire toggles at most once
/// (no glitches are possible), and no earlier cycle ever holds both
/// shares of either operand in combinable form.
pub fn predicted_leaky(seq: &ArrivalSequence) -> bool {
    seq[3].is_x()
}

/// DelayUnit assignment for one share in a product chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareDelay {
    /// Which variable of the product (0-based; variable 0 is the chain's
    /// first `x` operand).
    pub var: usize,
    /// Which share (0 or 1).
    pub share: u8,
    /// Delay in DelayUnits.
    pub units: usize,
}

/// The generalised Table II schedule for a chain product of `k`
/// independently-shared variables computed by `k−1` `secAND2-PD` gadgets
/// in a single cycle:
///
/// ```text
/// v_{k−1}.s0 → … → v₁.s0 → v₀.s0, v₀.s1 → v₁.s1 → … → v_{k−1}.s1
/// delay:   0          k−2     k−1    k−1      k            2k−2
/// ```
///
/// For `k = 2` this is Fig. 3 (`y₀ → x₀,x₁ → y₁`); for `k = 3, 4` it is
/// exactly Table II.
///
/// # Panics
///
/// Panics when `k < 2`.
pub fn chain_delay_schedule(k: usize) -> Vec<ShareDelay> {
    assert!(k >= 2, "a product needs at least two variables");
    let mut out = Vec::with_capacity(2 * k);
    // Variable 0 plays the x role: both shares mid-sequence.
    out.push(ShareDelay { var: 0, share: 0, units: k - 1 });
    out.push(ShareDelay { var: 0, share: 1, units: k - 1 });
    for v in 1..k {
        out.push(ShareDelay { var: v, share: 0, units: k - 1 - v });
        out.push(ShareDelay { var: v, share: 1, units: k - 1 + v });
    }
    out
}

/// Largest delay (in DelayUnits) used by [`chain_delay_schedule`]:
/// `2k − 2`. Determines the PD critical path.
pub fn chain_max_units(k: usize) -> usize {
    2 * k - 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn twenty_four_distinct_sequences() {
        let seqs = all_sequences();
        assert_eq!(seqs.len(), 24);
        let distinct: HashSet<_> = seqs.iter().map(|s| format!("{s:?}")).collect();
        assert_eq!(distinct.len(), 24);
        for s in &seqs {
            let shares: HashSet<_> = s.iter().collect();
            assert_eq!(shares.len(), 4, "every share exactly once");
        }
    }

    #[test]
    fn exactly_half_the_sequences_leak() {
        let leaky = all_sequences().iter().filter(|s| predicted_leaky(s)).count();
        assert_eq!(leaky, 12, "12 sequences end in x0/x1");
    }

    #[test]
    fn table_ii_product_of_three() {
        // c0 → b0 → a0,a1 → b1 → c1 with delays 0,1,2,2,3,4.
        let s = chain_delay_schedule(3);
        let get = |var, share| s.iter().find(|d| d.var == var && d.share == share).unwrap().units;
        assert_eq!(get(2, 0), 0); // c0
        assert_eq!(get(1, 0), 1); // b0
        assert_eq!(get(0, 0), 2); // a0
        assert_eq!(get(0, 1), 2); // a1
        assert_eq!(get(1, 1), 3); // b1
        assert_eq!(get(2, 1), 4); // c1
        assert_eq!(chain_max_units(3), 4);
    }

    #[test]
    fn table_ii_product_of_four() {
        // d0 → c0 → b0 → a0,a1 → b1 → c1 → d1: 0,1,2,3,3,4,5,6.
        let s = chain_delay_schedule(4);
        let get = |var, share| s.iter().find(|d| d.var == var && d.share == share).unwrap().units;
        assert_eq!(get(3, 0), 0);
        assert_eq!(get(2, 0), 1);
        assert_eq!(get(1, 0), 2);
        assert_eq!(get(0, 0), 3);
        assert_eq!(get(0, 1), 3);
        assert_eq!(get(1, 1), 4);
        assert_eq!(get(2, 1), 5);
        assert_eq!(get(3, 1), 6);
        assert_eq!(chain_max_units(4), 6);
    }

    #[test]
    fn two_variable_schedule_matches_fig3() {
        let s = chain_delay_schedule(2);
        let get = |var, share| s.iter().find(|d| d.var == var && d.share == share).unwrap().units;
        assert_eq!(get(1, 0), 0); // y0 undelayed
        assert_eq!(get(0, 0), 1); // x0
        assert_eq!(get(0, 1), 1); // x1
        assert_eq!(get(1, 1), 2); // y1 last
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn degenerate_product_panics() {
        let _ = chain_delay_schedule(1);
    }
}
