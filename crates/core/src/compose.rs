//! The PD-style product chain (Fig. 6): a chain of `secAND2` gadgets
//! whose primary inputs pass through DelayUnits per a delay schedule, so
//! the whole product is computed in a **single** cycle. With
//! [`chain_delay_schedule`](crate::schedule::chain_delay_schedule) the
//! shares arrive in the safe order of Table II; other schedules build the
//! deliberately unsafe chains the Table II experiment contrasts it with.

use crate::gadgets::sec_and2::build_sec_and2;
use crate::gadgets::{AndInputs, AndOutputs};
use crate::schedule::ShareDelay;
use gm_netlist::{NetId, Netlist};

/// Result of building a PD-style product chain.
#[derive(Debug, Clone)]
pub struct PdChain {
    /// Output shares of the full product.
    pub out: AndOutputs,
    /// Number of `secAND2` gadgets instantiated (`n − 1`).
    pub gadgets: usize,
    /// Total delay elements inserted.
    pub delay_bufs: usize,
}

/// Build the Fig. 6 single-cycle product chain over independently-shared
/// variables. `vars[i]` is `(share0, share1)` of variable `i`; each entry
/// of `schedule` delays one share by that many `unit_luts`-element
/// DelayUnits.
///
/// # Examples
///
/// ```
/// use gm_core::compose::build_product_chain_pd;
/// use gm_core::schedule::chain_delay_schedule;
/// use gm_netlist::{NetId, Netlist};
///
/// let mut n = Netlist::new("chain");
/// let vars: Vec<(NetId, NetId)> =
///     (0..3).map(|i| (n.input(format!("v{i}s0")), n.input(format!("v{i}s1")))).collect();
/// let chain = build_product_chain_pd(&mut n, &vars, 10, &chain_delay_schedule(3));
/// assert_eq!(chain.gadgets, 2);
/// // Table II's schedule for three variables sums to 12 DelayUnits.
/// assert_eq!(chain.delay_bufs, 12 * 10);
/// ```
///
/// # Panics
///
/// Panics with fewer than two variables.
pub fn build_product_chain_pd(
    n: &mut Netlist,
    vars: &[(NetId, NetId)],
    unit_luts: usize,
    schedule: &[ShareDelay],
) -> PdChain {
    let k = vars.len();
    assert!(k >= 2, "a product needs at least two variables");
    let mut delayed: Vec<(NetId, NetId)> = vars.to_vec();
    let mut delay_bufs = 0;
    for d in schedule {
        let bufs = d.units * unit_luts;
        delay_bufs += bufs;
        let (s0, s1) = delayed[d.var];
        if d.share == 0 {
            delayed[d.var].0 = n.delay_chain(s0, bufs);
        } else {
            delayed[d.var].1 = n.delay_chain(s1, bufs);
        }
    }
    // Chain: variable 0 is the first gadget's x operand, each later
    // variable the y operand of the next gadget.
    let mut acc = delayed[0];
    for &(y0, y1) in &delayed[1..] {
        let out = build_sec_and2(n, AndInputs { x0: acc.0, x1: acc.1, y0, y1 });
        acc = (out.z0, out.z1);
    }
    PdChain { out: AndOutputs { z0: acc.0, z1: acc.1 }, gadgets: k - 1, delay_bufs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::MaskRng;
    use crate::schedule::chain_delay_schedule;
    use crate::share::MaskedBit;
    use gm_netlist::Evaluator;

    #[test]
    fn pd_chain_functional_and_sized() {
        for k in 2..=4usize {
            let mut n = Netlist::new("chain");
            let vars: Vec<(NetId, NetId)> =
                (0..k).map(|i| (n.input(format!("v{i}s0")), n.input(format!("v{i}s1")))).collect();
            let chain = build_product_chain_pd(&mut n, &vars, 2, &chain_delay_schedule(k));
            n.output("z0", chain.out.z0);
            n.output("z1", chain.out.z1);
            n.validate().unwrap();
            assert_eq!(chain.gadgets, k - 1);
            // Total units = sum of schedule units × unit_luts.
            let total_units: usize = chain_delay_schedule(k).iter().map(|d| d.units).sum();
            assert_eq!(chain.delay_bufs, 2 * total_units);

            let mut ev = Evaluator::new(&n).unwrap();
            let mut rng = MaskRng::new(84);
            for _ in 0..16 {
                let vals: Vec<bool> = (0..k).map(|_| rng.bit()).collect();
                let mut pins = Vec::new();
                for (i, &v) in vals.iter().enumerate() {
                    let b = MaskedBit::mask(v, &mut rng);
                    pins.push((vars[i].0, b.s0));
                    pins.push((vars[i].1, b.s1));
                }
                let outs = ev.run_combinational(&n, &pins);
                assert_eq!(outs[0] ^ outs[1], vals.iter().all(|&v| v), "k={k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two variables")]
    fn single_variable_chain_panics() {
        let mut n = Netlist::new("c");
        let v = (n.input("a0"), n.input("a1"));
        let _ = build_product_chain_pd(&mut n, &[v], 2, &[]);
    }
}
