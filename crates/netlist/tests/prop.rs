//! Property-based tests for the netlist IR: random circuit construction
//! never breaks structural invariants, and evaluation semantics are
//! consistent across the builder helpers.

use gm_netlist::{Evaluator, GateKind, NetId, Netlist};
use proptest::prelude::*;

/// A recipe for one random combinational gate over existing nets.
#[derive(Debug, Clone)]
enum GateRecipe {
    Unary(u8, usize),
    Binary(u8, usize, usize),
    Mux(usize, usize, usize),
}

fn recipe_strategy() -> impl Strategy<Value = GateRecipe> {
    prop_oneof![
        (0u8..3, any::<usize>()).prop_map(|(k, a)| GateRecipe::Unary(k, a)),
        (0u8..6, any::<usize>(), any::<usize>()).prop_map(|(k, a, b)| GateRecipe::Binary(k, a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>())
            .prop_map(|(s, a, b)| GateRecipe::Mux(s, a, b)),
    ]
}

/// Build a random DAG: every gate consumes already-existing nets, so the
/// result is acyclic by construction.
fn build(recipes: &[GateRecipe], num_inputs: usize) -> (Netlist, Vec<NetId>) {
    let mut n = Netlist::new("prop");
    let inputs: Vec<NetId> = (0..num_inputs).map(|i| n.input(format!("i{i}"))).collect();
    let mut nets = inputs.clone();
    for r in recipes {
        let pick = |i: usize| nets[i % nets.len()];
        let out = match *r {
            GateRecipe::Unary(k, a) => {
                let a = pick(a);
                match k {
                    0 => n.inv(a),
                    1 => n.buf(a),
                    _ => n.delay_buf(a),
                }
            }
            GateRecipe::Binary(k, a, b) => {
                let (a, b) = (pick(a), pick(b));
                match k {
                    0 => n.and2(a, b),
                    1 => n.nand2(a, b),
                    2 => n.or2(a, b),
                    3 => n.nor2(a, b),
                    4 => n.xor2(a, b),
                    _ => n.xnor2(a, b),
                }
            }
            GateRecipe::Mux(s, a, b) => {
                let (s, a, b) = (pick(s), pick(a), pick(b));
                n.mux2(s, a, b)
            }
        };
        nets.push(out);
    }
    let last = *nets.last().unwrap();
    n.output("o", last);
    (n, inputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any bottom-up construction validates and evaluates.
    #[test]
    fn random_dags_validate_and_evaluate(
        recipes in prop::collection::vec(recipe_strategy(), 1..60),
        num_inputs in 1usize..6,
        bits in any::<u64>(),
    ) {
        let (n, inputs) = build(&recipes, num_inputs);
        prop_assert!(n.validate().is_ok());
        let mut ev = Evaluator::new(&n).unwrap();
        for (i, &net) in inputs.iter().enumerate() {
            ev.set_input(net, (bits >> i) & 1 == 1);
        }
        ev.settle(&n);
        // Settling twice is idempotent.
        let out = n.outputs()[0].1;
        let v1 = ev.value(out);
        ev.settle(&n);
        prop_assert_eq!(ev.value(out), v1);
    }

    /// xor_reduce equals the sequential fold regardless of tree shape.
    #[test]
    fn xor_reduce_matches_fold(values in prop::collection::vec(any::<bool>(), 1..24)) {
        let mut n = Netlist::new("xr");
        let nets: Vec<NetId> =
            (0..values.len()).map(|i| n.input(format!("i{i}"))).collect();
        let out = n.xor_reduce(&nets);
        n.output("o", out);
        let mut ev = Evaluator::new(&n).unwrap();
        for (net, &v) in nets.iter().zip(&values) {
            ev.set_input(*net, v);
        }
        ev.settle(&n);
        let want = values.iter().fold(false, |acc, &v| acc ^ v);
        prop_assert_eq!(ev.value(out), want);
        // A balanced tree has logarithmic depth.
        let depth = gm_netlist::stats::max_depth(&n).unwrap();
        prop_assert!(depth <= values.len().next_power_of_two().trailing_zeros() as usize + 1);
    }

    /// Area reports are additive: building the same gates twice doubles
    /// the GE total of the gate part.
    #[test]
    fn area_is_additive(recipes in prop::collection::vec(recipe_strategy(), 1..30)) {
        let (n1, _) = build(&recipes, 3);
        let doubled: Vec<GateRecipe> =
            recipes.iter().chain(recipes.iter()).cloned().collect();
        let (n2, _) = build(&doubled, 3);
        let a1 = gm_netlist::area::report(&n1);
        let a2 = gm_netlist::area::report(&n2);
        prop_assert!((a2.total_ge - 2.0 * a1.total_ge).abs() < 1e-9);
    }

    /// STA arrival times are monotone along every gate's input→output.
    #[test]
    fn sta_arrival_monotone(recipes in prop::collection::vec(recipe_strategy(), 1..40)) {
        let (n, _) = build(&recipes, 4);
        let t = gm_netlist::timing::analyze(&n).unwrap();
        for g in n.gates() {
            if g.kind.is_sequential() {
                continue;
            }
            let out_t = t.arrival_ps[g.output.index()];
            for &i in &g.inputs {
                prop_assert!(
                    out_t >= t.arrival_ps[i.index()] + g.kind.nominal_delay_ps(),
                    "gate output must be later than every input"
                );
            }
        }
    }

    /// DFF pin-count bookkeeping survives arbitrary configs.
    #[test]
    fn dff_configs(d in any::<bool>(), en in any::<bool>(), rst in any::<bool>(), q0 in any::<bool>()) {
        let cfg = gm_netlist::DffConfig { has_enable: true, has_reset: true };
        let kind = GateKind::Dff(cfg);
        let next = kind.dff_next(q0, &[d, en, rst]);
        let expect = if rst { false } else if en { d } else { q0 };
        prop_assert_eq!(next, expect);
    }
}
