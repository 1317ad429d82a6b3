//! Property-based tests for the masking core: `secAND2` computes the
//! right value for *every* sharing, the product chain stays correct, and
//! the netlist generator agrees with the software model.

use gm_core::compose::build_product_chain_pd;
use gm_core::gadgets::sec_and2::{build_sec_and2, sec_and2};
use gm_core::gadgets::AndInputs;
use gm_core::schedule::chain_delay_schedule;
use gm_core::{MaskRng, MaskedBit, MaskedWord};
use gm_netlist::{Evaluator, NetId, Netlist};
use proptest::prelude::*;

fn masked_bit() -> impl Strategy<Value = MaskedBit> {
    (any::<bool>(), any::<bool>()).prop_map(|(s0, s1)| MaskedBit { s0, s1 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `secAND2` agrees with plain AND for any sharing.
    #[test]
    fn every_and_gadget_is_correct(x in masked_bit(), y in masked_bit()) {
        prop_assert_eq!(sec_and2(x, y).unmask(), x.unmask() & y.unmask());
    }

    /// Refresh never changes the value, for any mask bit.
    #[test]
    fn refresh_value_preserving(b in masked_bit(), m in any::<bool>()) {
        prop_assert_eq!(b.refresh_with(m).unmask(), b.unmask());
    }

    /// MaskedWord XOR/permute/bit extraction are consistent with u64
    /// semantics.
    #[test]
    fn masked_word_semantics(v in any::<u64>(), w in any::<u64>(), seed in any::<u64>(), width in 1u32..=64) {
        let mut rng = MaskRng::new(seed);
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let a = MaskedWord::mask(v & mask, width, &mut rng);
        let b = MaskedWord::mask(w & mask, width, &mut rng);
        prop_assert_eq!(a.unmask(), v & mask);
        prop_assert_eq!(a.xor(b).unmask(), (v ^ w) & mask);
        for i in 0..width.min(8) {
            prop_assert_eq!(a.bit(i).unmask(), (v >> i) & 1 == 1);
        }
        prop_assert_eq!(a.refresh(&mut rng).unmask(), v & mask);
    }

    /// The secAND2 netlist equals the model for any sharing (exhaustive
    /// inputs are covered by unit tests; this crosses with random
    /// generated netlist instances in fresh arenas).
    #[test]
    fn netlist_matches_model(x in masked_bit(), y in masked_bit()) {
        let mut n = Netlist::new("p");
        let io = AndInputs {
            x0: n.input("x0"),
            x1: n.input("x1"),
            y0: n.input("y0"),
            y1: n.input("y1"),
        };
        let out = build_sec_and2(&mut n, io);
        n.output("z0", out.z0);
        n.output("z1", out.z1);
        let mut ev = Evaluator::new(&n).unwrap();
        let outs = ev.run_combinational(
            &n,
            &[(io.x0, x.s0), (io.x1, x.s1), (io.y0, y.s0), (io.y1, y.s1)],
        );
        let want = sec_and2(x, y);
        prop_assert_eq!((outs[0], outs[1]), (want.s0, want.s1));
    }

    /// PD chains of any width compute the product (zero-delay check).
    #[test]
    fn pd_chain_any_width(vals in prop::collection::vec(any::<bool>(), 2..6), seed in any::<u64>(), unit in 1usize..4) {
        let mut n = Netlist::new("chain");
        let vars: Vec<(NetId, NetId)> = (0..vals.len())
            .map(|i| (n.input(format!("a{i}")), n.input(format!("b{i}"))))
            .collect();
        let chain = build_product_chain_pd(&mut n, &vars, unit, &chain_delay_schedule(vals.len()));
        n.output("z0", chain.out.z0);
        n.output("z1", chain.out.z1);
        let mut rng = MaskRng::new(seed);
        let mut ev = Evaluator::new(&n).unwrap();
        let mut pins = Vec::new();
        for (i, &v) in vals.iter().enumerate() {
            let b = MaskedBit::mask(v, &mut rng);
            pins.push((vars[i].0, b.s0));
            pins.push((vars[i].1, b.s1));
        }
        let outs = ev.run_combinational(&n, &pins);
        prop_assert_eq!(outs[0] ^ outs[1], vals.iter().all(|&v| v));
    }

    /// Masking with an enabled RNG yields uniform share 0 (statistical
    /// smoke at the property level: both share values occur).
    #[test]
    fn masking_uses_randomness(seed in any::<u64>()) {
        let mut rng = MaskRng::new(seed);
        let shares: Vec<bool> =
            (0..64).map(|_| MaskedBit::mask(true, &mut rng).s0).collect();
        prop_assert!(shares.iter().any(|&s| s));
        prop_assert!(shares.iter().any(|&s| !s));
    }
}
