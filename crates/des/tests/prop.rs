//! Property-based tests for the DES crate: cipher correctness under
//! arbitrary keys/plaintexts, table structure, and masked-domain
//! equivalence.

use gm_core::MaskRng;
use gm_des::masked::{MaskedDes, MaskedDesFf, MaskedDesPd};
use gm_des::reference::{round_keys, Des};
use gm_des::sbox::anf::Anf4;
use gm_des::tables::{permute, rotl, E, FP, IP, P, PC1};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The complementation property E_{!k}(!p) = !E_k(p).
    #[test]
    fn complementation(key in any::<u64>(), pt in any::<u64>()) {
        let a = Des::new(key).encrypt_block(pt);
        let b = Des::new(!key).encrypt_block(!pt);
        prop_assert_eq!(b, !a);
    }

    /// Both masked cores equal the reference for any key/pt/mask stream.
    #[test]
    fn masked_cores_equal_reference(key in any::<u64>(), pt in any::<u64>(), seed in any::<u64>()) {
        let want = Des::new(key).encrypt_block(pt);
        let mut rng = MaskRng::new(seed);
        prop_assert_eq!(MaskedDes::new(key).encrypt_block(pt, &mut rng), want);
        prop_assert_eq!(MaskedDesFf::new(key).encrypt_with_cycles(pt, &mut rng).0, want);
        prop_assert_eq!(MaskedDesPd::new(key).encrypt_with_cycles(pt, &mut rng).0, want);
    }

    /// Key parity bits never influence the ciphertext.
    #[test]
    fn parity_bits_ignored(key in any::<u64>(), pt in any::<u64>(), parity in any::<u8>()) {
        // Spread the 8 parity flips over the 8 LSBs of each key byte.
        let mut flipped = key;
        for byte in 0..8 {
            if parity & (1 << byte) != 0 {
                flipped ^= 1u64 << (8 * byte);
            }
        }
        prop_assert_eq!(
            Des::new(key).encrypt_block(pt),
            Des::new(flipped).encrypt_block(pt)
        );
    }

    /// FP inverts IP on arbitrary words, and E/P/PC1 stay in range.
    #[test]
    fn permutation_structure(v in any::<u64>()) {
        prop_assert_eq!(permute(permute(v, 64, &IP), 64, &FP), v);
        prop_assert!(permute(v, 32, &E) < (1u64 << 48));
        prop_assert!(permute(v & 0xFFFF_FFFF, 32, &P) < (1u64 << 32));
        prop_assert!(permute(v, 64, &PC1) < (1u64 << 56));
    }

    /// rotl is periodic with the word width.
    #[test]
    fn rotl_period(v in any::<u64>(), by in 0u32..28) {
        let w = v & 0x0FFF_FFFF;
        let mut r = w;
        for _ in 0..28 {
            r = rotl(r, 28, 1);
        }
        prop_assert_eq!(r, w);
        // rotating by `by` equals `by` single rotations
        let mut step = w;
        for _ in 0..by {
            step = rotl(step, 28, 1);
        }
        if by > 0 {
            prop_assert_eq!(rotl(w, 28, by), step);
        }
    }

    /// Round keys accumulate 28 rotations total: the C/D halves return
    /// to their PC1 state after the 16th round.
    #[test]
    fn key_schedule_returns_home(key in any::<u64>()) {
        let _ = round_keys(key); // must not panic for any key
        let pc1 = permute(key, 64, &PC1);
        let mut c = (pc1 >> 28) & 0x0FFF_FFFF;
        for s in gm_des::tables::SHIFTS {
            c = rotl(c, 28, u32::from(s));
        }
        prop_assert_eq!(c, (pc1 >> 28) & 0x0FFF_FFFF);
    }

    /// ANF round-trips arbitrary 4-bit truth tables.
    #[test]
    fn anf_roundtrip(tt in any::<u16>()) {
        prop_assert_eq!(Anf4::from_truth_table(tt).truth_table(), tt);
    }

    /// Degree-0/1 functions are exactly the affine ones.
    #[test]
    fn anf_degree_one_is_affine(c in any::<bool>(), m in 0u8..16) {
        // f = c ⊕ XOR of variables in m.
        let tt = (0..16u16).fold(0u16, |tt, x| {
            let v = (x as u8 & m).count_ones() % 2 == 1;
            tt | (u16::from(v ^ c) << x)
        });
        let anf = Anf4::from_truth_table(tt);
        prop_assert!(anf.degree() <= 1);
    }
}
