//! The 256-lane bitsliced DES cycle engine against the scalar masked
//! cores: a group of `n` lanes must give the same ciphertexts and the same
//! per-cycle records as `n` sequential `MaskedDesFf`/`MaskedDesPd`
//! encryptions drawing from an identically seeded mask RNG, and
//! consecutive groups the same as one long scalar sequence.

use glitchmask::des::masked::core_ff::CycleRecord;
use glitchmask::des::masked::{BitslicedDes, MaskedDesFf, MaskedDesPd};
use glitchmask::des::power::CycleLaneCounters;
use glitchmask::des::Des;
use glitchmask::masking::MaskRng;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

const KEY: u64 = 0x1334_5779_9BBC_DFF1;

fn mask_rng(seed: Option<u64>) -> MaskRng {
    seed.map_or_else(MaskRng::disabled, MaskRng::new)
}

/// Run `groups` consecutive groups of `lanes` plaintexts each through the
/// bitsliced engine and the scalar core, off one mask stream per side,
/// and compare ciphertexts and every lane's cycle records. `counters`
/// is shared across calls, so groups of different cores and sizes reuse
/// its storage: the FF groups after the PD ones must read zero glitch
/// and coupling counts where PD groups left nonzero ones.
fn assert_groups_match_scalar(
    counters: &mut CycleLaneCounters,
    pd: bool,
    lanes: usize,
    groups: usize,
    mask_seed: Option<u64>,
    pt_seed: u64,
) {
    let mut pts = SmallRng::seed_from_u64(pt_seed);
    let bs = BitslicedDes::new(KEY);
    let (mut bs_rng, mut sc_rng) = (mask_rng(mask_seed), mask_rng(mask_seed));
    let mut lane_rec: Vec<CycleRecord> = Vec::new();
    for g in 0..groups {
        let group: Vec<u64> = (0..lanes).map(|_| pts.random()).collect();
        let cts = if pd {
            bs.encrypt_pd_group(&group, &mut bs_rng, counters)
        } else {
            bs.encrypt_ff_group(&group, &mut bs_rng, counters)
        };
        let want_cycles = if pd { MaskedDesPd::TOTAL_CYCLES } else { MaskedDesFf::TOTAL_CYCLES };
        assert_eq!(counters.num_cycles(), want_cycles);
        for (lane, &pt) in group.iter().enumerate() {
            let (ct, cycles) = if pd {
                MaskedDesPd::new(KEY).encrypt_with_cycles(pt, &mut sc_rng)
            } else {
                MaskedDesFf::new(KEY).encrypt_with_cycles(pt, &mut sc_rng)
            };
            let at = format!("pd {pd}, {lanes} lanes, group {g}, lane {lane}");
            assert_eq!(cts[lane], ct, "{at}: ciphertext");
            assert_eq!(ct, Des::new(KEY).encrypt_block(pt), "{at}: reference");
            counters.lane_into(lane, &mut lane_rec);
            assert_eq!(lane_rec, cycles, "{at}: cycle records");
        }
    }
}

/// Lane counts on both sides of every 64-lane element boundary of the
/// lane word, a full group and a single lane.
#[test]
fn bitsliced_groups_match_scalar_cores() {
    let mut counters = CycleLaneCounters::new();
    let mut pt_seed = 0xB175_11CE;
    for pd in [true, false] {
        for lanes in [256, 255, 193, 129, 65, 64, 63, 17, 1] {
            for mask_seed in [Some(pt_seed ^ 0x5EED), None] {
                assert_groups_match_scalar(&mut counters, pd, lanes, 2, mask_seed, pt_seed);
                pt_seed += 1;
            }
        }
    }
}
