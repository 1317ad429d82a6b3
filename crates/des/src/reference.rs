//! Reference (unprotected) DES encryption.
//!
//! The classical round-based architecture the paper starts from (§IV-A):
//! IP, sixteen Feistel rounds with the key schedule running alongside,
//! swap, FP. Byte-exact against the FIPS 46-3 test vectors.

use crate::tables::{permute, rotl, E, FP, IP, P, PC1, PC2, SBOXES, SHIFTS};

/// A DES instance with a precomputed key schedule.
///
/// # Examples
///
/// ```
/// use gm_des::Des;
///
/// let des = Des::new(0x133457799BBCDFF1);
/// let ct = des.encrypt_block(0x0123456789ABCDEF);
/// assert_eq!(ct, 0x85E813540F0AB405);
/// ```
#[derive(Debug, Clone)]
pub struct Des {
    round_keys: [u64; 16],
}

impl Des {
    /// Expand a 64-bit key (parity bits ignored) into the 16 round keys.
    pub fn new(key: u64) -> Self {
        Des { round_keys: round_keys(key) }
    }

    /// The 48-bit round keys.
    pub fn round_keys(&self) -> &[u64; 16] {
        &self.round_keys
    }

    /// Encrypt one 64-bit block.
    pub fn encrypt_block(&self, plaintext: u64) -> u64 {
        let ip = permute(plaintext, 64, &IP);
        let mut l = (ip >> 32) as u32;
        let mut r = (ip & 0xFFFF_FFFF) as u32;
        for &k in &self.round_keys {
            let new_r = l ^ f(r, k);
            l = r;
            r = new_r;
        }
        // Final swap: R16 on the left.
        let preoutput = ((r as u64) << 32) | l as u64;
        permute(preoutput, 64, &FP)
    }
}

/// The Feistel function `f(R, K)`: expand, key-mix, S-boxes, permute.
pub fn f(r: u32, round_key: u64) -> u32 {
    let x = permute(u64::from(r), 32, &E) ^ round_key;
    let mut out = 0u32;
    for (i, sbox) in SBOXES.iter().enumerate() {
        let six = ((x >> (42 - 6 * i)) & 0x3F) as u8;
        out = (out << 4) | u32::from(sbox_lookup(sbox, six));
    }
    permute(u64::from(out), 32, &P) as u32
}

/// One S-box lookup on a 6-bit input: row = outer bits, column = inner.
pub fn sbox_lookup(sbox: &[[u8; 16]; 4], six: u8) -> u8 {
    let row = ((six >> 4) & 0b10) | (six & 1);
    let col = (six >> 1) & 0xF;
    sbox[row as usize][col as usize]
}

/// Compute the 16 round keys of `key`.
pub fn round_keys(key: u64) -> [u64; 16] {
    let pc1 = permute(key, 64, &PC1);
    let mut c = (pc1 >> 28) & 0x0FFF_FFFF;
    let mut d = pc1 & 0x0FFF_FFFF;
    let mut keys = [0u64; 16];
    for (round, k) in keys.iter_mut().enumerate() {
        let s = u32::from(SHIFTS[round]);
        c = rotl(c, 28, s);
        d = rotl(d, 28, s);
        *k = permute((c << 28) | d, 56, &PC2);
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// The classic worked example (used in countless DES walk-throughs).
    #[test]
    fn textbook_vector() {
        let des = Des::new(0x133457799BBCDFF1);
        assert_eq!(des.encrypt_block(0x0123456789ABCDEF), 0x85E813540F0AB405);
    }

    /// Another widely-published pair.
    #[test]
    fn second_vector() {
        let des = Des::new(0x0E329232EA6D0D73);
        assert_eq!(des.encrypt_block(0x8787878787878787), 0x0000000000000000);
    }

    #[test]
    fn avalanche() {
        let des = Des::new(0x133457799BBCDFF1);
        let c1 = des.encrypt_block(0x0123456789ABCDEF);
        let c2 = des.encrypt_block(0x0123456789ABCDEE);
        let flipped = (c1 ^ c2).count_ones();
        assert!((20..=44).contains(&flipped), "avalanche too weak: {flipped}");
    }

    #[test]
    fn round_key_structure() {
        let keys = round_keys(0x133457799BBCDFF1);
        // First round key of the textbook example.
        assert_eq!(keys[0], 0b000110_110000_001011_101111_111111_000111_000001_110010);
        // All keys fit in 48 bits and differ.
        assert!(keys.iter().all(|k| *k < (1 << 48)));
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), 16);
    }

    #[test]
    fn complementation_property() {
        // DES's famous property: E_{!k}(!p) = !E_k(p).
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..8 {
            let key: u64 = rng.random();
            let pt: u64 = rng.random();
            let a = Des::new(key).encrypt_block(pt);
            let b = Des::new(!key).encrypt_block(!pt);
            assert_eq!(b, !a);
        }
    }
}
