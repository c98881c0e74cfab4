//! Helpers shared by the identity tests, which pin placer outputs as
//! FNV-1a hashes of their bit patterns. Each test binary uses a subset.

#![allow(dead_code)]

use analog_netlist::Placement;
use eplace::PlaceSolution;

/// FNV-1a over a stream of 64-bit words and bytes.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bits: u64) {
        self.bytes(&bits.to_le_bytes());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Every coordinate's and flip's bit pattern.
    pub fn placement(&mut self, p: &Placement) {
        for (&(x, y), &(fx, fy)) in p.positions.iter().zip(&p.flips) {
            self.eat(x.to_bits());
            self.eat(y.to_bits());
            self.eat(u64::from(fx) | u64::from(fy) << 1);
        }
    }

    /// The placement, HPWL, area and iteration count.
    pub fn solution(&mut self, s: &PlaceSolution) {
        self.placement(&s.placement);
        self.eat(s.hpwl.to_bits());
        self.eat(s.area.to_bits());
        self.eat(s.iterations as u64);
    }
}

/// A `PINNED` table row for a circuit whose hashes moved, ready to paste
/// over the old row.
pub fn pinned_row<const N: usize>(name: &str, got: [u64; N]) -> String {
    let cells: Vec<String> = got.iter().map(|h| format!("0x{h:016x}")).collect();
    format!("(\"{name}\", [{}]),", cells.join(", "))
}
