//! Bit-parallel *three-valued* simulation (dual-rail encoding).
//!
//! Each net carries two words: lane `k` of `ones` means "value 1 in slot
//! `k`", lane `k` of `zeros` means "value 0 in slot `k`", and neither bit set
//! means `X`. Gate evaluation is a handful of bitwise operations per gate for
//! a whole word of scenarios at once.
//!
//! The value type is generic over the [`Word`] carrying the lanes; the
//! [`Packed3`] alias keeps the 64-lane `u64` shape as the default
//! vocabulary. The screening kernel ([`crate::screen_faults_wide`])
//! instantiates the dual-rail algebra at 64, 128 and 256 lanes.

use moa_logic::V3;
use moa_netlist::{Circuit, NetId};

use crate::word::Word;

/// A dual-rail three-valued value with one slot per lane of `W`.
///
/// Invariant: `ones & zeros == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackedV3<W: Word = u64> {
    /// Lane `k` set: slot `k` holds 1.
    pub ones: W,
    /// Lane `k` set: slot `k` holds 0.
    pub zeros: W,
}

/// The 64-slot dual-rail word of the paper's `N_STATES = 64` configuration.
pub type Packed3 = PackedV3<u64>;

impl<W: Word> PackedV3<W> {
    /// All slots `X`.
    pub const ALL_X: PackedV3<W> = PackedV3 {
        ones: W::ZERO,
        zeros: W::ZERO,
    };

    /// Broadcasts one scalar value to all slots.
    pub fn broadcast(v: V3) -> PackedV3<W> {
        match v {
            V3::One => PackedV3 {
                ones: W::ONES,
                zeros: W::ZERO,
            },
            V3::Zero => PackedV3 {
                ones: W::ZERO,
                zeros: W::ONES,
            },
            V3::X => PackedV3::ALL_X,
        }
    }

    /// Reads one slot.
    #[inline]
    pub fn get(self, slot: u32) -> V3 {
        debug_assert!(self.ones.and(self.zeros).is_zero(), "dual-rail invariant");
        if self.ones.test_lane(slot as usize) {
            V3::One
        } else if self.zeros.test_lane(slot as usize) {
            V3::Zero
        } else {
            V3::X
        }
    }

    /// Writes one slot.
    #[inline]
    pub fn set(&mut self, slot: u32, v: V3) {
        let bit = W::lane_bit(slot as usize);
        self.ones = self.ones.and_not(bit);
        self.zeros = self.zeros.and_not(bit);
        match v {
            V3::One => self.ones = self.ones.or(bit),
            V3::Zero => self.zeros = self.zeros.or(bit),
            V3::X => {}
        }
    }

    /// Slots holding a binary value.
    #[inline]
    pub fn specified(self) -> W {
        self.ones.or(self.zeros)
    }

    #[inline]
    pub(crate) fn not(self) -> PackedV3<W> {
        PackedV3 {
            ones: self.zeros,
            zeros: self.ones,
        }
    }

    #[inline]
    pub(crate) fn and(self, rhs: PackedV3<W>) -> PackedV3<W> {
        PackedV3 {
            ones: self.ones.and(rhs.ones),
            zeros: self.zeros.or(rhs.zeros),
        }
    }

    #[inline]
    pub(crate) fn or(self, rhs: PackedV3<W>) -> PackedV3<W> {
        PackedV3 {
            ones: self.ones.or(rhs.ones),
            zeros: self.zeros.and(rhs.zeros),
        }
    }

    #[inline]
    pub(crate) fn xor(self, rhs: PackedV3<W>) -> PackedV3<W> {
        PackedV3 {
            ones: self.ones.and(rhs.zeros).or(self.zeros.and(rhs.ones)),
            zeros: self.ones.and(rhs.ones).or(self.zeros.and(rhs.zeros)),
        }
    }
}

/// One dual-rail value per net of a time frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedV3Values<W: Word = u64> {
    values: Vec<PackedV3<W>>,
}

impl<W: Word> PackedV3Values<W> {
    /// An all-`X` packed frame.
    pub fn new(circuit: &Circuit) -> Self {
        PackedV3Values {
            values: vec![PackedV3::ALL_X; circuit.num_nets()],
        }
    }

    /// Resets every net to `X`, (re)sizing for `circuit` while reusing the
    /// allocation — the cheap per-frame starting point of a kernel that owns
    /// its scratch buffer.
    pub fn reset(&mut self, circuit: &Circuit) {
        self.values.clear();
        self.values.resize(circuit.num_nets(), PackedV3::ALL_X);
    }

    /// The packed value of a net.
    #[inline]
    pub fn get(&self, net: NetId) -> PackedV3<W> {
        self.values[net.index()]
    }

    /// Sets the packed value of a net.
    #[inline]
    pub fn set(&mut self, net: NetId, v: PackedV3<W>) {
        self.values[net.index()] = v;
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed3_round_trip_accessors() {
        let mut p = Packed3::ALL_X;
        p.set(3, V3::One);
        p.set(7, V3::Zero);
        assert_eq!(p.get(3), V3::One);
        assert_eq!(p.get(7), V3::Zero);
        assert_eq!(p.get(0), V3::X);
        p.set(3, V3::X);
        assert_eq!(p.get(3), V3::X);
        assert_eq!(p.specified(), 1 << 7);
    }

    /// The wide instantiations run the same dual-rail algebra per lane:
    /// every slot of a 256-lane value round-trips and the gate ops agree
    /// with the 64-lane word slot-for-slot.
    #[test]
    fn wide_dual_rail_algebra_matches_u64_per_slot() {
        let vals = [V3::Zero, V3::One, V3::X];
        let mut wide_a: PackedV3<[u64; 4]> = PackedV3::ALL_X;
        let mut wide_b: PackedV3<[u64; 4]> = PackedV3::ALL_X;
        let mut narrow_a = Packed3::ALL_X;
        let mut narrow_b = Packed3::ALL_X;
        // Drive the low 64 slots of both widths with the same 3x3 pattern
        // and a different pattern in the upper lanes of the wide word.
        for slot in 0..256u32 {
            let a = vals[(slot % 3) as usize];
            let b = vals[(slot / 3 % 3) as usize];
            wide_a.set(slot, a);
            wide_b.set(slot, b);
            if slot < 64 {
                narrow_a.set(slot, a);
                narrow_b.set(slot, b);
            }
        }
        for slot in 0..256u32 {
            let (a, b) = (wide_a.get(slot), wide_b.get(slot));
            assert_eq!(wide_a.and(wide_b).get(slot), a & b, "and slot {slot}");
            assert_eq!(wide_a.or(wide_b).get(slot), a | b, "or slot {slot}");
            assert_eq!(wide_a.xor(wide_b).get(slot), a ^ b, "xor slot {slot}");
            assert_eq!(wide_a.not().get(slot), !a, "not slot {slot}");
            if slot < 64 {
                assert_eq!(narrow_a.and(narrow_b).get(slot), wide_a.and(wide_b).get(slot));
                assert_eq!(narrow_a.xor(narrow_b).get(slot), wide_a.xor(wide_b).get(slot));
            }
        }
    }
}
