//! Per-bit classification of the instruction word.
//!
//! The paper's ACE rules are stated per bit of the instruction-queue entry:
//!
//! * for **dynamically dead** instructions, "a strike on any bit ... except
//!   the destination register specifier bits, will not change the final
//!   outcome of a program" (§4.1) — so [`BitKind::DestSpec`] (and
//!   [`BitKind::PredDestSpec`]) bits remain ACE while everything else goes
//!   un-ACE;
//! * for **neutral** instructions, "faults in bits other than the opcode
//!   bits will not affect a program's final outcome" (§4.1) — so only
//!   [`BitKind::Opcode`] bits remain ACE.
//!
//! This module exposes the encoding layout of [`crate::encode`] as a 64-entry
//! bit map so the AVF accounting and fault injector agree exactly on what
//! each bit means.

use serde::{Deserialize, Serialize};

use crate::encode::{
    DEST_BITS, DEST_LO, IMM_BITS, IMM_LO, OPCODE_BITS, OPCODE_LO, PDEST_BITS, PDEST_LO, QP_BITS,
    QP_LO, RESERVED_BITS, RESERVED_LO, SRC1_BITS, SRC1_LO, SRC2_BITS, SRC2_LO,
};

/// Number of bits in an encoded instruction word.
pub const BIT_COUNT: usize = 64;

/// What a given bit of the instruction word encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BitKind {
    /// Opcode field bits.
    Opcode,
    /// Qualifying-predicate field bits.
    Guard,
    /// Destination general-register specifier bits.
    DestSpec,
    /// Source register specifier bits (either source).
    SrcSpec,
    /// Destination predicate specifier bits.
    PredDestSpec,
    /// Immediate field bits.
    Immediate,
    /// Reserved bits (always zero; strikes are detected at decode).
    Reserved,
}

impl BitKind {
    /// All bit kinds.
    pub const ALL: [BitKind; 7] = [
        BitKind::Opcode,
        BitKind::Guard,
        BitKind::DestSpec,
        BitKind::SrcSpec,
        BitKind::PredDestSpec,
        BitKind::Immediate,
        BitKind::Reserved,
    ];

    /// Whether a bit of this kind stays ACE when the instruction holding it
    /// is dynamically dead (only destination specifiers do — §4.1).
    pub const fn ace_when_dead(self) -> bool {
        matches!(self, BitKind::DestSpec | BitKind::PredDestSpec)
    }

    /// Whether a bit of this kind stays ACE when the instruction holding it
    /// is a neutral type (only opcode bits do — §4.1).
    pub const fn ace_when_neutral(self) -> bool {
        matches!(self, BitKind::Opcode)
    }
}

const fn build_map() -> [BitKind; BIT_COUNT] {
    let mut map = [BitKind::Reserved; BIT_COUNT];
    let spans: [(u32, u32, BitKind); 8] = [
        (OPCODE_LO, OPCODE_BITS, BitKind::Opcode),
        (QP_LO, QP_BITS, BitKind::Guard),
        (DEST_LO, DEST_BITS, BitKind::DestSpec),
        (SRC1_LO, SRC1_BITS, BitKind::SrcSpec),
        (SRC2_LO, SRC2_BITS, BitKind::SrcSpec),
        (PDEST_LO, PDEST_BITS, BitKind::PredDestSpec),
        (IMM_LO, IMM_BITS, BitKind::Immediate),
        (RESERVED_LO, RESERVED_BITS, BitKind::Reserved),
    ];
    let mut s = 0;
    while s < spans.len() {
        let (lo, bits, kind) = spans[s];
        let mut b = 0;
        while b < bits {
            map[(lo + b) as usize] = kind;
            b += 1;
        }
        s += 1;
    }
    map
}

const BIT_MAP: [BitKind; BIT_COUNT] = build_map();

/// The kind of bit `bit` (0 = LSB) of the instruction word.
///
/// # Panics
///
/// Panics if `bit >= 64`.
pub const fn bit_kind(bit: usize) -> BitKind {
    BIT_MAP[bit]
}

/// Iterates over the bit positions of a given kind.
pub fn bits_of_kind(kind: BitKind) -> impl Iterator<Item = usize> {
    (0..BIT_COUNT).filter(move |&b| BIT_MAP[b] == kind)
}

/// A mask with ones at every bit position of the given kind.
///
/// `const`, so width and mask computations downstream (the span engine's
/// ACE masks, the classifier's specifier widths) fold at compile time
/// instead of rescanning the 64-entry bit map per call.
pub const fn field_mask(kind: BitKind) -> u64 {
    let mut m = 0u64;
    let mut b = 0;
    while b < BIT_COUNT {
        if BIT_MAP[b] as u8 == kind as u8 {
            m |= 1u64 << b;
        }
        b += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_covers_all_bits() {
        let total: u64 = BitKind::ALL.iter().map(|&k| field_mask(k)).fold(0, |a, b| {
            assert_eq!(a & b, 0, "bit kinds overlap");
            a | b
        });
        assert_eq!(total, u64::MAX);
    }

    #[test]
    fn field_widths() {
        assert_eq!(bits_of_kind(BitKind::Opcode).count(), 6);
        assert_eq!(bits_of_kind(BitKind::Guard).count(), 3);
        assert_eq!(bits_of_kind(BitKind::DestSpec).count(), 6);
        assert_eq!(bits_of_kind(BitKind::SrcSpec).count(), 12);
        assert_eq!(bits_of_kind(BitKind::PredDestSpec).count(), 3);
        assert_eq!(bits_of_kind(BitKind::Immediate).count(), 32);
        assert_eq!(bits_of_kind(BitKind::Reserved).count(), 2);
    }

    #[test]
    fn kind_positions_match_encoding() {
        assert_eq!(bit_kind(0), BitKind::Opcode);
        assert_eq!(bit_kind(5), BitKind::Opcode);
        assert_eq!(bit_kind(6), BitKind::Guard);
        assert_eq!(bit_kind(9), BitKind::DestSpec);
        assert_eq!(bit_kind(15), BitKind::SrcSpec);
        assert_eq!(bit_kind(27), BitKind::PredDestSpec);
        assert_eq!(bit_kind(30), BitKind::Immediate);
        assert_eq!(bit_kind(63), BitKind::Reserved);
    }

    #[test]
    fn ace_rules_match_paper() {
        // Dead instructions: only destination specifiers stay ACE.
        let ace_dead: Vec<_> = BitKind::ALL.iter().filter(|k| k.ace_when_dead()).collect();
        assert_eq!(ace_dead, vec![&BitKind::DestSpec, &BitKind::PredDestSpec]);

        // Neutral instructions: only opcode bits stay ACE.
        let ace_neutral: Vec<_> = BitKind::ALL
            .iter()
            .filter(|k| k.ace_when_neutral())
            .collect();
        assert_eq!(ace_neutral, vec![&BitKind::Opcode]);
    }

    #[test]
    fn masks_are_consistent_with_bit_kind() {
        for kind in BitKind::ALL {
            let mask = field_mask(kind);
            for b in 0..BIT_COUNT {
                let in_mask = mask & (1u64 << b) != 0;
                assert_eq!(in_mask, bit_kind(b) == kind);
            }
        }
    }
}
