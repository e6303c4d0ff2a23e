//! Processor status flag vocabulary.
//!
//! The lifter models the x86 flags register (§4.2 of the paper: "instructions
//! that implicitly set processor status flags will result in more than one
//! LLVM instruction"). This module names the five modelled flags and records
//! which of them a condition code reads. Which flags each instruction reads
//! and writes under the model semantics — the table the lifter's flag
//! liveness runs on — lives beside the register use/def sets in
//! `lasagne_lifter::liveness`.

use crate::reg::Cond;

/// The subset of RFLAGS the lifter models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flag {
    /// Carry flag.
    Cf,
    /// Parity flag (of the low result byte).
    Pf,
    /// Zero flag.
    Zf,
    /// Sign flag.
    Sf,
    /// Overflow flag.
    Of,
}

impl Flag {
    /// All modelled flags, in slot order (`Flag as usize` indexes them).
    pub const ALL: [Flag; 5] = [Flag::Cf, Flag::Pf, Flag::Zf, Flag::Sf, Flag::Of];
}

/// A set of flags, as a small bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlagSet(u8);

impl FlagSet {
    /// The empty set.
    pub const EMPTY: FlagSet = FlagSet(0);
    /// All five modelled flags.
    pub const ALL: FlagSet = FlagSet(0b11111);

    const fn bit(f: Flag) -> u8 {
        1 << f as u8
    }

    /// Set containing exactly the given flags.
    pub const fn of(flags: &[Flag]) -> FlagSet {
        let mut m = 0;
        let mut i = 0;
        while i < flags.len() {
            m |= Self::bit(flags[i]);
            i += 1;
        }
        FlagSet(m)
    }

    /// Whether `f` is in the set.
    pub fn contains(self, f: Flag) -> bool {
        self.0 & Self::bit(f) != 0
    }

    /// Union.
    pub fn union(self, other: FlagSet) -> FlagSet {
        FlagSet(self.0 | other.0)
    }

    /// Difference: the flags of `self` not in `other`.
    pub fn minus(self, other: FlagSet) -> FlagSet {
        FlagSet(self.0 & !other.0)
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// The flags that `cc` reads.
pub fn cond_uses(cc: Cond) -> FlagSet {
    match cc {
        Cond::O | Cond::No => FlagSet::of(&[Flag::Of]),
        Cond::B | Cond::Ae => FlagSet::of(&[Flag::Cf]),
        Cond::E | Cond::Ne => FlagSet::of(&[Flag::Zf]),
        Cond::Be | Cond::A => FlagSet::of(&[Flag::Cf, Flag::Zf]),
        Cond::S | Cond::Ns => FlagSet::of(&[Flag::Sf]),
        Cond::P | Cond::Np => FlagSet::of(&[Flag::Pf]),
        Cond::L | Cond::Ge => FlagSet::of(&[Flag::Sf, Flag::Of]),
        Cond::Le | Cond::G => FlagSet::of(&[Flag::Zf, Flag::Sf, Flag::Of]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jl_reads_sf_and_of() {
        let uses = cond_uses(Cond::L);
        assert!(uses.contains(Flag::Sf) && uses.contains(Flag::Of) && !uses.contains(Flag::Zf));
    }

    #[test]
    fn parity_condition_uses_pf() {
        assert!(cond_uses(Cond::P).contains(Flag::Pf));
        assert!(cond_uses(Cond::Np).contains(Flag::Pf));
    }

    #[test]
    fn flagset_ops() {
        let a = FlagSet::of(&[Flag::Cf]);
        let b = FlagSet::of(&[Flag::Zf]);
        let u = a.union(b);
        assert!(u.contains(Flag::Cf) && u.contains(Flag::Zf) && !u.contains(Flag::Of));
        assert_eq!(u.minus(a), b);
        assert_eq!(FlagSet::ALL, FlagSet::of(&Flag::ALL));
        assert!(FlagSet::EMPTY.is_empty());
        assert!(!FlagSet::ALL.is_empty());
    }
}
