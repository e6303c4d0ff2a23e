//! LIR type system.
//!
//! A deliberately small, `Copy`-able slice of the LLVM type system: the
//! integer and floating-point scalars the lifter produces, the 128-bit
//! vector shapes used by SSE packed values, and *typed pointers* — pointee
//! types are what the paper's IR-refinement stage (§5) reconstructs, so they
//! are first-class here.

use std::fmt;

/// The pointee of a [`Ty::Ptr`].
///
/// One level of pointee typing is modelled (`Ptr` as a pointee stands for
/// pointer-to-pointer with an opaque second level), which is exactly the
/// granularity the paper's peephole rules and pointer parameter promotion
/// operate at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pointee {
    /// `i8*` — the "raw memory" pointer the lifter starts from.
    I8,
    /// `i16*`
    I16,
    /// `i32*`
    I32,
    /// `i64*`
    I64,
    /// `float*`
    F32,
    /// `double*`
    F64,
    /// `<16 x i8>*` — any 128-bit vector in memory.
    V128,
    /// Pointer to pointer (second level opaque).
    Ptr,
}

impl Pointee {
    /// Size in bytes of the pointed-to object element.
    pub fn size(self) -> u64 {
        match self {
            Pointee::I8 => 1,
            Pointee::I16 => 2,
            Pointee::I32 => 4,
            Pointee::I64 | Pointee::F64 | Pointee::Ptr => 8,
            Pointee::F32 => 4,
            Pointee::V128 => 16,
        }
    }

    /// The type of a value loaded through this pointer.
    pub fn loaded_ty(self) -> Ty {
        match self {
            Pointee::I8 => Ty::I8,
            Pointee::I16 => Ty::I16,
            Pointee::I32 => Ty::I32,
            Pointee::I64 => Ty::I64,
            Pointee::F32 => Ty::F32,
            Pointee::F64 => Ty::F64,
            Pointee::V128 => Ty::V2F64,
            Pointee::Ptr => Ty::Ptr(Pointee::I8),
        }
    }
}

/// An LIR type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Ty {
    /// No value (function returns only).
    Void,
    /// 1-bit boolean.
    I1,
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// IEEE-754 single.
    F32,
    /// IEEE-754 double.
    F64,
    /// `<2 x double>`
    V2F64,
    /// `<4 x float>`
    V4F32,
    /// `<2 x i64>`
    V2I64,
    /// `<4 x i32>`
    V4I32,
    /// Typed pointer.
    Ptr(Pointee),
}

impl Ty {
    /// Size of the value in bytes (pointers are 8).
    ///
    /// # Panics
    ///
    /// Panics on [`Ty::Void`].
    pub fn size(self) -> u64 {
        match self {
            Ty::Void => panic!("void has no size"),
            Ty::I1 | Ty::I8 => 1,
            Ty::I16 => 2,
            Ty::I32 | Ty::F32 => 4,
            Ty::I64 | Ty::F64 | Ty::Ptr(_) => 8,
            Ty::V2F64 | Ty::V4F32 | Ty::V2I64 | Ty::V4I32 => 16,
        }
    }

    /// Width in bits for integer types.
    pub fn int_bits(self) -> Option<u32> {
        match self {
            Ty::I1 => Some(1),
            Ty::I8 => Some(8),
            Ty::I16 => Some(16),
            Ty::I32 => Some(32),
            Ty::I64 => Some(64),
            _ => None,
        }
    }

    /// Whether this is an integer type (including `i1`).
    pub fn is_int(self) -> bool {
        self.int_bits().is_some()
    }

    /// Whether this is `float` or `double`.
    pub fn is_float(self) -> bool {
        matches!(self, Ty::F32 | Ty::F64)
    }

    /// Whether this is a pointer.
    pub fn is_ptr(self) -> bool {
        matches!(self, Ty::Ptr(_))
    }

    /// Whether this is a 128-bit vector.
    pub fn is_vector(self) -> bool {
        matches!(self, Ty::V2F64 | Ty::V4F32 | Ty::V2I64 | Ty::V4I32)
    }

    /// The integer type of exactly `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics for unsupported widths.
    pub fn int(bits: u32) -> Ty {
        match bits {
            1 => Ty::I1,
            8 => Ty::I8,
            16 => Ty::I16,
            32 => Ty::I32,
            64 => Ty::I64,
            b => panic!("unsupported integer width i{b}"),
        }
    }

    /// For a pointer type, the pointee.
    pub fn pointee(self) -> Option<Pointee> {
        match self {
            Ty::Ptr(p) => Some(p),
            _ => None,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Void => write!(f, "void"),
            Ty::I1 => write!(f, "i1"),
            Ty::I8 => write!(f, "i8"),
            Ty::I16 => write!(f, "i16"),
            Ty::I32 => write!(f, "i32"),
            Ty::I64 => write!(f, "i64"),
            Ty::F32 => write!(f, "float"),
            Ty::F64 => write!(f, "double"),
            Ty::V2F64 => write!(f, "<2 x double>"),
            Ty::V4F32 => write!(f, "<4 x float>"),
            Ty::V2I64 => write!(f, "<2 x i64>"),
            Ty::V4I32 => write!(f, "<4 x i32>"),
            Ty::Ptr(p) => match p {
                Pointee::I8 => write!(f, "i8*"),
                Pointee::I16 => write!(f, "i16*"),
                Pointee::I32 => write!(f, "i32*"),
                Pointee::I64 => write!(f, "i64*"),
                Pointee::F32 => write!(f, "float*"),
                Pointee::F64 => write!(f, "double*"),
                Pointee::V128 => write!(f, "<v128>*"),
                Pointee::Ptr => write!(f, "i8**"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(Ty::I32.size(), 4);
        assert_eq!(Ty::Ptr(Pointee::F64).size(), 8);
        assert_eq!(Ty::V2F64.size(), 16);
        assert_eq!(Pointee::F64.size(), 8);
    }

    #[test]
    fn classification() {
        assert!(Ty::I1.is_int());
        assert!(!Ty::F32.is_int());
        assert!(Ty::F64.is_float());
        assert!(Ty::Ptr(Pointee::I8).is_ptr());
        assert!(Ty::V4F32.is_vector());
    }

    #[test]
    fn int_constructor_roundtrip() {
        for bits in [1, 8, 16, 32, 64] {
            assert_eq!(Ty::int(bits).int_bits(), Some(bits));
        }
    }

    #[test]
    fn loaded_types() {
        assert_eq!(Pointee::I32.loaded_ty(), Ty::I32);
        assert_eq!(Pointee::Ptr.loaded_ty(), Ty::Ptr(Pointee::I8));
    }

    #[test]
    fn display() {
        assert_eq!(Ty::Ptr(Pointee::I32).to_string(), "i32*");
        assert_eq!(Ty::V2F64.to_string(), "<2 x double>");
    }
}
