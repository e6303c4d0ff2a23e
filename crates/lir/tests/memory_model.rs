//! Property test: the page-granular guest `Memory` agrees with a naive
//! byte map on random access sequences.
//!
//! The LIR interpreter, the byte-level x86 interpreter and the Arm core
//! all run on this one `Memory`, so a bug in it would be shared by every
//! leg of the differential test and could not show up as a divergence.
//! This test is the independent check: every operation is replayed
//! against a `BTreeMap<u64, u8>` in which an absent byte is zero.
//! Addresses cluster around page boundaries and around `u64::MAX`, so
//! accesses cross pages, wrap around the address space, and read memory
//! no write has touched. Some anchors share a slot of `Memory`'s
//! direct-mapped page cache, so cached pages evict each other between
//! accesses.

use lasagne_lir::interp::{Memory, STACK_TOP};
use lasagne_qc::collection;
use lasagne_qc::prelude::*;
use std::collections::BTreeMap;

const PAGE: u64 = 4096;
/// Entries in `Memory`'s direct-mapped page cache: pages this many apart
/// share a cache slot.
const CACHE_PAGES: u64 = 64;

/// Anchors near which accesses land: the first page, a page boundary, a
/// workload-style address, the main stack, the top of the address space
/// (accesses there wrap to page 0), and two anchors whose pages share
/// cache slots with those: page `CACHE_PAGES`, and the boundary between
/// pages `2 * CACHE_PAGES - 1` and `2 * CACHE_PAGES`, which share slots
/// with the top page and with page 0.
const ANCHORS: [u64; 7] = [
    0,
    PAGE - 24,
    0x4000_0000 + 3 * PAGE - 24,
    STACK_TOP - 24,
    u64::MAX - 23,
    CACHE_PAGES * PAGE,
    2 * CACHE_PAGES * PAGE - 24,
];

#[derive(Debug, Clone)]
enum Op {
    /// A 1–16-byte write of the given bytes.
    Write { addr: u64, bytes: Vec<u8> },
    /// A 1–16-byte read.
    Read { addr: u64, len: usize },
    /// An 8-byte little-endian read.
    ReadU64 { addr: u64 },
    /// A 1–8-byte little-endian integer read.
    ReadUint { addr: u64, len: usize },
    /// A 1–8-byte little-endian integer write of the low bytes of `v`.
    WriteUint { addr: u64, len: usize, v: u64 },
    /// A bulk write spanning up to three pages, bytes derived from `seed`.
    Bulk { addr: u64, len: usize, seed: u8 },
    /// A bulk read spanning up to three pages.
    ReadBulk { addr: u64, len: usize },
    /// A `memmove`-style copy.
    Copy { dst: u64, src: u64, len: usize },
    /// A NUL-terminated string read.
    Cstr { addr: u64 },
}

fn addr() -> impl Strategy<Value = u64> {
    (0..ANCHORS.len(), 0u64..48).prop_map(|(i, off)| ANCHORS[i].wrapping_add(off))
}

fn op() -> impl Strategy<Value = Op> {
    let big = 1..3 * PAGE as usize + 1;
    prop_oneof![
        4 => (addr(), collection::vec(any::<u8>(), 1..=16))
            .prop_map(|(addr, bytes)| Op::Write { addr, bytes }),
        4 => (addr(), 1..17usize).prop_map(|(addr, len)| Op::Read { addr, len }),
        1 => addr().prop_map(|addr| Op::ReadU64 { addr }),
        2 => (addr(), 1..9usize).prop_map(|(addr, len)| Op::ReadUint { addr, len }),
        2 => (addr(), 1..9usize, any::<u64>())
            .prop_map(|(addr, len, v)| Op::WriteUint { addr, len, v }),
        1 => (addr(), big.clone(), any::<u8>())
            .prop_map(|(addr, len, seed)| Op::Bulk { addr, len, seed }),
        1 => (addr(), big).prop_map(|(addr, len)| Op::ReadBulk { addr, len }),
        1 => (addr(), addr(), 0..2 * PAGE as usize)
            .prop_map(|(dst, src, len)| Op::Copy { dst, src, len }),
        1 => addr().prop_map(|addr| Op::Cstr { addr }),
    ]
}

/// The reference: one map entry per written byte; absent bytes are zero.
#[derive(Default)]
struct Model(BTreeMap<u64, u8>);

impl Model {
    fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| self.0.get(&addr.wrapping_add(i)).copied().unwrap_or(0))
            .collect()
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.0.insert(addr.wrapping_add(i as u64), *b);
        }
    }

    fn cstr(&self, addr: u64) -> String {
        let bytes: Vec<u8> = (0..65536u64)
            .map(|i| self.0.get(&addr.wrapping_add(i)).copied().unwrap_or(0))
            .take_while(|b| *b != 0)
            .collect();
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

fn bulk_bytes(len: usize, seed: u8) -> Vec<u8> {
    // Never zero, so string reads run across the whole run of bytes.
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ seed | 1)
        .collect()
}

properties! {
    config = Config::with_cases(96);

    fn memory_matches_a_byte_map(ops in collection::vec(op(), 1..24)) {
        let mut mem = Memory::new();
        let mut model = Model::default();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Write { addr, bytes } => {
                    mem.write(*addr, bytes);
                    model.write(*addr, bytes);
                }
                Op::Read { addr, len } => {
                    let got = mem.read(*addr, *len);
                    prop_assert_eq!(&got[..*len], &model.read(*addr, *len)[..], "step {step}");
                    prop_assert!(got[*len..].iter().all(|b| *b == 0), "step {step}: tail");
                }
                Op::ReadU64 { addr } => {
                    let want = model.read(*addr, 8);
                    prop_assert_eq!(mem.read_u64(*addr).to_le_bytes().to_vec(), want, "step {step}");
                }
                Op::ReadUint { addr, len } => {
                    let mut want = [0u8; 8];
                    want[..*len].copy_from_slice(&model.read(*addr, *len));
                    prop_assert_eq!(mem.read_uint(*addr, *len), u64::from_le_bytes(want), "step {step}");
                }
                Op::WriteUint { addr, len, v } => {
                    mem.write_uint(*addr, *len, *v);
                    model.write(*addr, &v.to_le_bytes()[..*len]);
                }
                Op::Bulk { addr, len, seed } => {
                    let bytes = bulk_bytes(*len, *seed);
                    mem.write(*addr, &bytes);
                    model.write(*addr, &bytes);
                }
                Op::ReadBulk { addr, len } => {
                    let mut got = vec![0xAA; *len];
                    mem.read_into(*addr, &mut got);
                    prop_assert_eq!(got, model.read(*addr, *len), "step {step}");
                }
                Op::Copy { dst, src, len } => {
                    mem.copy(*dst, *src, *len);
                    let bytes = model.read(*src, *len);
                    model.write(*dst, &bytes);
                }
                Op::Cstr { addr } => {
                    prop_assert_eq!(mem.read_cstr(*addr), model.cstr(*addr), "step {step}");
                }
            }
        }
        // Every byte ever written reads back.
        for (&a, &b) in &model.0 {
            prop_assert_eq!(mem.read(a, 1)[0], b, "byte at {a:#x}");
        }
    }
}

#[test]
fn accesses_wrap_around_the_address_space() {
    let mut mem = Memory::new();
    mem.write_u64(u64::MAX - 3, 0x0807_0605_0403_0201);
    assert_eq!(mem.read(u64::MAX - 3, 4)[..4], [1, 2, 3, 4]);
    assert_eq!(mem.read(0, 4)[..4], [5, 6, 7, 8]);
    assert_eq!(mem.read_u64(u64::MAX - 3), 0x0807_0605_0403_0201);
}

#[test]
fn unmapped_reads_through_a_warm_cache_map_nothing() {
    let mut mem = Memory::new();
    // Pages 0 and CACHE_PAGES share a cache slot and evict each other.
    mem.write_u64(64, 0x1111);
    mem.write_u64(CACHE_PAGES * PAGE + 64, 0x2222);
    assert_eq!(mem.read_u64(64), 0x1111);
    assert_eq!(mem.mapped_pages(), 2);
    // Unmapped pages in the same slot, a neighbouring slot and across a
    // page boundary read as zero and map nothing.
    for addr in [
        2 * CACHE_PAGES * PAGE + 8,
        PAGE + 8,
        CACHE_PAGES * PAGE - 4,
        u64::MAX - 3,
    ] {
        assert_eq!(mem.read_u64(addr), 0, "{addr:#x}");
        assert_eq!(mem.read_uint(addr, 3), 0, "{addr:#x}");
        assert_eq!(mem.read(addr, 16), [0; 16], "{addr:#x}");
        assert_eq!(mem.read_cstr(addr), "", "{addr:#x}");
        assert_eq!(mem.mapped_pages(), 2, "read of {addr:#x}");
    }
    // The warm entries still read back.
    assert_eq!(mem.read_u64(CACHE_PAGES * PAGE + 64), 0x2222);
    assert_eq!(mem.read_u64(64), 0x1111);
    assert_eq!(mem.mapped_pages(), 2);
}
