//! A minimal binary image: code, data, and a symbol table.
//!
//! Stands in for the ELF loader the paper's lifter uses. A [`Binary`] holds
//! one text section of x86-64 machine code plus named function symbols,
//! named globals in a data section, and declarations of external (library)
//! functions that the lifter resolves against its known-signatures table.

use std::collections::BTreeMap;

/// A function symbol in the text section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSym {
    /// Symbol name.
    pub name: String,
    /// Entry address.
    pub addr: u64,
    /// Size in bytes of the function body.
    pub size: u64,
}

/// A global data object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Absolute address within the data section.
    pub addr: u64,
    /// Size in bytes.
    pub size: u64,
    /// Initial bytes (zero-filled to `size` if shorter).
    pub init: Vec<u8>,
}

/// A declared external function (e.g. `pthread_create`, `printf`): the
/// lifter maps calls to these to IR call instructions by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternSym {
    /// Symbol name.
    pub name: String,
    /// PLT stub address calls resolve through.
    pub addr: u64,
}

/// A loaded binary image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Binary {
    /// Base address of the text section.
    pub text_base: u64,
    /// Machine code.
    pub text: Vec<u8>,
    /// Function symbols, sorted by address.
    pub functions: Vec<FuncSym>,
    /// Global data objects.
    pub globals: Vec<Global>,
    /// External (imported) functions.
    pub externs: Vec<ExternSym>,
}

impl Binary {
    /// Looks up the function symbol containing `addr`, if any.
    pub fn function_at(&self, addr: u64) -> Option<&FuncSym> {
        self.functions
            .iter()
            .find(|f| addr >= f.addr && addr < f.addr + f.size.max(1))
    }

    /// Looks up a function symbol by name.
    pub fn function_by_name(&self, name: &str) -> Option<&FuncSym> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up the global containing `addr`, if any.
    pub fn global_at(&self, addr: u64) -> Option<&Global> {
        self.globals
            .iter()
            .find(|g| addr >= g.addr && addr < g.addr + g.size)
    }

    /// Looks up an extern by the address of its stub.
    pub fn extern_at(&self, addr: u64) -> Option<&ExternSym> {
        self.externs.iter().find(|e| e.addr == addr)
    }

    /// The machine-code bytes of a function, or `None` when the symbol's
    /// range does not lie inside the text section (it starts below
    /// `text_base`, runs past the end, or `addr + size` overflows).
    pub fn code_of(&self, f: &FuncSym) -> Option<&[u8]> {
        let start = usize::try_from(f.addr.checked_sub(self.text_base)?).ok()?;
        let end = start.checked_add(usize::try_from(f.size).ok()?)?;
        self.text.get(start..end)
    }
}

/// Builder for a [`Binary`]. Functions are assembled one at a time with
/// [`crate::asm::Asm`]; globals and externs are laid out in dedicated
/// address ranges so that the lifter can classify addresses.
#[derive(Debug)]
pub struct BinaryBuilder {
    text_base: u64,
    data_base: u64,
    plt_base: u64,
    text: Vec<u8>,
    functions: Vec<FuncSym>,
    globals: Vec<Global>,
    externs: Vec<ExternSym>,
    extern_by_name: BTreeMap<String, u64>,
}

impl BinaryBuilder {
    /// Conventional text base.
    pub const TEXT_BASE: u64 = 0x40_1000;
    /// Conventional data base.
    pub const DATA_BASE: u64 = 0x60_0000;
    /// Conventional PLT base for extern stubs.
    pub const PLT_BASE: u64 = 0x50_0000;

    /// Creates a builder with conventional section bases.
    pub fn new() -> BinaryBuilder {
        BinaryBuilder {
            text_base: Self::TEXT_BASE,
            data_base: Self::DATA_BASE,
            plt_base: Self::PLT_BASE,
            text: Vec::new(),
            functions: Vec::new(),
            globals: Vec::new(),
            externs: Vec::new(),
            extern_by_name: BTreeMap::new(),
        }
    }

    /// Address where the next function will start.
    pub fn next_function_addr(&self) -> u64 {
        // 16-byte align, as compilers do.
        let cur = self.text_base + self.text.len() as u64;
        (cur + 15) & !15
    }

    /// Adds a function from pre-assembled bytes that were encoded at
    /// [`BinaryBuilder::next_function_addr`].
    pub fn add_function(&mut self, name: &str, bytes: Vec<u8>) -> u64 {
        let addr = self.next_function_addr();
        while self.text_base + self.text.len() as u64 != addr {
            self.text.push(0x90); // nop padding
        }
        let size = bytes.len() as u64;
        self.text.extend_from_slice(&bytes);
        self.functions.push(FuncSym {
            name: name.to_string(),
            addr,
            size,
        });
        addr
    }

    /// Declares (or returns the existing stub address of) an external
    /// function.
    pub fn declare_extern(&mut self, name: &str) -> u64 {
        if let Some(a) = self.extern_by_name.get(name) {
            return *a;
        }
        let addr = self.plt_base + 16 * self.externs.len() as u64;
        self.externs.push(ExternSym {
            name: name.to_string(),
            addr,
        });
        self.extern_by_name.insert(name.to_string(), addr);
        addr
    }

    /// Adds a global data object, returning its address.
    pub fn add_global(&mut self, name: &str, size: u64, init: Vec<u8>) -> u64 {
        let addr = self
            .globals
            .last()
            .map_or(self.data_base, |g| (g.addr + g.size + 15) & !15);
        self.globals.push(Global {
            name: name.to_string(),
            addr,
            size,
            init,
        });
        addr
    }

    /// Finalizes the image.
    pub fn finish(self) -> Binary {
        Binary {
            text_base: self.text_base,
            text: self.text,
            functions: self.functions,
            globals: self.globals,
            externs: self.externs,
        }
    }
}

impl Default for BinaryBuilder {
    fn default() -> Self {
        BinaryBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_layout() {
        let mut b = BinaryBuilder::new();
        let g1 = b.add_global("counter", 8, vec![]);
        let g2 = b.add_global("table", 256, vec![1, 2, 3]);
        assert_eq!(g1, BinaryBuilder::DATA_BASE);
        assert!(g2 >= g1 + 8);
        let e1 = b.declare_extern("printf");
        let e2 = b.declare_extern("printf");
        assert_eq!(e1, e2);
        let e3 = b.declare_extern("malloc");
        assert_ne!(e1, e3);

        let f = b.add_function("main", vec![0xC3]);
        assert_eq!(f, BinaryBuilder::TEXT_BASE);
        let f2 = b.add_function("helper", vec![0x90, 0xC3]);
        assert_eq!(f2 % 16, 0);

        let bin = b.finish();
        assert_eq!(bin.function_by_name("main").unwrap().addr, f);
        assert_eq!(bin.function_at(f2 + 1).unwrap().name, "helper");
        assert_eq!(bin.global_at(g2 + 10).unwrap().name, "table");
        assert_eq!(bin.extern_at(e3).unwrap().name, "malloc");
        assert_eq!(
            bin.code_of(bin.function_by_name("main").unwrap()),
            Some(&[0xC3][..])
        );
    }
}
