//! Address newtypes.

use std::fmt;

/// Number of bytes in a cache line (64, as in the paper's configuration).
pub const CACHE_LINE_BYTES: u64 = 64;

/// Number of low address bits implied by cache-line alignment (6).
pub const LINE_OFFSET_BITS: u32 = 6;

/// Number of bytes in a (small) page, used by the virtual-to-physical
/// mapper in `triangel-workloads` (4 KiB).
pub const PAGE_BYTES: u64 = 4096;

/// Number of low address bits inside a page (12).
pub const PAGE_OFFSET_BITS: u32 = 12;

/// A byte address (physical unless a component states otherwise).
///
/// The paper treats addresses as physical "typically without loss of
/// generality" (Section 3.1); the simulator keeps the same convention and
/// performs virtual-to-physical translation in the workload layer.
///
/// # Examples
///
/// ```
/// use triangel_types::Addr;
///
/// let a = Addr::new(0x1040);
/// assert_eq!(a.line().index(), 0x41);
/// assert_eq!(a.page_number(), 0x1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates a byte address.
    pub const fn new(addr: u64) -> Self {
        Addr(addr)
    }

    /// Returns the raw byte address.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the cache line containing this address.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_OFFSET_BITS)
    }

    /// Returns the page number containing this address.
    pub const fn page_number(self) -> u64 {
        self.0 >> PAGE_OFFSET_BITS
    }

    /// Returns the byte offset inside the containing page.
    pub const fn page_offset(self) -> u64 {
        self.0 & (PAGE_BYTES - 1)
    }

    /// Returns this address displaced by `delta` bytes.
    pub const fn offset(self, delta: i64) -> Self {
        Addr(self.0.wrapping_add(delta as u64))
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> u64 {
        a.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

/// A cache-line address: a byte address with the 6 line-offset bits removed.
///
/// All cache and prefetcher structures in the simulator operate on line
/// addresses; the Markov table stores pairs of them (Section 2 of the
/// paper).
///
/// # Examples
///
/// ```
/// use triangel_types::{Addr, LineAddr};
///
/// let l = LineAddr::new(0x41);
/// assert_eq!(l.byte_addr(), Addr::new(0x1040));
/// assert_eq!(l.next(), LineAddr::new(0x42));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// The last line of the 64-bit byte address space. Every line a
    /// byte address maps to is at or below it; an index above it (for
    /// example one a negative stride wrapped past line 0) names no
    /// memory.
    pub const MAX: LineAddr = LineAddr(u64::MAX >> LINE_OFFSET_BITS);

    /// Creates a line address from a line index (byte address >> 6).
    pub const fn new(index: u64) -> Self {
        LineAddr(index)
    }

    /// Returns the line index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Returns the first byte address of the line.
    pub const fn byte_addr(self) -> Addr {
        Addr(self.0 << LINE_OFFSET_BITS)
    }

    /// Returns the immediately following line.
    pub const fn next(self) -> Self {
        LineAddr(self.0.wrapping_add(1))
    }

    /// Returns the line displaced by `delta` lines.
    pub const fn offset(self, delta: i64) -> Self {
        LineAddr(self.0.wrapping_add(delta as u64))
    }
}

impl From<u64> for LineAddr {
    fn from(v: u64) -> Self {
        LineAddr(v)
    }
}

impl From<LineAddr> for u64 {
    fn from(l: LineAddr) -> u64 {
        l.0
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0 << LINE_OFFSET_BITS)
    }
}

/// A program counter, used to localize prefetcher training (Section 2).
///
/// # Examples
///
/// ```
/// use triangel_types::Pc;
///
/// let pc = Pc::new(0x42);
/// assert_eq!(pc.get(), 0x42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(u64);

impl Pc {
    /// Creates a program counter.
    pub const fn new(pc: u64) -> Self {
        Pc(pc)
    }

    /// Returns the raw program-counter value.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl From<u64> for Pc {
    fn from(v: u64) -> Self {
        Pc(v)
    }
}

impl From<Pc> for u64 {
    fn from(p: Pc) -> u64 {
        p.0
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_roundtrip() {
        let a = Addr::new(0xDEAD_BEEF);
        let l = a.line();
        assert_eq!(l.byte_addr().get(), 0xDEAD_BEEF & !(CACHE_LINE_BYTES - 1));
        assert_eq!(l.byte_addr().line(), l);
    }

    #[test]
    fn page_math() {
        let a = Addr::new(0x1234_5678);
        assert_eq!(a.page_number(), 0x1234_5678 >> 12);
        assert_eq!(a.page_offset(), 0x678);
        assert_eq!(a.page_number() * PAGE_BYTES + a.page_offset(), a.get());
    }

    #[test]
    fn offsets_wrap_safely() {
        let l = LineAddr::new(0);
        assert_eq!(l.offset(-1).offset(1), l);
        assert!(l.offset(-1) > LineAddr::MAX);
        assert_eq!(Addr::new(u64::MAX).line(), LineAddr::MAX);
        let a = Addr::new(10);
        assert_eq!(a.offset(-4).get(), 6);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr::new(0x40).to_string(), "0x40");
        assert_eq!(LineAddr::new(1).to_string(), "0x40");
        assert_eq!(Pc::new(0x10).to_string(), "pc:0x10");
    }

    #[test]
    fn lines_within_one_page() {
        assert_eq!(PAGE_BYTES / CACHE_LINE_BYTES, 64);
    }
}
