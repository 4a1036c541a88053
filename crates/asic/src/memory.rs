//! Functional node memory: the EDRAM and DDR address spaces.
//!
//! The SCU DMA engines have *direct* access to node memory — "data is not
//! copied to a different memory location before it is sent" (§2.2) — so the
//! functional execution engine needs real storage the DMA descriptors can
//! address. Words are 64 bits, the unit of both the FPU and the mesh
//! network's normal data transfers.
//!
//! Address map (bytes):
//!
//! | region | base          | size                    |
//! |--------|---------------|-------------------------|
//! | EDRAM  | `0x0000_0000` | 4 MB (on-chip)          |
//! | DDR    | `0x1000_0000` | 128 MB DIMM (≤ 2 GB)    |
//!
//! Both regions are allocated lazily — EDRAM in 4 kB pages, DDR in 1 MB
//! chunks — so the sharded engine can hold all 12,288 functional nodes of
//! the full machine in host memory at once: a node pays only for the
//! footprint it actually touches, not for its 4 MB EDRAM address space.
//! The page tables are sparse too: a sorted list of the pages a node
//! touched, so an untouched region costs no bytes at all. An EDRAM page is
//! one allocation holding its data words, check bytes and touched bitmap
//! inline, so a node that stages a few words (a global sum's scratch, a
//! one-site block) pays ~4.7 kB for each 4 kB page they fall in.
//!
//! Every stored word carries a SEC-DED (72,64) check byte (§2.1: EDRAM
//! rows "+ ECC"; the DDR DIMMs are the industry 72/64 parts). Reads decode
//! through [`crate::ecc`]: a single flipped bit is corrected in place and
//! counted, a double flip latches a *machine check* — the access still
//! completes (the DMA engines stream; the exception is imprecise) but the
//! node is condemned: the health machinery reads the count in
//! [`MemStats::machine_checks`] and treats a nonzero count like a node
//! casualty. [`NodeMemory::machine_check`] keeps the address of the first
//! uncorrectable word, the node's fault record, which the unit tests pin
//! so that a change to the read path must latch the same word. A
//! deterministic [`NodeMemory::scrub`] pass walks the written footprint
//! the way the hardware scrubber walks refresh rows, so soft errors parked
//! in rarely-read words are still found and classified.

use crate::ecc::{self, EccVerdict};

/// Which physical memory an address falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemRegion {
    /// The 4 MB on-chip embedded DRAM.
    Edram,
    /// The external DDR SDRAM DIMM.
    Ddr,
}

/// Base byte address of the EDRAM region.
const EDRAM_BASE: u64 = 0x0000_0000;
/// Size of the on-chip EDRAM: 4 MB (§2.1).
pub const EDRAM_SIZE: u64 = 4 * 1024 * 1024;
/// Base byte address of the DDR region.
const DDR_BASE: u64 = 0x1000_0000;
/// Maximum external DDR size: 2 GB (§2.1: "up to 2 GBytes of memory per
/// node can be used").
pub const DDR_MAX_SIZE: u64 = 2 * 1024 * 1024 * 1024;

/// Word size in bytes (64-bit words everywhere: FPU and mesh transfers).
pub const WORD_BYTES: u64 = 8;

/// Whether a working set of `bytes` fits the 4 MB on-chip EDRAM — the
/// cliff between the 16 B/cycle prefetched port and the ~3× slower DDR
/// path (§4's drop to ~30% of peak for large local volumes). Storing
/// fields at single precision halves the footprint, so working sets that
/// spill in double precision can stay on chip.
pub const fn fits_edram(bytes: u64) -> bool {
    bytes <= EDRAM_SIZE
}

const DDR_CHUNK_WORDS: usize = 128 * 1024; // 1 MB of u64 words
const EDRAM_PAGE_WORDS: usize = 512; // 4 kB of u64 words

/// The installed DDR DIMM: 128 MB, the common part of §4's machine (the
/// 4096-node machine mixes 128 MB and 256 MB DIMMs).
const DIMM_BYTES: u64 = 128 * 1024 * 1024;
const _: () = assert!(DIMM_BYTES <= DDR_MAX_SIZE, "DDR DIMM larger than 2 GB");
const _: () = assert!(
    DIMM_BYTES.is_multiple_of(DDR_CHUNK_WORDS as u64 * WORD_BYTES),
    "DDR size must be a multiple of 1 MB"
);

/// One lazily-allocated 4 kB page of EDRAM: data words, ECC check bytes,
/// and the touched bitmap the scrubber walks (one bit per word, set when a
/// word has ever been written or corrupted), all inline in one box.
#[derive(Debug)]
struct EdramPage {
    data: [u64; EDRAM_PAGE_WORDS],
    check: [u8; EDRAM_PAGE_WORDS],
    touched: [u64; EDRAM_PAGE_WORDS / 64],
}

impl EdramPage {
    fn new() -> Box<EdramPage> {
        Box::new(EdramPage {
            data: [0; EDRAM_PAGE_WORDS],
            check: [0; EDRAM_PAGE_WORDS],
            touched: [0; EDRAM_PAGE_WORDS / 64],
        })
    }
}

/// One lazily-allocated 1 MB chunk of DDR: data words and check bytes.
#[derive(Debug)]
struct DdrChunk {
    data: Box<[u64]>,
    check: Box<[u8]>,
}

impl DdrChunk {
    fn new() -> DdrChunk {
        DdrChunk {
            data: vec![0; DDR_CHUNK_WORDS].into_boxed_slice(),
            check: vec![0; DDR_CHUNK_WORDS].into_boxed_slice(),
        }
    }
}

/// The pages of one region a node has touched, in ascending page order,
/// with the index of the last one hit: the bookkeeping grows with the
/// footprint, not with the address space, and a run of accesses to one
/// page (a DMA walking a block) finds it without a search.
#[derive(Debug)]
struct Pages<P> {
    entries: Vec<(usize, P)>,
    last: usize,
}

impl<P> Pages<P> {
    const fn new() -> Pages<P> {
        Pages {
            entries: Vec::new(),
            last: 0,
        }
    }

    /// Index of `page` in `entries`, or where it would be inserted. The
    /// entry as many places past the last hit as `page` is pages past the
    /// hit's page is tried first: that is the last hit itself on a repeat,
    /// and the right entry anywhere in a run of consecutive touched pages
    /// (a node's staging area), so interleaved DMA streams find their pages
    /// without a search.
    fn find(&mut self, page: usize) -> Result<usize, usize> {
        if let Some(&(hit, _)) = self.entries.get(self.last) {
            let guess = self.last.wrapping_add(page.wrapping_sub(hit));
            if self.entries.get(guess).is_some_and(|e| e.0 == page) {
                self.last = guess;
                return Ok(guess);
            }
        }
        let found = self.entries.binary_search_by_key(&page, |e| e.0);
        if let Ok(i) = found {
            self.last = i;
        }
        found
    }

    fn get(&mut self, page: usize) -> Option<&P> {
        let i = self.find(page).ok()?;
        Some(&self.entries[i].1)
    }

    fn get_or_insert_with(&mut self, page: usize, make: impl FnOnce() -> P) -> &mut P {
        let i = self.find(page).unwrap_or_else(|i| {
            self.entries.insert(i, (page, make()));
            self.last = i;
            i
        });
        &mut self.entries[i].1
    }
}

/// Running access statistics, split by region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// 64-bit words read from EDRAM.
    pub edram_reads: u64,
    /// 64-bit words written to EDRAM.
    pub edram_writes: u64,
    /// 64-bit words read from DDR.
    pub ddr_reads: u64,
    /// 64-bit words written to DDR.
    pub ddr_writes: u64,
    /// Single-bit soft errors the SEC-DED code corrected (on read or
    /// during a scrub).
    pub ecc_corrected: u64,
    /// Uncorrectable (2+-bit) words encountered: each one latched a
    /// machine check.
    pub machine_checks: u64,
}

/// Errors raised by functional memory accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Address is outside both regions.
    Unmapped {
        /// The offending byte address.
        addr: u64,
    },
    /// Address is not 8-byte aligned.
    Unaligned {
        /// The offending byte address.
        addr: u64,
    },
    /// Address is in the DDR region but beyond the installed DIMM.
    BeyondDimm {
        /// The offending byte address.
        addr: u64,
        /// Installed DDR bytes.
        installed: u64,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Unmapped { addr } => write!(f, "unmapped address {addr:#x}"),
            MemError::Unaligned { addr } => write!(f, "unaligned word access at {addr:#x}"),
            MemError::BeyondDimm { addr, installed } => {
                write!(
                    f,
                    "address {addr:#x} beyond installed DDR ({installed} bytes)"
                )
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Outcome of one [`NodeMemory::scrub`] pass over the written footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Words the scrubber decoded (the written/corrupted footprint —
    /// untouched all-zero rows are valid codewords by construction).
    pub scanned_words: u64,
    /// Single-bit errors corrected in place by this pass.
    pub corrected: u64,
    /// Uncorrectable words found by this pass (machine checks latched).
    pub machine_checks: u64,
    /// Modelled cost of the pass: one EDRAM port beat (16 bytes) per two
    /// words plus an 11-cycle page miss per 128-byte row touched.
    pub cycles: u64,
}

/// The functional memory of one node.
#[derive(Debug)]
pub struct NodeMemory {
    edram_pages: Pages<Box<EdramPage>>,
    ddr_chunks: Pages<DdrChunk>,
    stats: MemStats,
    machine_check: Option<u64>,
}

impl NodeMemory {
    /// A node with the paper's common 128 MB DIMM, nothing touched yet.
    pub fn with_128mb_dimm() -> NodeMemory {
        NodeMemory {
            edram_pages: Pages::new(),
            ddr_chunks: Pages::new(),
            stats: MemStats::default(),
            machine_check: None,
        }
    }

    /// Classify a byte address.
    fn region_of(addr: u64) -> Result<MemRegion, MemError> {
        if addr < EDRAM_BASE + EDRAM_SIZE {
            Ok(MemRegion::Edram)
        } else if (DDR_BASE..DDR_BASE + DDR_MAX_SIZE).contains(&addr) {
            Ok(MemRegion::Ddr)
        } else {
            Err(MemError::Unmapped { addr })
        }
    }

    /// Access statistics so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    fn check(&self, addr: u64) -> Result<(MemRegion, usize), MemError> {
        if !addr.is_multiple_of(WORD_BYTES) {
            return Err(MemError::Unaligned { addr });
        }
        match Self::region_of(addr)? {
            MemRegion::Edram => Ok((
                MemRegion::Edram,
                ((addr - EDRAM_BASE) / WORD_BYTES) as usize,
            )),
            MemRegion::Ddr => {
                let off = addr - DDR_BASE;
                if off >= DIMM_BYTES {
                    return Err(MemError::BeyondDimm {
                        addr,
                        installed: DIMM_BYTES,
                    });
                }
                Ok((MemRegion::Ddr, (off / WORD_BYTES) as usize))
            }
        }
    }

    /// Decode a stored `(data, check)` pair, correcting or latching a
    /// machine check. Returns `(value, fixed)`: the value the access
    /// observes and the `(data, check)` to store back, if any.
    fn resolve(&mut self, addr: u64, data: u64, check: u8) -> (u64, Option<(u64, u8)>) {
        match ecc::decode(data, check) {
            EccVerdict::Clean => (data, None),
            EccVerdict::CorrectedData(fixed) => {
                self.stats.ecc_corrected += 1;
                (fixed, Some((fixed, check)))
            }
            EccVerdict::CorrectedCheck(fixed) => {
                self.stats.ecc_corrected += 1;
                (data, Some((data, fixed)))
            }
            EccVerdict::DoubleError => {
                // Imprecise machine check: the streaming access completes
                // with the raw (corrupt) word while the fault is latched
                // for the health readout — no software on this node can
                // un-latch it.
                self.stats.machine_checks += 1;
                self.machine_check.get_or_insert(addr);
                (data, None)
            }
        }
    }

    /// Read one 64-bit word through the ECC decoder.
    pub fn read_word(&mut self, addr: u64) -> Result<u64, MemError> {
        let (region, idx) = self.check(addr)?;
        match region {
            MemRegion::Edram => self.stats.edram_reads += 1,
            MemRegion::Ddr => self.stats.ddr_reads += 1,
        }
        let (data, check) = self.peek_raw(region, idx);
        let (value, fixed) = self.resolve(addr, data, check);
        if let Some((d, k)) = fixed {
            self.store_raw(region, idx, d, k);
        }
        Ok(value)
    }

    /// Read the stored `(data, check)` pair without decoding or statistics
    /// (never-written words of unallocated pages and chunks read as the
    /// all-zero codeword).
    fn peek_raw(&mut self, region: MemRegion, idx: usize) -> (u64, u8) {
        match region {
            MemRegion::Edram => {
                let (page, within) = (idx / EDRAM_PAGE_WORDS, idx % EDRAM_PAGE_WORDS);
                self.edram_pages
                    .get(page)
                    .map_or((0, 0), |p| (p.data[within], p.check[within]))
            }
            MemRegion::Ddr => {
                let (chunk, within) = (idx / DDR_CHUNK_WORDS, idx % DDR_CHUNK_WORDS);
                self.ddr_chunks
                    .get(chunk)
                    .map_or((0, 0), |c| (c.data[within], c.check[within]))
            }
        }
    }

    /// Store `(data, check)` without touching statistics (the ECC
    /// write-back and injection path).
    fn store_raw(&mut self, region: MemRegion, idx: usize, data: u64, check: u8) {
        match region {
            MemRegion::Edram => {
                let (page, within) = (idx / EDRAM_PAGE_WORDS, idx % EDRAM_PAGE_WORDS);
                let p = self.edram_pages.get_or_insert_with(page, EdramPage::new);
                p.data[within] = data;
                p.check[within] = check;
                p.touched[within / 64] |= 1 << (within % 64);
            }
            MemRegion::Ddr => {
                let (chunk, within) = (idx / DDR_CHUNK_WORDS, idx % DDR_CHUNK_WORDS);
                let c = self.ddr_chunks.get_or_insert_with(chunk, DdrChunk::new);
                c.data[within] = data;
                c.check[within] = check;
            }
        }
    }

    /// Write one 64-bit word (check bits regenerated).
    pub fn write_word(&mut self, addr: u64, value: u64) -> Result<(), MemError> {
        let (region, idx) = self.check(addr)?;
        match region {
            MemRegion::Edram => self.stats.edram_writes += 1,
            MemRegion::Ddr => self.stats.ddr_writes += 1,
        }
        self.store_raw(region, idx, value, ecc::encode(value));
        Ok(())
    }

    /// Flip bit `bit` (0..64) of the *stored* word at `addr` — an injected
    /// EDRAM or DDR soft error. The check byte is deliberately left alone
    /// (a soft error upsets a cell, it does not re-encode the row), so the
    /// next ECC-decoded read or scrub sees the corruption: one flipped bit
    /// is corrected, two in the same word become a machine check. Returns
    /// the raw stored word after the flip.
    pub fn flip_bit(&mut self, addr: u64, bit: u32) -> Result<u64, MemError> {
        assert!(bit < 64, "bit index {bit} outside a 64-bit word");
        let (region, idx) = self.check(addr)?;
        let (data, check) = self.peek_raw(region, idx);
        let flipped = data ^ (1u64 << bit);
        self.store_raw(region, idx, flipped, check);
        Ok(flipped)
    }

    /// The latched machine check, if any: the address of the first
    /// uncorrectable word encountered. Sticky for the node's lifetime.
    pub fn machine_check(&self) -> Option<u64> {
        self.machine_check
    }

    /// One deterministic background-scrubber pass (§2.1's ECC made
    /// proactive): decode every word of the written footprint, correcting
    /// single-bit upsets in place and latching machine checks for
    /// uncorrectable words. Untouched rows are all-zero codewords and are
    /// skipped wholesale, so the pass prices out by data actually resident.
    pub fn scrub(&mut self) -> ScrubReport {
        let mut report = ScrubReport::default();
        // 128-byte rows holding a scanned word, each one EDRAM page miss.
        let mut rows = 0;
        // EDRAM: walk each allocated page's touch bitmap 64 words (four
        // rows) at a time, in ascending address order (unallocated pages
        // were never written or corrupted).
        for entry in 0..self.edram_pages.entries.len() {
            let (page, touched) = {
                let (page, p) = &self.edram_pages.entries[entry];
                (*page, p.touched)
            };
            for (group, &mask) in touched.iter().enumerate() {
                rows += (0..4)
                    .filter(|row| (mask >> (16 * row)) & 0xFFFF != 0)
                    .count() as u64;
                for bit in (0..64).filter(|bit| mask & (1 << bit) != 0) {
                    let idx = page * EDRAM_PAGE_WORDS + group * 64 + bit;
                    let addr = EDRAM_BASE + idx as u64 * WORD_BYTES;
                    self.scrub_word(MemRegion::Edram, idx, addr, &mut report);
                }
            }
        }
        // DDR: walk every allocated chunk in full.
        for entry in 0..self.ddr_chunks.entries.len() {
            let chunk = self.ddr_chunks.entries[entry].0;
            for within in 0..DDR_CHUNK_WORDS {
                let idx = chunk * DDR_CHUNK_WORDS + within;
                let addr = DDR_BASE + idx as u64 * WORD_BYTES;
                self.scrub_word(MemRegion::Ddr, idx, addr, &mut report);
            }
            rows += (DDR_CHUNK_WORDS / 16) as u64;
        }
        // EDRAM-port pricing: 16 bytes (two words) per cycle, plus an
        // 11-cycle page miss per 128-byte (16-word) row.
        report.cycles = report.scanned_words.div_ceil(2) + rows * 11;
        report
    }

    fn scrub_word(&mut self, region: MemRegion, idx: usize, addr: u64, report: &mut ScrubReport) {
        let (data, check) = self.peek_raw(region, idx);
        report.scanned_words += 1;
        match ecc::decode(data, check) {
            EccVerdict::Clean => {}
            EccVerdict::CorrectedData(fixed) => {
                self.stats.ecc_corrected += 1;
                report.corrected += 1;
                self.store_raw(region, idx, fixed, check);
            }
            EccVerdict::CorrectedCheck(fixed) => {
                self.stats.ecc_corrected += 1;
                report.corrected += 1;
                self.store_raw(region, idx, data, fixed);
            }
            EccVerdict::DoubleError => {
                self.stats.machine_checks += 1;
                report.machine_checks += 1;
                self.machine_check.get_or_insert(addr);
            }
        }
    }

    /// Read `count` consecutive words starting at `addr`.
    pub fn read_block(&mut self, addr: u64, count: usize) -> Result<Vec<u64>, MemError> {
        (0..count)
            .map(|i| self.read_word(addr + i as u64 * WORD_BYTES))
            .collect()
    }

    /// Write consecutive words starting at `addr`.
    pub fn write_block(&mut self, addr: u64, words: &[u64]) -> Result<(), MemError> {
        for (i, &w) in words.iter().enumerate() {
            self.write_word(addr + i as u64 * WORD_BYTES, w)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edram_read_write_roundtrip() {
        let mut m = NodeMemory::with_128mb_dimm();
        m.write_word(0x100, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.read_word(0x100).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn ddr_is_lazily_allocated_and_zeroed() {
        let mut m = NodeMemory::with_128mb_dimm();
        assert_eq!(m.read_word(DDR_BASE + 0x10_0000).unwrap(), 0);
        m.write_word(DDR_BASE + 0x10_0000, 7).unwrap();
        assert_eq!(m.read_word(DDR_BASE + 0x10_0000).unwrap(), 7);
        // A different chunk is still zero.
        assert_eq!(m.read_word(DDR_BASE).unwrap(), 0);
    }

    #[test]
    fn stats_split_by_region() {
        let mut m = NodeMemory::with_128mb_dimm();
        m.write_word(0x0, 1).unwrap();
        m.read_word(0x0).unwrap();
        m.read_word(0x0).unwrap();
        m.write_word(DDR_BASE, 2).unwrap();
        let s = m.stats();
        assert_eq!(s.edram_writes, 1);
        assert_eq!(s.edram_reads, 2);
        assert_eq!(s.ddr_writes, 1);
        assert_eq!(s.ddr_reads, 0);
    }

    #[test]
    fn unaligned_access_rejected() {
        let mut m = NodeMemory::with_128mb_dimm();
        assert_eq!(m.read_word(0x101), Err(MemError::Unaligned { addr: 0x101 }));
    }

    #[test]
    fn unmapped_and_beyond_dimm_rejected() {
        let mut m = NodeMemory::with_128mb_dimm();
        assert!(matches!(
            m.read_word(0x0800_0000),
            Err(MemError::Unmapped { .. })
        ));
        let beyond = DDR_BASE + DIMM_BYTES;
        assert!(matches!(
            m.read_word(beyond),
            Err(MemError::BeyondDimm { .. })
        ));
    }

    #[test]
    fn edram_is_exactly_4mb() {
        let mut m = NodeMemory::with_128mb_dimm();
        let last = EDRAM_SIZE - WORD_BYTES;
        m.write_word(last, 42).unwrap();
        assert_eq!(m.read_word(last).unwrap(), 42);
        // One word past EDRAM is a hole before DDR_BASE.
        assert!(matches!(
            m.read_word(EDRAM_SIZE),
            Err(MemError::Unmapped { .. })
        ));
    }

    #[test]
    fn block_roundtrip() {
        let mut m = NodeMemory::with_128mb_dimm();
        let words = vec![1, 2, 3, 4, 5];
        m.write_block(0x1000, &words).unwrap();
        assert_eq!(m.read_block(0x1000, 5).unwrap(), words);
    }

    #[test]
    fn edram_fit_cliff_moves_with_width() {
        // A working set that spills at double precision fits at single:
        // 300k complex numbers = 4.8 MB double, 2.4 MB single.
        let complexes = 300_000;
        assert!(!fits_edram(complexes * 16));
        assert!(fits_edram(complexes * 8));
    }

    #[test]
    fn single_bit_flip_is_corrected_on_read() {
        let mut m = NodeMemory::with_128mb_dimm();
        m.write_word(0x200, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        m.flip_bit(0x200, 17).unwrap();
        // The read observes the *original* value and heals storage.
        assert_eq!(m.read_word(0x200).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.stats().ecc_corrected, 1);
        assert_eq!(m.stats().machine_checks, 0);
        assert_eq!(m.machine_check(), None);
        // Healed in place: the next read corrects nothing.
        assert_eq!(m.read_word(0x200).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.stats().ecc_corrected, 1);
    }

    #[test]
    fn double_bit_flip_latches_a_machine_check() {
        let mut m = NodeMemory::with_128mb_dimm();
        m.write_word(0x300, 0x0123_4567_89AB_CDEF).unwrap();
        m.flip_bit(0x300, 3).unwrap();
        m.flip_bit(0x300, 40).unwrap();
        // Imprecise exception: the access completes (raw data), but the
        // machine check is latched and sticky.
        let corrupt = 0x0123_4567_89AB_CDEF ^ (1 << 3) ^ (1 << 40);
        assert_eq!(m.read_word(0x300).unwrap(), corrupt);
        assert_eq!(m.stats().machine_checks, 1);
        assert_eq!(m.stats().ecc_corrected, 0);
        assert_eq!(m.machine_check(), Some(0x300));
    }

    #[test]
    fn ddr_soft_errors_are_covered_too() {
        let mut m = NodeMemory::with_128mb_dimm();
        let addr = DDR_BASE + 0x4_0000;
        m.write_word(addr, 0x5555_5555_5555_5555).unwrap();
        m.flip_bit(addr, 0).unwrap();
        assert_eq!(m.read_word(addr).unwrap(), 0x5555_5555_5555_5555);
        assert_eq!(m.stats().ecc_corrected, 1);
        // A flip into a never-written (unallocated) DDR word corrupts an
        // all-zero codeword — still corrected.
        let cold = DDR_BASE + 0x30_0000;
        m.flip_bit(cold, 9).unwrap();
        assert_eq!(m.read_word(cold).unwrap(), 0);
        assert_eq!(m.stats().ecc_corrected, 2);
    }

    #[test]
    fn scrub_finds_parked_errors_without_reads() {
        let mut m = NodeMemory::with_128mb_dimm();
        m.write_word(0x400, 0xAAAA_AAAA_AAAA_AAAA).unwrap();
        m.write_word(0x408, 7).unwrap();
        m.flip_bit(0x400, 5).unwrap(); // correctable, never read
        m.flip_bit(0x408, 1).unwrap();
        m.flip_bit(0x408, 2).unwrap(); // uncorrectable, never read
        let report = m.scrub();
        assert_eq!(report.corrected, 1);
        assert_eq!(report.machine_checks, 1);
        assert_eq!(m.machine_check(), Some(0x408));
        assert_eq!(m.read_word(0x400).unwrap(), 0xAAAA_AAAA_AAAA_AAAA);
        // A second pass over healed storage finds nothing new (the
        // uncorrectable word is still uncorrectable and recounted).
        let again = m.scrub();
        assert_eq!(again.corrected, 0);
        assert_eq!(again.machine_checks, 1);
    }

    #[test]
    fn scrub_skips_untouched_rows_and_prices_the_footprint() {
        let mut m = NodeMemory::with_128mb_dimm();
        let report = m.scrub();
        assert_eq!(report, ScrubReport::default());
        // Two touched EDRAM words: 1 port beat + one 11-cycle row miss.
        m.write_word(0x0, 1).unwrap();
        m.write_word(0x8, 2).unwrap();
        let report = m.scrub();
        assert_eq!(report.scanned_words, 2);
        assert_eq!(report.cycles, 12);
        // Scrubbing is not an access: read/write stats are untouched.
        assert_eq!(m.stats().edram_reads, 0);
        // Two words in different rows: 1 port beat + two row misses.
        let mut m = NodeMemory::with_128mb_dimm();
        m.write_word(0x0, 1).unwrap();
        m.write_word(0x80, 2).unwrap();
        let report = m.scrub();
        assert_eq!(report.scanned_words, 2);
        assert_eq!(report.cycles, 1 + 2 * 11);
    }

    /// The store's contract spelled out over a map from address to the
    /// stored `(data, check)` pair: an unstored word reads as the all-zero
    /// codeword, a scrub decodes every stored EDRAM word and every word of
    /// a DDR chunk holding a stored one, in ascending address order.
    #[derive(Default)]
    struct Oracle {
        words: std::collections::BTreeMap<u64, (u64, u8)>,
        stats: MemStats,
        machine_check: Option<u64>,
    }

    impl Oracle {
        fn check(addr: u64) -> Result<MemRegion, MemError> {
            if !addr.is_multiple_of(WORD_BYTES) {
                Err(MemError::Unaligned { addr })
            } else if addr < EDRAM_SIZE {
                Ok(MemRegion::Edram)
            } else if !(DDR_BASE..DDR_BASE + DDR_MAX_SIZE).contains(&addr) {
                Err(MemError::Unmapped { addr })
            } else if addr >= DDR_BASE + DIMM_BYTES {
                Err(MemError::BeyondDimm {
                    addr,
                    installed: DIMM_BYTES,
                })
            } else {
                Ok(MemRegion::Ddr)
            }
        }

        /// Decode the word at `addr`, healing it in place; whether a
        /// single-bit error was corrected and whether it was uncorrectable.
        fn decode(&mut self, addr: u64) -> (u64, bool, bool) {
            let (data, check) = self.words.get(&addr).copied().unwrap_or((0, 0));
            match ecc::decode(data, check) {
                EccVerdict::Clean => (data, false, false),
                EccVerdict::CorrectedData(fixed) => {
                    self.words.insert(addr, (fixed, check));
                    (fixed, true, false)
                }
                EccVerdict::CorrectedCheck(fixed) => {
                    self.words.insert(addr, (data, fixed));
                    (data, true, false)
                }
                EccVerdict::DoubleError => {
                    self.machine_check.get_or_insert(addr);
                    (data, false, true)
                }
            }
        }

        fn read_word(&mut self, addr: u64) -> Result<u64, MemError> {
            match Self::check(addr)? {
                MemRegion::Edram => self.stats.edram_reads += 1,
                MemRegion::Ddr => self.stats.ddr_reads += 1,
            }
            let (value, corrected, uncorrectable) = self.decode(addr);
            self.stats.ecc_corrected += u64::from(corrected);
            self.stats.machine_checks += u64::from(uncorrectable);
            Ok(value)
        }

        fn write_word(&mut self, addr: u64, value: u64) -> Result<(), MemError> {
            match Self::check(addr)? {
                MemRegion::Edram => self.stats.edram_writes += 1,
                MemRegion::Ddr => self.stats.ddr_writes += 1,
            }
            self.words.insert(addr, (value, ecc::encode(value)));
            Ok(())
        }

        fn flip_bit(&mut self, addr: u64, bit: u32) -> Result<u64, MemError> {
            Self::check(addr)?;
            let (data, check) = self.words.get(&addr).copied().unwrap_or((0, 0));
            self.words.insert(addr, (data ^ (1 << bit), check));
            Ok(data ^ (1 << bit))
        }

        fn scrub(&mut self) -> ScrubReport {
            let chunk_bytes = DDR_CHUNK_WORDS as u64 * WORD_BYTES;
            let mut scan: Vec<u64> = self
                .words
                .keys()
                .copied()
                .filter(|&a| a < EDRAM_SIZE)
                .collect();
            let rows: std::collections::BTreeSet<u64> = scan.iter().map(|a| a / 128).collect();
            let chunks: std::collections::BTreeSet<u64> = self
                .words
                .keys()
                .filter(|&&a| a >= DDR_BASE)
                .map(|a| (a - DDR_BASE) / chunk_bytes)
                .collect();
            for &chunk in &chunks {
                let base = DDR_BASE + chunk * chunk_bytes;
                scan.extend((0..DDR_CHUNK_WORDS as u64).map(|w| base + w * WORD_BYTES));
            }
            let mut report = ScrubReport {
                scanned_words: scan.len() as u64,
                cycles: (scan.len() as u64).div_ceil(2)
                    + (rows.len() as u64 + chunks.len() as u64 * chunk_bytes / 128) * 11,
                ..ScrubReport::default()
            };
            for addr in scan {
                let (_, corrected, uncorrectable) = self.decode(addr);
                report.corrected += u64::from(corrected);
                report.machine_checks += u64::from(uncorrectable);
            }
            self.stats.ecc_corrected += report.corrected;
            self.stats.machine_checks += report.machine_checks;
            report
        }
    }

    #[test]
    fn the_page_store_agrees_with_a_map_oracle() {
        let page = EDRAM_PAGE_WORDS as u64 * WORD_BYTES;
        let chunk = DDR_CHUNK_WORDS as u64 * WORD_BYTES;
        let dimm_end = DDR_BASE + DIMM_BYTES;
        let mut addrs = vec![
            // Both ends of EDRAM and its page boundaries, touched out of
            // address order so pages are inserted in the middle of the list.
            0,
            8,
            EDRAM_SIZE - 8,
            EDRAM_SIZE - page,
            EDRAM_SIZE - page - 8,
            // Two DDR chunks: the first and the DIMM's last.
            DDR_BASE,
            DDR_BASE + chunk - 8,
            dimm_end - chunk,
            dimm_end - 8,
            // Every access path's error.
            EDRAM_SIZE,
            DDR_BASE - 8,
            DDR_BASE + DDR_MAX_SIZE,
            0x101,
            DDR_BASE + 4,
            dimm_end,
        ];
        for k in [1, 2, 3, 7, 100, 511, 600, 1023] {
            addrs.extend([k * page - 8, k * page, k * page + 0x78, k * page + 0x80]);
        }
        // SplitMix64, seeded: the same few thousand operations every run.
        let mut state = 0x5EED_0042u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut m = NodeMemory::with_128mb_dimm();
        let mut oracle = Oracle::default();
        for step in 0..3_000 {
            // A quarter of the accesses land anywhere in the first 12
            // pages, so the touched set grows runs with one-page holes.
            let pick = next();
            let addr = match pick % 4 {
                0 => ((pick >> 8) % (12 * page)) & !7,
                _ => addrs[((pick >> 8) % addrs.len() as u64) as usize],
            };
            let roll = next();
            match roll % 100 {
                0..=39 => assert_eq!(
                    m.write_word(addr, roll),
                    oracle.write_word(addr, roll),
                    "step {step}: write {addr:#x}"
                ),
                40..=79 => assert_eq!(
                    m.read_word(addr),
                    oracle.read_word(addr),
                    "step {step}: read {addr:#x}"
                ),
                80..=98 => {
                    let flips = 1 + (roll >> 8) % 2;
                    for f in 0..flips {
                        let bit = ((roll >> (16 + 8 * f)) % 64) as u32;
                        assert_eq!(
                            m.flip_bit(addr, bit),
                            oracle.flip_bit(addr, bit),
                            "step {step}: flip {addr:#x} bit {bit}"
                        );
                    }
                }
                _ => assert_eq!(m.scrub(), oracle.scrub(), "step {step}: scrub"),
            }
            assert_eq!(m.stats(), oracle.stats, "step {step}: stats");
            assert_eq!(m.machine_check(), oracle.machine_check, "step {step}");
        }
        assert_eq!(m.scrub(), oracle.scrub(), "final scrub");
    }

    #[test]
    fn region_classification() {
        assert_eq!(NodeMemory::region_of(0).unwrap(), MemRegion::Edram);
        assert_eq!(NodeMemory::region_of(DDR_BASE).unwrap(), MemRegion::Ddr);
        assert!(NodeMemory::region_of(EDRAM_SIZE).is_err());
    }
}
