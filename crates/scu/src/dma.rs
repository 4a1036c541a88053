//! SCU DMA engines with block-strided descriptors.
//!
//! §2.2: "The SCU's have DMA engines allowing block strided access to local
//! memory … the SCUs are told the address of the starting word of a
//! transfer and the SCU DMA engines handle the data from there." This
//! zero-copy path — the DMA reads the words straight out of the physics
//! arrays — is where QCDOC's low latency comes from.

/// Word size in bytes, fixed by the 64-bit transfer unit.
pub const WORD_BYTES: u64 = 8;

/// A block-strided DMA descriptor.
///
/// The engine walks `blocks` blocks of `block_words` consecutive 64-bit
/// words; successive blocks start `stride_words` apart. A face of a 4-D
/// local volume is exactly such a pattern.
///
/// ```
/// use qcdoc_scu::dma::DmaDescriptor;
///
/// // Gather every fourth word, three times: the shape of a lattice face.
/// let d = DmaDescriptor { start: 0, block_words: 1, stride_words: 4, blocks: 3 };
/// assert_eq!(d.addresses().collect::<Vec<_>>(), vec![0, 32, 64]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaDescriptor {
    /// Byte address of the first word.
    pub start: u64,
    /// Words per contiguous block.
    pub block_words: u32,
    /// Distance between block starts, in words (may exceed `block_words`).
    pub stride_words: u32,
    /// Number of blocks.
    pub blocks: u32,
}

impl DmaDescriptor {
    /// A simple contiguous transfer of `words` 64-bit words.
    pub fn contiguous(start: u64, words: u32) -> DmaDescriptor {
        DmaDescriptor {
            start,
            block_words: words,
            stride_words: words,
            blocks: 1,
        }
    }

    /// Total number of words the descriptor covers.
    pub fn total_words(&self) -> u64 {
        self.block_words as u64 * self.blocks as u64
    }

    /// Byte address of word `i` in descriptor order.
    fn address_of(&self, i: u64) -> u64 {
        debug_assert!(i < self.total_words());
        let block = i / self.block_words as u64;
        let within = i % self.block_words as u64;
        self.start + (block * self.stride_words as u64 + within) * WORD_BYTES
    }

    /// Iterate over every word address in order.
    pub fn addresses(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.total_words()).map(|i| self.address_of(i))
    }
}

/// A running DMA engine: a descriptor plus a cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaEngine {
    desc: DmaDescriptor,
    cursor: u64,
}

impl DmaEngine {
    /// Start an engine on a descriptor.
    pub fn start(desc: DmaDescriptor) -> DmaEngine {
        DmaEngine { desc, cursor: 0 }
    }

    /// Address of the next word, or `None` when complete.
    pub fn peek(&self) -> Option<u64> {
        (self.cursor < self.desc.total_words()).then(|| self.desc.address_of(self.cursor))
    }

    /// Consume and return the next word address.
    pub fn next_address(&mut self) -> Option<u64> {
        let a = self.peek()?;
        self.cursor += 1;
        Some(a)
    }

    /// Whether the transfer is complete.
    pub fn done(&self) -> bool {
        self.cursor >= self.desc.total_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_addresses() {
        let d = DmaDescriptor::contiguous(0x1000, 4);
        let addrs: Vec<u64> = d.addresses().collect();
        assert_eq!(addrs, vec![0x1000, 0x1008, 0x1010, 0x1018]);
    }

    #[test]
    fn strided_addresses_walk_blocks() {
        // 3 blocks of 2 words, stride 8 words: the pattern of a lattice
        // face gather.
        let d = DmaDescriptor {
            start: 0,
            block_words: 2,
            stride_words: 8,
            blocks: 3,
        };
        let addrs: Vec<u64> = d.addresses().collect();
        assert_eq!(addrs, vec![0, 8, 64, 72, 128, 136]);
        assert_eq!(d.total_words(), 6);
    }

    #[test]
    fn engine_cursor_tracks_progress() {
        let d = DmaDescriptor::contiguous(0, 3);
        let mut e = DmaEngine::start(d);
        assert_eq!(e.cursor, 0);
        assert_eq!(e.next_address(), Some(0));
        assert_eq!(e.next_address(), Some(8));
        assert_eq!(e.cursor, 2);
        assert!(!e.done());
        assert_eq!(e.next_address(), Some(16));
        assert!(e.done());
        assert_eq!(e.next_address(), None);
    }
}
