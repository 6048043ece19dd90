//! Registered memory: word-atomic regions with remote keys.
//!
//! A [`Region`] is a block of shared memory addressable by byte offset but
//! stored as `AtomicU64` words, which gives us exactly the properties a
//! disaggregation substrate needs:
//!
//! * the Cowbird client library can publish ring entries with
//!   acquire/release word operations (the x86-TSO protocol of paper §4.3);
//! * an emulated NIC thread can "DMA" bytes in and out of the same region
//!   concurrently without data races (partial-word writes use CAS loops, so
//!   adjacent writers never clobber each other);
//! * the single-threaded simulator uses the same code with negligible cost.
//!
//! A [`RegionCatalog`] maps remote keys (rkeys) to regions, playing the role
//! of the NIC's memory translation and protection table.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Remote key identifying a registered region, as carried in a RETH.
pub type Rkey = u32;

/// Errors from region access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemError {
    /// Offset + length exceeds the region.
    OutOfBounds {
        offset: u64,
        len: usize,
        size: usize,
    },
    /// No region registered under this rkey.
    BadRkey(Rkey),
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds { offset, len, size } => {
                write!(
                    f,
                    "access [{offset}, {offset}+{len}) outside region of {size} bytes"
                )
            }
            MemError::BadRkey(k) => write!(f, "no region registered for rkey {k}"),
        }
    }
}

impl std::error::Error for MemError {}

struct RegionInner {
    words: Box<[AtomicU64]>,
    size: usize,
}

/// A registered, shareable memory region. Cloning is cheap (Arc).
#[derive(Clone)]
pub struct Region {
    inner: Arc<RegionInner>,
}

impl Region {
    /// Allocate a zeroed region of `size` bytes (rounded up to 8).
    pub fn new(size: usize) -> Region {
        let words = size.div_ceil(8);
        let mut v = Vec::with_capacity(words);
        v.resize_with(words, || AtomicU64::new(0));
        Region {
            inner: Arc::new(RegionInner {
                words: v.into_boxed_slice(),
                size,
            }),
        }
    }

    /// Region size in bytes.
    pub fn len(&self) -> usize {
        self.inner.size
    }

    pub fn is_empty(&self) -> bool {
        self.inner.size == 0
    }

    fn check(&self, offset: u64, len: usize) -> Result<(), MemError> {
        let end = offset.checked_add(len as u64);
        match end {
            Some(e) if e <= self.inner.size as u64 => Ok(()),
            _ => Err(MemError::OutOfBounds {
                offset,
                len,
                size: self.inner.size,
            }),
        }
    }

    /// Read `buf.len()` bytes starting at byte `offset`. Loads are acquire,
    /// so bulk data written before a release-published control word is fully
    /// visible once the control word is observed.
    ///
    /// A block copy: a partial head word, then whole words with constant
    /// 8-byte copies, then a partial tail word. Every word is one acquire
    /// load, whichever of the three it is.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<(), MemError> {
        self.check(offset, buf.len())?;
        let (head, body, tail) = split_words(offset as usize, buf.len());
        let mut words = &self.inner.words[offset as usize / 8..];
        let mut buf = buf;
        if let Some((at, n)) = head {
            let bytes = words[0].load(Ordering::Acquire).to_le_bytes();
            buf[..n].copy_from_slice(&bytes[at..at + n]);
            buf = &mut buf[n..];
            words = &words[1..];
        }
        let (whole, rest) = buf.split_at_mut(body * 8);
        for (dst, slot) in whole.chunks_exact_mut(8).zip(&words[..body]) {
            dst.copy_from_slice(&slot.load(Ordering::Acquire).to_le_bytes());
        }
        if tail != 0 {
            let bytes = words[body].load(Ordering::Acquire).to_le_bytes();
            rest.copy_from_slice(&bytes[..tail]);
        }
        Ok(())
    }

    /// Convenience: read into a fresh vec.
    pub fn read_vec(&self, offset: u64, len: usize) -> Result<Vec<u8>, MemError> {
        let mut v = vec![0u8; len];
        self.read(offset, &mut v)?;
        Ok(v)
    }

    /// Like [`Region::read_vec`], but reuses a caller-owned scratch vector
    /// (cleared and resized in place): hot readers pay zero allocations
    /// once the scratch has grown to the working length.
    pub fn read_into(&self, offset: u64, len: usize, out: &mut Vec<u8>) -> Result<(), MemError> {
        out.clear();
        out.resize(len, 0);
        self.read(offset, out)
    }

    /// Write `data` starting at byte `offset`. Whole words use release
    /// stores (a later release-published control word therefore publishes
    /// the data too); partial words use a CAS loop so concurrent writers to
    /// *different* bytes of the same word never lose updates.
    ///
    /// The block-copy mirror of [`Region::read`]: a partial head word (CAS),
    /// whole words (one release store each), a partial tail word (CAS).
    pub fn write(&self, offset: u64, data: &[u8]) -> Result<(), MemError> {
        self.check(offset, data.len())?;
        let (head, body, tail) = split_words(offset as usize, data.len());
        let mut words = &self.inner.words[offset as usize / 8..];
        let mut data = data;
        if let Some((at, n)) = head {
            store_partial(&words[0], at, &data[..n]);
            data = &data[n..];
            words = &words[1..];
        }
        let (whole, rest) = data.split_at(body * 8);
        for (src, slot) in whole.chunks_exact(8).zip(&words[..body]) {
            slot.store(
                u64::from_le_bytes(src.try_into().unwrap()),
                Ordering::Release,
            );
        }
        if tail != 0 {
            store_partial(&words[body], 0, rest);
        }
        Ok(())
    }

    /// Atomically load the aligned u64 at byte `offset`.
    pub fn load_u64(&self, offset: u64, order: Ordering) -> u64 {
        debug_assert_eq!(offset % 8, 0, "unaligned control-word load");
        self.inner.words[(offset / 8) as usize].load(order)
    }

    /// Atomically store the aligned u64 at byte `offset`.
    pub fn store_u64(&self, offset: u64, val: u64, order: Ordering) {
        debug_assert_eq!(offset % 8, 0, "unaligned control-word store");
        self.inner.words[(offset / 8) as usize].store(val, order);
    }

    /// Atomic fetch-add on the aligned u64 at byte `offset`.
    pub fn fetch_add_u64(&self, offset: u64, val: u64, order: Ordering) -> u64 {
        debug_assert_eq!(offset % 8, 0, "unaligned control-word rmw");
        self.inner.words[(offset / 8) as usize].fetch_add(val, order)
    }

    /// Atomic compare-exchange on the aligned u64 at byte `offset`.
    pub fn compare_exchange_u64(&self, offset: u64, current: u64, new: u64) -> Result<u64, u64> {
        debug_assert_eq!(offset % 8, 0);
        self.inner.words[(offset / 8) as usize].compare_exchange(
            current,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        )
    }

    /// Do two regions share storage?
    pub fn same_region(&self, other: &Region) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// Split the byte range `[offset, offset + len)` into word-sized pieces:
/// an optional partial head `(byte in word, len)` that ends on a word
/// boundary or at the range's end, the number of whole words after it, and
/// the length of a partial tail word after those.
fn split_words(offset: usize, len: usize) -> (Option<(usize, usize)>, usize, usize) {
    let at = offset % 8;
    let head = (at != 0 && len != 0).then(|| (at, (8 - at).min(len)));
    let rest = len - head.map_or(0, |(_, n)| n);
    (head, rest / 8, rest % 8)
}

/// Store `bytes` at byte `at` of `slot` without touching its other bytes: a
/// CAS loop, so a concurrent writer of the word's other bytes never loses
/// its update.
fn store_partial(slot: &AtomicU64, at: usize, bytes: &[u8]) {
    let mut mask_bytes = [0u8; 8];
    let mut val_bytes = [0u8; 8];
    mask_bytes[at..at + bytes.len()].fill(0xFF);
    val_bytes[at..at + bytes.len()].copy_from_slice(bytes);
    let mask = u64::from_le_bytes(mask_bytes);
    let val = u64::from_le_bytes(val_bytes);
    slot.fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
        Some((w & !mask) | val)
    })
    .expect("fetch_update closure never returns None");
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Region({} bytes)", self.inner.size)
    }
}

/// The NIC-side translation table: rkey -> region.
#[derive(Default)]
pub struct RegionCatalog {
    next_rkey: Rkey,
    regions: HashMap<Rkey, Region>,
}

impl RegionCatalog {
    pub fn new() -> RegionCatalog {
        RegionCatalog {
            // Start above zero so an uninitialized rkey never matches.
            next_rkey: 1,
            regions: HashMap::new(),
        }
    }

    /// Register a region, returning its rkey.
    pub fn register(&mut self, region: Region) -> Rkey {
        let rkey = self.next_rkey;
        self.next_rkey += 1;
        self.regions.insert(rkey, region);
        rkey
    }

    /// Deregister; returns the region if it was present.
    pub fn deregister(&mut self, rkey: Rkey) -> Option<Region> {
        self.regions.remove(&rkey)
    }

    pub fn get(&self, rkey: Rkey) -> Result<&Region, MemError> {
        self.regions.get(&rkey).ok_or(MemError::BadRkey(rkey))
    }

    /// Resolve region `rkey` for an access of `len` bytes at `vaddr`,
    /// checking the whole range up front: a remote read then streams out
    /// of the region chunk by chunk (straight into packet buffers) with no
    /// chunk able to fail halfway.
    pub fn resolve(&self, rkey: Rkey, vaddr: u64, len: usize) -> Result<&Region, MemError> {
        let region = self.get(rkey)?;
        region.check(vaddr, len)?;
        Ok(region)
    }

    /// Execute a remote write into region `rkey` at `vaddr`.
    pub fn remote_write(&self, rkey: Rkey, vaddr: u64, data: &[u8]) -> Result<(), MemError> {
        self.get(rkey)?.write(vaddr, data)
    }

    /// Execute a remote compare-and-swap on the aligned u64 at `vaddr` of
    /// region `rkey`. Returns the word's original value; the swap happened
    /// iff it equals `compare`.
    pub fn remote_compare_exchange(
        &self,
        rkey: Rkey,
        vaddr: u64,
        compare: u64,
        swap: u64,
    ) -> Result<u64, MemError> {
        let region = self.get(rkey)?;
        if !vaddr.is_multiple_of(8) || vaddr + 8 > region.len() as u64 {
            return Err(MemError::OutOfBounds {
                offset: vaddr,
                len: 8,
                size: region.len(),
            });
        }
        Ok(match region.compare_exchange_u64(vaddr, compare, swap) {
            Ok(orig) | Err(orig) => orig,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn read_write_roundtrip_unaligned() {
        let r = Region::new(64);
        let data: Vec<u8> = (0..23).collect();
        r.write(3, &data).unwrap();
        assert_eq!(r.read_vec(3, 23).unwrap(), data);
        // Neighbouring bytes untouched.
        assert_eq!(r.read_vec(0, 3).unwrap(), vec![0, 0, 0]);
        assert_eq!(r.read_vec(26, 4).unwrap(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn bounds_are_enforced() {
        let r = Region::new(16);
        assert!(r.write(10, &[0u8; 7]).is_err());
        assert!(r.read_vec(16, 1).is_err());
        assert!(r.write(u64::MAX, &[1]).is_err());
        assert!(r.write(16, &[]).is_ok()); // zero-length at end is fine
    }

    #[test]
    fn control_word_ordering_ops() {
        let r = Region::new(32);
        r.store_u64(8, 42, Ordering::Release);
        assert_eq!(r.load_u64(8, Ordering::Acquire), 42);
        assert_eq!(r.fetch_add_u64(8, 8, Ordering::AcqRel), 42);
        assert_eq!(r.load_u64(8, Ordering::Acquire), 50);
        assert_eq!(r.compare_exchange_u64(8, 50, 60), Ok(50));
        assert_eq!(r.compare_exchange_u64(8, 50, 70), Err(60));
    }

    #[test]
    fn concurrent_adjacent_byte_writers_do_not_clobber() {
        // Two threads write interleaved bytes of the same words; the CAS
        // path must preserve both.
        let r = Region::new(1024);
        let r1 = r.clone();
        let r2 = r.clone();
        let t1 = thread::spawn(move || {
            for i in (0..1024u64).step_by(2) {
                r1.write(i, &[0xAA]).unwrap();
            }
        });
        let t2 = thread::spawn(move || {
            for i in (1..1024u64).step_by(2) {
                r2.write(i, &[0xBB]).unwrap();
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let all = r.read_vec(0, 1024).unwrap();
        for (i, b) in all.iter().enumerate() {
            let want = if i % 2 == 0 { 0xAA } else { 0xBB };
            assert_eq!(*b, want, "byte {i}");
        }
    }

    #[test]
    fn catalog_registers_and_resolves() {
        let mut cat = RegionCatalog::new();
        let r = Region::new(128);
        let k = cat.register(r.clone());
        cat.remote_write(k, 5, b"hello").unwrap();
        assert_eq!(
            cat.resolve(k, 5, 5).unwrap().read_vec(5, 5).unwrap(),
            b"hello"
        );
        assert_eq!(r.read_vec(5, 5).unwrap(), b"hello");
        assert!(matches!(
            cat.resolve(999, 0, 1),
            Err(MemError::BadRkey(999))
        ));
        assert!(matches!(
            cat.resolve(k, 125, 4),
            Err(MemError::OutOfBounds {
                offset: 125,
                len: 4,
                size: 128
            })
        ));
        cat.deregister(k);
        assert!(cat.get(k).is_err());
    }

    #[test]
    fn rkeys_are_unique_and_nonzero() {
        let mut cat = RegionCatalog::new();
        let a = cat.register(Region::new(8));
        let b = cat.register(Region::new(8));
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
