//! The shared-memory layout of one Cowbird channel (paper Figure 4).
//!
//! ```text
//! offset 0    ┌──────────────────────────────────────────┐
//!             │ GREEN bookkeeping (client → engine)      │  one RDMA read
//!             │   meta_tail · wdata_tail · rdata_tail ·  │  probes all four
//!             │   client_epoch (fence word)              │
//! offset 64   ├──────────────────────────────────────────┤
//!             │ RED bookkeeping (engine → client)        │  one RDMA write
//!             │   meta_head · write_progress ·           │  updates all seven
//!             │   read_progress · engine_epoch ·         │
//!             │   floor_idx · floor_reads · floor_writes │
//! offset 128  ├──────────────────────────────────────────┤
//!             │ request metadata ring (32 B entries)     │
//!             ├──────────────────────────────────────────┤
//!             │ request data ring (raw write payloads)   │
//!             ├──────────────────────────────────────────┤
//!             │ response data ring (raw read results)    │
//!             ├──────────────────────────────────────────┤
//!             │ telemetry readback (engine → client)     │  seqlock-stamped
//!             │   seq · version · engine counters · seq  │  snapshot, 128 B
//!             └──────────────────────────────────────────┘
//! ```
//!
//! Green and red halves live on separate cache lines so that engine writes
//! never bounce the line the client is writing (and vice versa) —
//! requirement R3's "all bookkeeping data packed into a contiguous memory
//! region indexed by the writer/reader".
//!
//! All pointers are **monotone virtual offsets** (entry counts for the
//! metadata ring, byte counts for the data rings); the physical slot is
//! `virtual % capacity`. Payload reservations never wrap: if a payload would
//! straddle the ring end, the reservation pads to the boundary, so every
//! request is a single contiguous RDMA transfer (requirement R1/R3).

use crate::meta::META_ENTRY_BYTES;

/// Green block: client-written, engine-read (one RDMA read covers it).
pub const GREEN_OFFSET: u64 = 0;
pub const GREEN_META_TAIL: u64 = GREEN_OFFSET;
pub const GREEN_WDATA_TAIL: u64 = GREEN_OFFSET + 8;
pub const GREEN_RDATA_TAIL: u64 = GREEN_OFFSET + 16;
/// Fence word: the highest engine epoch the client has blessed. An engine
/// that probes a value greater than its own epoch has been fenced out by a
/// takeover and must stop writing.
pub const GREEN_CLIENT_EPOCH: u64 = GREEN_OFFSET + 24;
/// Bytes the engine fetches per probe.
pub const GREEN_LEN: u64 = 32;

/// Doorbell word: bumped by the client on every post (a plain local
/// `fetch_add`, unlike an RDMA NIC's MMIO doorbell). It lives in the
/// client-written cache line *after* the probed green block — the engine's
/// 32-byte probe read is unchanged — and is observed out-of-band by
/// co-located polling-group workers to wake from their parked idle state.
/// A remote engine never reads it; probing remains the only cross-fabric
/// discovery path.
pub const GREEN_DOORBELL: u64 = GREEN_OFFSET + GREEN_LEN;

/// Red block: engine-written, client-read (one RDMA write covers it).
pub const RED_OFFSET: u64 = 64;
pub const RED_META_HEAD: u64 = RED_OFFSET;
pub const RED_WRITE_PROGRESS: u64 = RED_OFFSET + 8;
pub const RED_READ_PROGRESS: u64 = RED_OFFSET + 16;
/// The epoch of the engine that wrote this block. Clients ignore red blocks
/// from epochs older than the newest they have seen, which fences a zombie
/// engine's stale completion writes.
pub const RED_ENGINE_EPOCH: u64 = RED_OFFSET + 24;
/// Committed floor: every metadata entry below `floor_idx` has fully
/// completed, and the request seqs consumed up to there are `floor_reads`
/// reads and `floor_writes` writes. A standby engine rewinds to this floor
/// on takeover and re-derives the identical seq assignment for the
/// still-live entries above it.
pub const RED_FLOOR_IDX: u64 = RED_OFFSET + 32;
pub const RED_FLOOR_READS: u64 = RED_OFFSET + 40;
pub const RED_FLOOR_WRITES: u64 = RED_OFFSET + 48;
/// Bytes the engine writes per completion update.
pub const RED_LEN: u64 = 56;

/// Decoded red bookkeeping block — everything a standby engine needs to
/// adopt a channel, and everything a client needs to track progress.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RedBlock {
    pub meta_head: u64,
    pub write_progress: u64,
    pub read_progress: u64,
    pub engine_epoch: u64,
    pub floor_idx: u64,
    pub floor_reads: u64,
    pub floor_writes: u64,
}

impl RedBlock {
    /// Serialize in red-block order (little-endian words).
    pub fn encode(&self) -> [u8; RED_LEN as usize] {
        let mut out = [0u8; RED_LEN as usize];
        for (i, w) in [
            self.meta_head,
            self.write_progress,
            self.read_progress,
            self.engine_epoch,
            self.floor_idx,
            self.floor_reads,
            self.floor_writes,
        ]
        .into_iter()
        .enumerate()
        {
            out[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parse a red block image; `None` if the buffer is too short.
    pub fn decode(bytes: &[u8]) -> Option<RedBlock> {
        if bytes.len() < RED_LEN as usize {
            return None;
        }
        let word = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        Some(RedBlock {
            meta_head: word(0),
            write_progress: word(1),
            read_progress: word(2),
            engine_epoch: word(3),
            floor_idx: word(4),
            floor_reads: word(5),
            floor_writes: word(6),
        })
    }
}

/// Start of the metadata ring.
pub const RINGS_OFFSET: u64 = 128;

/// Bytes of the in-band telemetry readback region (16 words) that trails
/// the response data ring.
pub const TELEM_LEN: u64 = 128;
/// Snapshot format version; bumped when the word layout changes.
pub const TELEM_VERSION: u64 = 1;

/// In-band engine telemetry snapshot, pushed by the engine into the
/// channel's readback region with the same fire-and-forget RDMA write
/// machinery as any completion data — the compute CPU issues zero extra
/// verbs to observe its remote engine.
///
/// Torn-read protection is a seqlock stamp carried *inside* the image: the
/// engine writes one consistent 128-byte image per export with an even,
/// monotonically increasing sequence number in both the first and the last
/// word. A client that reads the region while an RDMA write is landing sees
/// mismatched (or odd) stamps and simply keeps its previous snapshot; there
/// is no retry loop because the next poll sweep scrapes again anyway.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Probe sweeps the engine has run.
    pub sweeps: u64,
    /// Requests parsed but not yet executed (sweep depth / queue backlog).
    pub backlog: u64,
    pub reads_executed: u64,
    pub writes_executed: u64,
    pub red_updates: u64,
    /// Coalescing: doorbells actually rung.
    pub chain_posts: u64,
    /// Coalescing: work requests carried by those chains.
    pub chained_wrs: u64,
    /// Coalescing: adjacent transfers merged into one SGE.
    pub sg_merges: u64,
    /// Buffer arena reuse.
    pub arena_hits: u64,
    pub arena_misses: u64,
    pub arena_recycled: u64,
    /// Shard serving this channel (0 for single-core engines).
    pub shard_id: u64,
    /// Ops queued on that shard across all of its channels.
    pub shard_queue_depth: u64,
}

impl TelemetrySnapshot {
    /// Serialize with seqlock stamp `seq` (must be even and non-zero) in
    /// the first and last words; word 1 carries [`TELEM_VERSION`].
    pub fn encode(&self, seq: u64) -> [u8; TELEM_LEN as usize] {
        debug_assert!(seq != 0 && seq.is_multiple_of(2), "seqlock stamps are even");
        let mut out = [0u8; TELEM_LEN as usize];
        for (i, w) in [
            seq,
            TELEM_VERSION,
            self.sweeps,
            self.backlog,
            self.reads_executed,
            self.writes_executed,
            self.red_updates,
            self.chain_posts,
            self.chained_wrs,
            self.sg_merges,
            self.arena_hits,
            self.arena_misses,
            self.arena_recycled,
            self.shard_id,
            self.shard_queue_depth,
            seq,
        ]
        .into_iter()
        .enumerate()
        {
            out[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parse a readback image. `None` for a short buffer, a torn image
    /// (stamp mismatch or odd stamp), a never-written region (stamp 0), or
    /// a version this client does not speak. Returns `(seq, snapshot)`.
    pub fn decode(bytes: &[u8]) -> Option<(u64, TelemetrySnapshot)> {
        if bytes.len() < TELEM_LEN as usize {
            return None;
        }
        let word = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        let seq = word(0);
        if seq == 0 || seq % 2 != 0 || word(15) != seq || word(1) != TELEM_VERSION {
            return None;
        }
        Some((
            seq,
            TelemetrySnapshot {
                sweeps: word(2),
                backlog: word(3),
                reads_executed: word(4),
                writes_executed: word(5),
                red_updates: word(6),
                chain_posts: word(7),
                chained_wrs: word(8),
                sg_merges: word(9),
                arena_hits: word(10),
                arena_misses: word(11),
                arena_recycled: word(12),
                shard_id: word(13),
                shard_queue_depth: word(14),
            },
        ))
    }
}

/// Sizing and offsets for one channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelLayout {
    /// Number of metadata entries (requests outstanding at once).
    pub meta_entries: u64,
    /// Request (write payload) data ring capacity in bytes.
    pub wdata_capacity: u64,
    /// Response data ring capacity in bytes.
    pub rdata_capacity: u64,
}

impl ChannelLayout {
    /// A comfortable default: 1024 outstanding requests, 1 MiB each way.
    pub fn default_sizes() -> ChannelLayout {
        ChannelLayout {
            meta_entries: 1024,
            wdata_capacity: 1 << 20,
            rdata_capacity: 1 << 20,
        }
    }

    /// Small rings, for tests that exercise full-ring behaviour.
    pub fn tiny() -> ChannelLayout {
        ChannelLayout {
            meta_entries: 8,
            wdata_capacity: 256,
            rdata_capacity: 256,
        }
    }

    pub fn with_data_capacities(mut self, wdata: u64, rdata: u64) -> ChannelLayout {
        self.wdata_capacity = wdata;
        self.rdata_capacity = rdata;
        self
    }

    /// Offset of the metadata ring.
    pub const fn meta_offset(&self) -> u64 {
        RINGS_OFFSET
    }

    /// Offset of metadata entry at `virtual_idx`.
    pub fn meta_entry_offset(&self, virtual_idx: u64) -> u64 {
        self.meta_offset() + (virtual_idx % self.meta_entries) * META_ENTRY_BYTES
    }

    /// Offset of the request (write payload) data ring.
    pub fn wdata_offset(&self) -> u64 {
        self.meta_offset() + self.meta_entries * META_ENTRY_BYTES
    }

    /// Physical offset within the region of a virtual wdata position.
    pub fn wdata_phys(&self, virtual_off: u64) -> u64 {
        self.wdata_offset() + (virtual_off % self.wdata_capacity)
    }

    /// Offset of the response data ring.
    pub fn rdata_offset(&self) -> u64 {
        self.wdata_offset() + self.wdata_capacity
    }

    /// Physical offset within the region of a virtual rdata position.
    pub fn rdata_phys(&self, virtual_off: u64) -> u64 {
        self.rdata_offset() + (virtual_off % self.rdata_capacity)
    }

    /// Offset of the in-band telemetry readback region.
    pub fn telem_offset(&self) -> u64 {
        self.rdata_offset() + self.rdata_capacity
    }

    /// Total bytes of the channel region.
    pub fn region_size(&self) -> u64 {
        self.telem_offset() + TELEM_LEN
    }
}

/// Reserve `len` bytes in a no-wrap ring.
///
/// `tail`/`head` are virtual offsets; returns the virtual start of the
/// reservation (after any pad-to-boundary) and the new tail, or `None` if it
/// does not fit. The caller persists the new tail.
pub fn reserve_no_wrap(tail: u64, head: u64, capacity: u64, len: u64) -> Option<(u64, u64)> {
    if len > capacity {
        return None;
    }
    let phys = tail % capacity;
    let start = if phys + len > capacity {
        tail + (capacity - phys) // pad to ring boundary
    } else {
        tail
    };
    let end = start + len;
    if end - head > capacity {
        return None;
    }
    Some((start, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_do_not_overlap() {
        const { assert!(GREEN_OFFSET + GREEN_LEN <= RED_OFFSET) };
        // The doorbell word rides in the client-written gap between the
        // probed green block and the engine-written red block.
        const { assert!(GREEN_DOORBELL >= GREEN_OFFSET + GREEN_LEN) };
        const { assert!(GREEN_DOORBELL + 8 <= RED_OFFSET) };
        const { assert!(RED_OFFSET + RED_LEN <= RINGS_OFFSET) };
        // Separate cache lines.
        assert_eq!(RED_OFFSET % 64, 0);
        assert_eq!(RINGS_OFFSET % 64, 0);
    }

    #[test]
    fn layout_offsets_are_contiguous() {
        let l = ChannelLayout::default_sizes();
        assert_eq!(l.meta_offset(), 128);
        assert_eq!(l.wdata_offset(), 128 + 1024 * 32);
        assert_eq!(l.rdata_offset(), l.wdata_offset() + (1 << 20));
        assert_eq!(l.telem_offset(), l.rdata_offset() + (1 << 20));
        assert_eq!(l.region_size(), l.telem_offset() + TELEM_LEN);
    }

    #[test]
    fn meta_entry_wraps() {
        let l = ChannelLayout::tiny();
        assert_eq!(l.meta_entry_offset(0), l.meta_offset());
        assert_eq!(l.meta_entry_offset(8), l.meta_offset());
        assert_eq!(l.meta_entry_offset(9), l.meta_offset() + 32);
    }

    #[test]
    fn reserve_fits_simple() {
        // cap 100, empty ring at origin.
        assert_eq!(reserve_no_wrap(0, 0, 100, 40), Some((0, 40)));
        // subsequent reservation follows.
        assert_eq!(reserve_no_wrap(40, 0, 100, 40), Some((40, 80)));
        // next would wrap: pads to 100 but then exceeds capacity vs head 0.
        assert_eq!(reserve_no_wrap(80, 0, 100, 40), None);
        // once head advances, the padded reservation fits.
        assert_eq!(reserve_no_wrap(80, 40, 100, 40), Some((100, 140)));
    }

    #[test]
    fn reserve_never_splits_across_boundary() {
        let (start, end) = reserve_no_wrap(90, 50, 100, 30).unwrap();
        assert_eq!(start, 100, "padded to boundary");
        assert_eq!(end, 130);
        assert!(start % 100 + 30 <= 100);
    }

    #[test]
    fn reserve_rejects_oversized() {
        assert_eq!(reserve_no_wrap(0, 0, 100, 101), None);
        assert_eq!(reserve_no_wrap(0, 0, 100, 100), Some((0, 100)));
    }

    #[test]
    fn reserve_zero_len() {
        assert_eq!(reserve_no_wrap(7, 0, 100, 0), Some((7, 7)));
    }

    #[test]
    fn red_block_roundtrips() {
        let red = RedBlock {
            meta_head: 12,
            write_progress: 5,
            read_progress: 7,
            engine_epoch: 3,
            floor_idx: 11,
            floor_reads: 6,
            floor_writes: 5,
        };
        let bytes = red.encode();
        assert_eq!(bytes.len() as u64, RED_LEN);
        assert_eq!(RedBlock::decode(&bytes), Some(red));
        // Words land at their layout offsets relative to RED_OFFSET.
        let at = |off: u64| {
            let i = (off - RED_OFFSET) as usize;
            u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap())
        };
        assert_eq!(at(RED_META_HEAD), 12);
        assert_eq!(at(RED_ENGINE_EPOCH), 3);
        assert_eq!(at(RED_FLOOR_WRITES), 5);
        // Short buffers never decode.
        assert_eq!(RedBlock::decode(&bytes[..RED_LEN as usize - 1]), None);
    }

    #[test]
    fn telemetry_snapshot_roundtrips() {
        let snap = TelemetrySnapshot {
            sweeps: 100,
            backlog: 3,
            reads_executed: 90,
            writes_executed: 7,
            red_updates: 42,
            chain_posts: 12,
            chained_wrs: 30,
            sg_merges: 5,
            arena_hits: 80,
            arena_misses: 17,
            arena_recycled: 60,
            shard_id: 2,
            shard_queue_depth: 9,
        };
        let bytes = snap.encode(44);
        assert_eq!(bytes.len() as u64, TELEM_LEN);
        assert_eq!(TelemetrySnapshot::decode(&bytes), Some((44, snap)));
    }

    #[test]
    fn telemetry_snapshot_rejects_torn_and_stale_images() {
        let snap = TelemetrySnapshot::default();
        let good = snap.encode(2);

        // Never-written region: all zeroes.
        assert_eq!(TelemetrySnapshot::decode(&[0u8; TELEM_LEN as usize]), None);
        // Torn image: trailing stamp from the previous export.
        let mut torn = good;
        torn[TELEM_LEN as usize - 8..].copy_from_slice(&4u64.to_le_bytes());
        assert_eq!(TelemetrySnapshot::decode(&torn), None);
        // Odd stamp (write in progress under a true shared-memory seqlock).
        let mut odd = good;
        odd[..8].copy_from_slice(&3u64.to_le_bytes());
        odd[TELEM_LEN as usize - 8..].copy_from_slice(&3u64.to_le_bytes());
        assert_eq!(TelemetrySnapshot::decode(&odd), None);
        // Unknown format version.
        let mut vers = good;
        vers[8..16].copy_from_slice(&99u64.to_le_bytes());
        assert_eq!(TelemetrySnapshot::decode(&vers), None);
        // Short buffer.
        assert_eq!(TelemetrySnapshot::decode(&good[..8]), None);
        // And the good image still parses.
        assert!(TelemetrySnapshot::decode(&good).is_some());
    }
}
