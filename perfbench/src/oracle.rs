//! Correctness oracles. Each check returns a fault instead of asserting,
//! so the caller counts failures against attempts.
//!
//! * [`ShadowPool`]: a benchmark-side copy of the remote pool. Its initial
//!   content is a function of the seed; writes update it when they are
//!   issued, so a read's expected bytes are the shadow at the read's issue
//!   point (per-channel linearizability: a read observes every write the
//!   channel issued before it and none issued after).
//! * [`KvOracle`]: every value carries its key and version; a GET must
//!   return its own key at a version no older than the one current when the
//!   GET was issued and no newer than the one current when it completed.

use rdma::mem::Region;

/// Bijective 64-bit mixer (the splitmix64 finaliser).
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Word `i` of a pool seeded with `seed`.
pub fn pool_word(seed: u64, i: u64) -> u64 {
    mix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Payload word `j` of the write stamped `stamp`: distinct per write and
/// per position, so a torn, misplaced or stale block never matches.
pub fn write_word(stamp: u64, j: u64) -> u64 {
    mix64(stamp.rotate_left(17) ^ j ^ 0xC0B1_4D00_0000_0000)
}

/// The first word where a response disagrees with the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mismatch {
    pub word: usize,
    pub expected: u64,
    pub got: u64,
}

/// Compare a response (little-endian bytes) with expected words.
pub fn check_words(expected: &[u64], got: &[u8]) -> Result<(), Mismatch> {
    if got.len() != expected.len() * 8 {
        return Err(Mismatch {
            word: got.len() / 8,
            expected: expected.len() as u64 * 8,
            got: got.len() as u64,
        });
    }
    for (i, (e, g)) in expected.iter().zip(got.chunks_exact(8)).enumerate() {
        let g = u64::from_le_bytes(g.try_into().expect("8-byte chunk"));
        if *e != g {
            return Err(Mismatch {
                word: i,
                expected: *e,
                got: g,
            });
        }
    }
    Ok(())
}

/// Benchmark-side copy of the pool, one `u64` per pool word.
pub struct ShadowPool {
    words: Vec<u64>,
}

impl ShadowPool {
    /// A shadow of `bytes` seeded with `seed`, and the pool region holding
    /// the same content.
    pub fn seeded(seed: u64, bytes: usize) -> (ShadowPool, Region) {
        let n = bytes / 8;
        let words: Vec<u64> = (0..n as u64).map(|i| pool_word(seed, i)).collect();
        let region = Region::new(bytes);
        for (i, w) in words.iter().enumerate() {
            region.store_u64(i as u64 * 8, *w, std::sync::atomic::Ordering::Relaxed);
        }
        (ShadowPool { words }, region)
    }

    /// Expected words of `[addr, addr + len)`; both 8-byte aligned.
    pub fn expected(&self, addr: u64, len: u32) -> &[u64] {
        let first = (addr / 8) as usize;
        &self.words[first..first + len as usize / 8]
    }

    /// Record a write issued at `addr`.
    pub fn apply_write(&mut self, addr: u64, data: &[u64]) {
        let first = (addr / 8) as usize;
        self.words[first..first + data.len()].copy_from_slice(data);
    }

    /// Compare the whole pool with the shadow; call only once every thread
    /// that can write the pool has stopped. Returns the 64-byte lines that
    /// differ.
    pub fn sweep(&self, pool: &Region) -> u64 {
        let mut bad_lines = 0u64;
        let mut line = [0u8; 64];
        for (l, expected) in self.words.chunks(8).enumerate() {
            let got = &mut line[..expected.len() * 8];
            pool.read(l as u64 * 64, got).expect("sweep within pool");
            if check_words(expected, got).is_err() {
                bad_lines += 1;
            }
        }
        bad_lines
    }
}

/// Why a GET failed its check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvFault {
    Missing,
    /// The value is malformed: wrong length or filler.
    Corrupt,
    WrongKey {
        got: u64,
    },
    /// Version outside `[at_issue, now]`.
    WrongVersion {
        got: u64,
        at_issue: u64,
        now: u64,
    },
}

/// Versions of every key, and the value encoding.
pub struct KvOracle {
    versions: Vec<u64>,
    value_len: usize,
}

impl KvOracle {
    pub fn new(keys: usize, value_len: usize) -> KvOracle {
        assert!(value_len >= 16 && value_len.is_multiple_of(8));
        KvOracle {
            versions: vec![0; keys],
            value_len,
        }
    }

    pub fn version(&self, key: u64) -> u64 {
        self.versions[key as usize]
    }

    /// Bump `key`'s version and encode the new value into `out`.
    pub fn next_value(&mut self, key: u64, out: &mut Vec<u8>) {
        self.versions[key as usize] += 1;
        self.encode(key, self.versions[key as usize], out);
    }

    /// `[key][version][filler(key, version)...]`, little-endian words.
    pub fn encode(&self, key: u64, version: u64, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&version.to_le_bytes());
        for j in 2..self.value_len as u64 / 8 {
            out.extend_from_slice(&write_word(key ^ (version << 40), j).to_le_bytes());
        }
    }

    /// Check a GET of `key` issued when its version was `at_issue`.
    pub fn check(&self, key: u64, at_issue: u64, got: Option<&[u8]>) -> Result<(), KvFault> {
        let v = got.ok_or(KvFault::Missing)?;
        if v.len() != self.value_len {
            return Err(KvFault::Corrupt);
        }
        let word = |i: usize| u64::from_le_bytes(v[i * 8..i * 8 + 8].try_into().expect("word"));
        if word(0) != key {
            return Err(KvFault::WrongKey { got: word(0) });
        }
        let (version, now) = (word(1), self.version(key));
        if version < at_issue || version > now {
            return Err(KvFault::WrongVersion {
                got: version,
                at_issue,
                now,
            });
        }
        if (2..self.value_len / 8).any(|j| word(j) != write_word(key ^ (version << 40), j as u64)) {
            return Err(KvFault::Corrupt);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_flags_planted_corrupt_read() {
        let (mut shadow, pool) = ShadowPool::seeded(7, 64 << 10);
        let mut got = pool.read_vec(4096, 64).unwrap();
        assert_eq!(check_words(shadow.expected(4096, 64), &got), Ok(()));
        got[13] ^= 0x40;
        let m = check_words(shadow.expected(4096, 64), &got).unwrap_err();
        assert_eq!(m.word, 1);
        // A short response is a mismatch too.
        assert!(check_words(shadow.expected(4096, 64), &got[..56]).is_err());
        // A write the pool never received shows in the quiescent sweep...
        assert_eq!(shadow.sweep(&pool), 0);
        let data: Vec<u64> = (0..8).map(|j| write_word(99, j)).collect();
        shadow.apply_write(8192, &data);
        assert_eq!(shadow.sweep(&pool), 1);
        // ...and a read issued after it expects the new bytes.
        let stale = pool.read_vec(8192, 64).unwrap();
        assert!(check_words(shadow.expected(8192, 64), &stale).is_err());
        let bytes: Vec<u8> = data.iter().flat_map(|w| w.to_le_bytes()).collect();
        pool.write(8192, &bytes).unwrap();
        assert_eq!(shadow.sweep(&pool), 0);
    }

    #[test]
    fn kv_oracle_flags_missing_and_wrong_values() {
        let mut o = KvOracle::new(10, 64);
        let mut v1 = Vec::new();
        o.next_value(3, &mut v1);
        assert_eq!(o.check(3, 1, Some(&v1)), Ok(()));
        assert_eq!(o.check(3, 1, None), Err(KvFault::Missing));
        // Another key's value under this key.
        let mut other = Vec::new();
        o.encode(4, 1, &mut other);
        assert_eq!(
            o.check(3, 1, Some(&other)),
            Err(KvFault::WrongKey { got: 4 })
        );
        // A GET issued after version 2 was written must not see version 1.
        let mut v2 = Vec::new();
        o.next_value(3, &mut v2);
        assert_eq!(
            o.check(3, 2, Some(&v1)),
            Err(KvFault::WrongVersion {
                got: 1,
                at_issue: 2,
                now: 2
            })
        );
        // One issued before it may see either.
        assert_eq!(o.check(3, 1, Some(&v1)), Ok(()));
        assert_eq!(o.check(3, 1, Some(&v2)), Ok(()));
        let mut torn = v2.clone();
        torn[40] ^= 1;
        assert_eq!(o.check(3, 2, Some(&torn)), Err(KvFault::Corrupt));
        assert_eq!(o.check(3, 2, Some(&v2[..32])), Err(KvFault::Corrupt));
    }
}
