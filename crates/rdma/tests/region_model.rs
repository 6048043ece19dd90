//! `Region::read`/`write` against a flat byte-array model.
//!
//! The block copy splits every access into a partial head word, whole words
//! and a partial tail word. Random access sequences over regions whose size
//! is not a multiple of 8 check that split at every alignment: unaligned
//! heads and tails, zero-length accesses, accesses that end exactly at the
//! region's end, and accesses that overrun it (which must fail without
//! touching a byte).

use proptest::prelude::*;
use rdma::mem::{MemError, Region};

/// Turn a raw access into `(offset, len)` for a region of `size` bytes:
/// `kind` picks the shape, `a` and `b` the offset and length within it.
fn shape(size: usize, kind: u8, a: u16, b: u16) -> (usize, usize) {
    let (a, b) = (a as usize, b as usize);
    match kind {
        // Anywhere, possibly out of bounds.
        0 => (a % (size + 17), b % (size + 17)),
        // Zero length, at or just past the end too.
        1 => (a % (size + 9), 0),
        // Ends exactly at the region's end.
        2 => {
            let len = a % (size + 1);
            (size - len, len)
        }
        // Overruns the end by 1 to 8 bytes.
        _ => {
            let len = 1 + a % (size + 1);
            (size + 1 + b % 8 - len, len)
        }
    }
}

fn fill(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn region_matches_flat_byte_model(
        size in 1usize..200,
        seed in any::<u64>(),
        accesses in collection::vec(
            (any::<bool>(), 0u8..4, any::<u16>(), any::<u16>()),
            1..48,
        ),
    ) {
        let region = Region::new(size);
        let mut model = fill(seed, size);
        region.write(0, &model).unwrap();

        for (i, &(is_write, kind, a, b)) in accesses.iter().enumerate() {
            let (off, len): (usize, usize) = shape(size, kind, a, b);
            let in_bounds = off + len <= size;
            let oob = MemError::OutOfBounds { offset: off as u64, len, size };
            if is_write {
                let data = fill(seed ^ (i as u64 + 1), len);
                let res = region.write(off as u64, &data);
                if in_bounds {
                    prop_assert_eq!(res, Ok(()));
                    model[off..off + len].copy_from_slice(&data);
                } else {
                    prop_assert_eq!(res, Err(oob));
                }
            } else {
                let mut buf = vec![0xEEu8; len];
                let res = region.read(off as u64, &mut buf);
                if in_bounds {
                    prop_assert_eq!(res, Ok(()));
                    prop_assert_eq!(&buf[..], &model[off..off + len]);
                } else {
                    prop_assert_eq!(res, Err(oob));
                }
            }
            // Every byte outside the access is untouched, and a failed
            // access changed nothing at all.
            let mut whole = vec![0u8; size];
            region.read(0, &mut whole).unwrap();
            prop_assert_eq!(&whole, &model, "after access {} ({}, {})", i, off, len);
        }
    }
}

#[test]
fn offsets_past_u64_range_are_out_of_bounds() {
    let region = Region::new(16);
    let mut buf = [0u8; 1];
    assert!(region.read(u64::MAX, &mut buf).is_err());
    assert!(region.write(u64::MAX - 3, &[0u8; 8]).is_err());
    assert!(region.read(16, &mut []).is_ok());
}
