//! Per-page integrity headers: checksum, page LSN, and page identity.
//!
//! Every data page a [`crate::StorageArea`] stores occupies a *slot* of
//! `PAGE_HDR + page_size` bytes on the backend. The first [`PAGE_HDR`]
//! bytes are an integrity header sealed at write time and verified on
//! every read:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        "BESP" (0x42455350), little-endian u32
//!      4     4  area id      catches cross-area misdirected writes
//!      8     8  page number  catches within-area misdirected writes
//!     16     8  page LSN     last WAL record applied to this page
//!                            (0 when written outside the log's view)
//!     24     8  checksum     word-folded FNV-1a 64 over header bytes
//!                            0..24 ++ page data (see [`slot_checksum`])
//! ```
//!
//! The checksum covers the identity fields, so a page image copied to the
//! wrong slot fails verification even though its data checksum would
//! self-validate — that is how lost and misdirected writes are caught, per
//! the paper's multi-file storage-area design (§2) where one bad page
//! would otherwise poison every process sharing the cache.
//!
//! An **all-zero slot** is the one exception: freshly grown extents are
//! zero-filled and have never been sealed. A slot whose header is all
//! zeros verifies successfully *iff* its data is all zeros too (the
//! unwritten page); a zero header over nonzero data is corruption.

use crate::error::{CorruptKind, StorageError, StorageResult};

/// Size of the per-page integrity header, prepended to every page slot.
pub const PAGE_HDR: usize = 32;

/// Magic tag of a sealed page header ("BESP" little-endian).
pub const PAGE_MAGIC: u32 = 0x4245_5350;

/// FNV-1a 64-bit, the same function the WAL uses for record checksums
/// (`bess-wal/src/enc.rs`). Duplicated here because the dependency
/// direction runs wal → storage, not the other way.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline(always)]
fn fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// Word-folded FNV-1a over `header[0..24] ++ data`: eight bytes per
/// multiply instead of one, split across four independent lanes so the
/// multiply chains overlap. This sits on every disk read, which is what
/// forced it off the textbook byte-serial loop — roughly a 20× difference
/// on a 4 KiB page (EXPERIMENTS.md E23).
///
/// Not the same function as the byte-serial [`checksum`] the WAL frames
/// use; page checksums never leave the slot they seal, so the folding
/// width is a private detail of this module.
fn slot_checksum(header: &[u8], data: &[u8]) -> u64 {
    let mut lanes = [
        FNV_OFFSET,
        fold(FNV_OFFSET, 1),
        fold(FNV_OFFSET, 2),
        fold(FNV_OFFSET, 3),
    ];
    // The 24 covered header bytes are exactly three words.
    let mut stray = 0usize;
    for w in header[..24].chunks_exact(8) {
        lanes[stray & 3] = fold(lanes[stray & 3], le_u64(w));
        stray += 1;
    }
    let mut blocks = data.chunks_exact(32);
    for b in blocks.by_ref() {
        lanes[0] = fold(lanes[0], le_u64(&b[0..8]));
        lanes[1] = fold(lanes[1], le_u64(&b[8..16]));
        lanes[2] = fold(lanes[2], le_u64(&b[16..24]));
        lanes[3] = fold(lanes[3], le_u64(&b[24..32]));
    }
    let rem = blocks.remainder();
    let mut words = rem.chunks_exact(8);
    for w in words.by_ref() {
        lanes[stray & 3] = fold(lanes[stray & 3], le_u64(w));
        stray += 1;
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        // Pad the final partial word and tag it with its length so a
        // trailing zero byte and a short tail cannot alias.
        let mut pad = [0u8; 8];
        pad[..tail.len()].copy_from_slice(tail);
        pad[7] = tail.len() as u8 | 0x80;
        lanes[stray & 3] = fold(lanes[stray & 3], le_u64(&pad));
    }
    fold(fold(fold(fold(FNV_OFFSET, lanes[0]), lanes[1]), lanes[2]), lanes[3])
}

/// Seals `data` into `slot` (`slot.len() == PAGE_HDR + data.len()`):
/// writes the header fields, the checksum, and the payload.
pub fn seal(area: u32, page: u64, lsn: u64, data: &[u8], slot: &mut [u8]) {
    assert_eq!(slot.len(), PAGE_HDR + data.len(), "slot/data size mismatch");
    slot[PAGE_HDR..].copy_from_slice(data);
    reseal(area, page, lsn, slot);
}

/// Seals a slot in place: the data portion (`slot[PAGE_HDR..]`) is taken
/// as-is and a fresh header is written over `slot[..PAGE_HDR]`.
pub fn reseal(area: u32, page: u64, lsn: u64, slot: &mut [u8]) {
    assert!(slot.len() > PAGE_HDR, "slot smaller than its header");
    let (hdr, data) = slot.split_at_mut(PAGE_HDR);
    hdr[0..4].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
    hdr[4..8].copy_from_slice(&area.to_le_bytes());
    hdr[8..16].copy_from_slice(&page.to_le_bytes());
    hdr[16..24].copy_from_slice(&lsn.to_le_bytes());
    let sum = slot_checksum(hdr, data);
    hdr[24..32].copy_from_slice(&sum.to_le_bytes());
}

/// Whether every byte is zero. Every read of an unwritten page runs this
/// over the whole page, so it goes 64 bytes at a time: a byte-at-a-time
/// early-exit loop costs about a cycle a byte, and its speed swung by a
/// quarter with where the linker placed it.
fn all_zero(bytes: &[u8]) -> bool {
    bytes
        .chunks(64)
        .all(|chunk| chunk.iter().fold(0u8, |acc, &b| acc | b) == 0)
}

/// Verifies a slot read back for (`area`, `page`). On success returns the
/// page LSN recorded in the header (0 for an unwritten all-zero slot); on
/// failure returns [`StorageError::CorruptPage`] naming what went wrong.
pub fn verify(area: u32, page: u64, slot: &[u8]) -> StorageResult<u64> {
    assert!(slot.len() > PAGE_HDR, "slot smaller than its header");
    let (hdr, data) = slot.split_at(PAGE_HDR);
    if all_zero(hdr) {
        // Never-sealed slot: valid only as the all-zero unwritten page.
        if all_zero(data) {
            return Ok(0);
        }
        return Err(StorageError::CorruptPage {
            area,
            page,
            reason: CorruptKind::Checksum,
        });
    }
    if le_u32(&hdr[0..4]) != PAGE_MAGIC {
        return Err(StorageError::CorruptPage {
            area,
            page,
            reason: CorruptKind::Checksum,
        });
    }
    let sum = slot_checksum(hdr, data);
    if sum != le_u64(&hdr[24..32]) {
        return Err(StorageError::CorruptPage {
            area,
            page,
            reason: CorruptKind::Checksum,
        });
    }
    let found_area = le_u32(&hdr[4..8]);
    let found_page = le_u64(&hdr[8..16]);
    if found_area != area || found_page != page {
        // Checksum is intact but the identity is someone else's: a
        // misdirected write landed here (or this page was copied away).
        return Err(StorageError::CorruptPage {
            area,
            page,
            reason: CorruptKind::WrongPage {
                found_area,
                found_page,
            },
        });
    }
    Ok(le_u64(&hdr[16..24]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_then_verify_roundtrips_lsn() {
        let data = [0xA5u8; 64];
        let mut slot = vec![0u8; PAGE_HDR + 64];
        seal(7, 42, 99, &data, &mut slot);
        assert_eq!(verify(7, 42, &slot).unwrap(), 99);
        assert_eq!(&slot[PAGE_HDR..], &data[..]);
    }

    #[test]
    fn all_zero_slot_is_valid_unwritten_page() {
        let slot = vec![0u8; PAGE_HDR + 64];
        assert_eq!(verify(1, 3, &slot).unwrap(), 0);
    }

    #[test]
    fn zero_header_with_nonzero_data_is_corrupt() {
        // Every position, across the 64-byte chunks and the short tail.
        for at in 0..100 {
            let mut slot = vec![0u8; PAGE_HDR + 100];
            slot[PAGE_HDR + at] = 1;
            match verify(1, 3, &slot) {
                Err(StorageError::CorruptPage {
                    reason: CorruptKind::Checksum,
                    ..
                }) => {}
                other => panic!("byte {at}: expected checksum corruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flip_in_data_is_detected() {
        let data = [3u8; 32];
        let mut slot = vec![0u8; PAGE_HDR + 32];
        seal(0, 9, 0, &data, &mut slot);
        slot[PAGE_HDR + 17] ^= 0x40;
        assert!(matches!(
            verify(0, 9, &slot),
            Err(StorageError::CorruptPage {
                reason: CorruptKind::Checksum,
                ..
            })
        ));
    }

    #[test]
    fn bit_flip_in_header_is_detected() {
        let data = [3u8; 32];
        let mut slot = vec![0u8; PAGE_HDR + 32];
        seal(0, 9, 17, &data, &mut slot);
        slot[20] ^= 0x01; // LSN field
        assert!(verify(0, 9, &slot).is_err());
    }

    #[test]
    fn misdirected_slot_reports_found_identity() {
        let data = [1u8; 32];
        let mut slot = vec![0u8; PAGE_HDR + 32];
        seal(2, 5, 0, &data, &mut slot);
        // Read back as a different page: intact checksum, wrong identity.
        match verify(2, 6, &slot) {
            Err(StorageError::CorruptPage {
                area: 2,
                page: 6,
                reason:
                    CorruptKind::WrongPage {
                        found_area: 2,
                        found_page: 5,
                    },
            }) => {}
            other => panic!("expected WrongPage, got {other:?}"),
        }
    }

    #[test]
    fn slot_checksum_is_order_and_length_sensitive() {
        let hdr = [7u8; 24];
        // Swapping two words must change the sum (chains are ordered).
        let mut a = [0u8; 64];
        a[0] = 1;
        let mut b = [0u8; 64];
        b[8] = 1;
        assert_ne!(slot_checksum(&hdr, &a), slot_checksum(&hdr, &b));
        // A short tail is length-tagged: trailing zeros are not free.
        assert_ne!(slot_checksum(&hdr, &[1]), slot_checksum(&hdr, &[1, 0]));
        // Odd (non-word-multiple) data lengths round-trip through
        // seal/verify like any other.
        let data = [0xC3u8; 100];
        let mut slot = vec![0u8; PAGE_HDR + 100];
        seal(1, 2, 3, &data, &mut slot);
        assert_eq!(verify(1, 2, &slot).unwrap(), 3);
        slot[PAGE_HDR + 99] ^= 0x01;
        assert!(verify(1, 2, &slot).is_err());
    }

    #[test]
    fn checksum_matches_wal_fnv_constants() {
        // Empty input must yield the FNV-1a offset basis.
        assert_eq!(checksum(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(checksum(b"a"), checksum(b"b"));
    }
}
