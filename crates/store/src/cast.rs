//! Alignment-checked reinterpretation of byte buffers as
//! `u64`/`u32`/`f64` slices — the zero-copy substrate of the validated
//! snapshot views — plus [`AlignedBytes`], an owned byte buffer whose
//! storage is guaranteed to start on an 8-byte boundary, filled in
//! place through a byte view of its words by positional file reads
//! over disjoint byte ranges.
//!
//! This is the only module in the workspace that uses `unsafe`. The
//! casts check the invariants they rely on (8-byte start alignment and a
//! length that is a multiple of 8) and panic on violation; the load
//! pipeline establishes those invariants before any cast by rejecting
//! misaligned buffers with [`crate::StoreError::Misaligned`] and
//! enforcing 8-byte-granular section extents.

use std::fs::File;
use std::io::{self, Read};

use disc_metric::tasks::run_tasks;

/// Reinterprets `bytes` as native-endian `u64`s without copying.
///
/// # Panics
///
/// Panics if `bytes` does not start on an 8-byte boundary or its length
/// is not a multiple of 8. Callers inside this crate validate both
/// before reaching here.
pub(crate) fn as_u64s(bytes: &[u8]) -> &[u64] {
    assert!(
        bytes.as_ptr().align_offset(std::mem::align_of::<u64>()) == 0,
        "byte buffer must be 8-byte aligned"
    );
    assert!(
        bytes.len().is_multiple_of(8),
        "byte length must be a multiple of 8, got {}",
        bytes.len()
    );
    // SAFETY: the pointer is 8-byte aligned and the region holds
    // `len / 8` complete u64 values, all within the borrowed slice; any
    // bit pattern is a valid u64. The returned slice borrows `bytes`,
    // so the aliasing and lifetime rules are inherited.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u64>(), bytes.len() / 8) }
}

/// Reinterprets `bytes` as native-endian `u32`s without copying — the
/// 32-bit neighbor ids of format v4.
///
/// # Panics
///
/// Panics under the same conditions as [`as_u64s`] (8-byte alignment
/// and length are stricter than a `u32` needs; every section has both).
pub(crate) fn as_u32s(bytes: &[u8]) -> &[u32] {
    assert!(
        bytes.as_ptr().align_offset(8) == 0,
        "byte buffer must be 8-byte aligned"
    );
    assert!(
        bytes.len().is_multiple_of(8),
        "byte length must be a multiple of 8, got {}",
        bytes.len()
    );
    // SAFETY: the pointer is 8-byte (so 4-byte) aligned and the region
    // holds `len / 4` complete u32 values, all within the borrowed
    // slice; any bit pattern is a valid u32. The returned slice borrows
    // `bytes`, so the aliasing and lifetime rules are inherited.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), bytes.len() / 4) }
}

/// Reinterprets `bytes` as native-endian `f64`s without copying.
///
/// # Panics
///
/// Panics under the same conditions as [`as_u64s`].
pub(crate) fn as_f64s(bytes: &[u8]) -> &[f64] {
    assert!(
        bytes.as_ptr().align_offset(std::mem::align_of::<f64>()) == 0,
        "byte buffer must be 8-byte aligned"
    );
    assert!(
        bytes.len().is_multiple_of(8),
        "byte length must be a multiple of 8, got {}",
        bytes.len()
    );
    // SAFETY: as in `as_u64s`; any bit pattern is a valid f64 (NaN
    // payloads included — the semantic validators reject non-finite
    // values downstream, by value rather than by representation).
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f64>(), bytes.len() / 8) }
}

/// Views `words` as their bytes, for writing into: the one mutable
/// reinterpretation, used to fill [`AlignedBytes`] storage in place.
fn words_as_bytes_mut(words: &mut [u64]) -> &mut [u8] {
    // SAFETY: the region is `words.len() * 8` initialized bytes inside
    // one allocation; u8 has no alignment or validity requirements, and
    // every byte pattern written through the view is a valid u64. The
    // returned slice reborrows `words` mutably, so nothing else can
    // observe the words while it lives.
    unsafe {
        std::slice::from_raw_parts_mut(
            words.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(words),
        )
    }
}

/// Bytes per positional read in [`AlignedBytes::read_file`].
const READ_CHUNK: usize = 1 << 20;

/// Reads `file` from byte `at` into `buf` until `buf` is full or the
/// file ends, [`READ_CHUNK`] bytes per call; returns the bytes read.
/// A positional read neither uses nor moves `file`'s cursor, so tasks
/// can read disjoint ranges of one handle at once. Otherwise the read
/// goes through the cursor, which must stand at `at`: that serves a
/// file that cannot seek, such as a pipe.
fn read_range(file: &File, buf: &mut [u8], at: u64, positional: bool) -> io::Result<usize> {
    let mut cursor = file;
    let mut got = 0;
    while got < buf.len() {
        let end = buf.len().min(got + READ_CHUNK);
        let read = if positional {
            read_at(file, &mut buf[got..end], at + got as u64)
        } else {
            cursor.read(&mut buf[got..end])
        };
        match read {
            Ok(0) => break,
            // `as_bytes` relies on the length staying inside the
            // words, so no count is trusted past the buffer.
            Ok(read) => got += read.min(end - got),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], at: u64) -> io::Result<usize> {
    std::os::unix::fs::FileExt::read_at(file, buf, at)
}

#[cfg(windows)]
fn read_at(file: &File, buf: &mut [u8], at: u64) -> io::Result<usize> {
    std::os::windows::fs::FileExt::seek_read(file, buf, at)
}

/// An owned byte buffer backed by `u64` storage, so its first byte is
/// always 8-byte aligned. File reads land here before validation:
/// `Vec<u8>` from `std::fs::read` carries no alignment guarantee, and
/// [`crate::load`] fails closed on misaligned input rather than copying
/// behind the caller's back.
#[derive(Clone, Debug)]
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Copies `bytes` into fresh 8-byte-aligned storage.
    pub fn copy_from(bytes: &[u8]) -> Self {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        words_as_bytes_mut(&mut words)[..bytes.len()].copy_from_slice(bytes);
        Self {
            words,
            len: bytes.len(),
        }
    }

    /// Reads `file` to EOF straight into fresh 8-byte-aligned storage,
    /// the file's one copy: the bytes a serial read to EOF returns.
    /// `size_hint` (the probed file length) sizes the storage with one
    /// spare word, cut into `workers` byte ranges of positional reads,
    /// one task each, so the reads and the page faults of the fresh
    /// storage run in parallel. The bytes end at the first range that
    /// meets EOF (a file that shrank since the probe); when every range
    /// fills, spare word included, the file grew, and the read goes on
    /// serially, doubling the storage, until EOF. One worker reads in
    /// order through the file's cursor, which must stand at the start;
    /// so a pipe, which cannot seek and reports no length, reads too.
    pub(crate) fn read_file(file: &File, size_hint: usize, workers: usize) -> io::Result<Self> {
        let positional = workers > 1;
        let mut words = vec![0u64; size_hint / 8 + 1];
        let bytes = words_as_bytes_mut(&mut words);
        let piece = bytes.len().div_ceil(workers.max(1));
        let ranges: Vec<(u64, &mut [u8])> =
            (0..).step_by(piece).zip(bytes.chunks_mut(piece)).collect();
        let reads = run_tasks(ranges, workers, |(at, buf)| {
            (buf.len(), read_range(file, buf, at, positional))
        });
        let mut len = 0;
        for (want, got) in reads {
            let got = got?;
            len += got;
            if got < want {
                return Ok(Self { words, len });
            }
        }
        loop {
            words.resize(words.len() * 2, 0);
            let bytes = words_as_bytes_mut(&mut words);
            let want = bytes.len() - len;
            let got = read_range(file, &mut bytes[len..], len as u64, positional)?;
            len += got;
            if got < want {
                return Ok(Self { words, len });
            }
        }
    }

    /// The buffer contents; the returned slice starts on an 8-byte
    /// boundary.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: the Vec<u64> allocation is 8-byte aligned and holds at
        // least `len` initialized bytes (`len <= words.len() * 8`); u8
        // has no validity requirements. The slice borrows `self`.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }

    /// Number of bytes held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_arbitrary_lengths() {
        for len in 0..32usize {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let aligned = AlignedBytes::copy_from(&bytes);
            assert_eq!(aligned.as_bytes(), &bytes[..]);
            assert_eq!(aligned.len(), len);
            assert_eq!(aligned.is_empty(), len == 0);
            assert_eq!(aligned.as_bytes().as_ptr().align_offset(8), 0);
        }
    }

    #[test]
    fn u64_and_f64_views_read_back_written_values() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0xDEAD_BEEF_u64.to_ne_bytes());
        bytes.extend_from_slice(&2.5f64.to_ne_bytes());
        let aligned = AlignedBytes::copy_from(&bytes);
        let b = aligned.as_bytes();
        assert_eq!(as_u64s(&b[..8]), &[0xDEAD_BEEF]);
        assert_eq!(as_f64s(&b[8..16]), &[2.5]);
        let halves = [0xDEAD_BEEF_u32.to_ne_bytes(), 7u32.to_ne_bytes()].concat();
        assert_eq!(
            as_u32s(AlignedBytes::copy_from(&halves).as_bytes()),
            &[0xDEAD_BEEF, 7]
        );
    }

    #[test]
    fn file_reads_return_the_file_whatever_the_probe_said() {
        // A probe shorter than the file is a file that grew after it; a
        // longer one, a file that shrank. Either way, and at every
        // worker count, the bytes are the file's.
        let path = std::env::temp_dir().join(format!("disc-store-cast-{}.bin", std::process::id()));
        let bytes: Vec<u8> = (0..100_003u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &bytes).expect("write");
        for hint in [0, 7, 8, 50_000, 100_002, 100_003, 100_004, 100_008, 300_000] {
            for workers in [1, 2, 3, 8] {
                let file = File::open(&path).expect("open");
                let read = AlignedBytes::read_file(&file, hint, workers).expect("read");
                assert!(
                    read.as_bytes() == &bytes[..],
                    "hint {hint} workers {workers}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn one_worker_reads_a_pipe() {
        // A pipe cannot seek and reports no length: the probe says 0.
        let bytes: Vec<u8> = (0..300_001u32).map(|i| (i % 241) as u8).collect();
        let (reader, mut writer) = io::pipe().expect("pipe");
        let feed = bytes.clone();
        let feeder = std::thread::spawn(move || io::Write::write_all(&mut writer, &feed));
        let file = File::from(std::os::fd::OwnedFd::from(reader));
        let read = AlignedBytes::read_file(&file, 0, 1).expect("read");
        feeder.join().expect("feeder").expect("write");
        assert!(read.as_bytes() == &bytes[..]);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn rejects_ragged_lengths() {
        let aligned = AlignedBytes::copy_from(&[1, 2, 3]);
        let _ = as_u64s(aligned.as_bytes());
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn rejects_misaligned_starts() {
        let aligned = AlignedBytes::copy_from(&[0u8; 17]);
        let _ = as_u64s(&aligned.as_bytes()[1..17]);
    }
}
