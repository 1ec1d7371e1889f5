//! On-disk run formats and buffered run readers.
//!
//! A spilled run is written in the **flat** encoding (the default,
//! [`dtsort::SpillCompression::Off`]) or the **compressed block**
//! encoding ([`dtsort::SpillCompression::DeltaLz`]).  The flat encoding
//! is a sequence of records in one of two formats, chosen statically by
//! the value type ([`SpillValue`]):
//!
//! **Fixed** — for [`PodValue`] types, whose in-memory byte image is the
//! record payload:
//!
//! ```text
//! ┌────────────────────────┬───────────────────┐
//! │ key (8 bytes, LE)      │ value (V bytes)   │  × run length
//! └────────────────────────┴───────────────────┘
//! ```
//!
//! **Variable-length** — for [`VarValue`] types (`Vec<u8>`, `String`,
//! `Box<[u8]>`), whose payload is length-prefixed:
//!
//! ```text
//! ┌────────────────────────┬────────────────────┬───────────────────┐
//! │ key (8 bytes, LE)      │ value_len (u32 LE) │ value bytes       │  × run length
//! └────────────────────────┴────────────────────┴───────────────────┘
//! ```
//!
//! Keys are stored in the ordered-`u64` domain
//! ([`dtsort::IntegerKey::to_ordered_u64`]), so the merge compares raw
//! `u64`s and the original key type is reconstructed only on output.
//! Fixed-format values are written as their in-memory bytes, which is why
//! they must implement the padding-free [`PodValue`] contract; var-format
//! values stream through a reusable side buffer sized to the largest value
//! seen, never through `size_of::<V>()` scratch.
//!
//! The **compressed block** encoding groups records into independently
//! decodable blocks (at most [`BLOCK_MAX_RECORDS`] records or roughly
//! [`BLOCK_RAW_TARGET`] payload bytes each):
//!
//! ```text
//! ┌──────────────┬─────────────┬─────────────┬─────────────┬───────┬─────┐
//! │ record_count │ key_stream  │ payload_raw │ payload_enc │ crc32 │ enc │
//! │ (u32 LE)     │ _len (u32)  │ _len (u32)  │ _len (u32)  │ (u32) │ u8  │
//! ├──────────────┴─────────────┴─────────────┴─────────────┴───────┴─────┤
//! │ key stream: first key absolute, then deltas (LEB128 varints)         │
//! ├──────────────────────────────────────────────────────────────────────┤
//! │ payload: concatenated record payloads, LZ-compressed when            │
//! │ enc = 1, stored raw when enc = 0 (incompressible fallback)           │
//! └──────────────────────────────────────────────────────────────────────┘  × blocks
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the key stream followed by the encoded
//! payload, verified on decode **before** either section is interpreted —
//! silent bit rot in a spill file surfaces as
//! [`io::ErrorKind::InvalidData`] instead of wrong records.
//!
//! Keys within a run are sorted, so the deltas are non-negative and
//! small — most encode in one byte.  The payload bytes are exactly what
//! the flat encoding would have written after each key (length prefixes
//! included), so one `spill_read` path decodes values from either
//! encoding.  Decoding is transparent: [`RunReader`] yields identical
//! records for both, which is what the compression differential tests
//! assert end to end.
//!
//! Every [`SpilledRun`] records its record count, its exact on-disk byte
//! size *and* its pre-compression byte size, so truncated spill files are
//! rejected at open time in either encoding, and a corrupted length
//! prefix or block header can never read past the run (or allocate more
//! than the run's recorded raw size).

use crate::codec;
use crate::spillio::{SpillIoHandle, SpillRead, SpillWrite};
use dtsort::{IntegerKey, RunReport, SortConfig, SpillCompression, SpillRetryPolicy};
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::mem::size_of;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Typed payload of a spill-stack failure, carried *inside* an
/// [`io::Error`] (via [`io::Error::new`]'s boxed-error slot) so every
/// existing `io::Result` signature keeps working while callers that care
/// can recover the context with [`SpillError::from_io`].
///
/// The wrapping preserves the source's [`io::ErrorKind`], so
/// `e.kind() == ErrorKind::StorageFull` still distinguishes ENOSPC from
/// corruption (`InvalidData`) or a quota rejection (`QuotaExceeded`)
/// without any downcast.
#[derive(Debug)]
pub struct SpillError {
    /// The spill file (or directory, for quota failures) involved.
    pub path: PathBuf,
    /// Engine-assigned index of the run being written or read when the
    /// operation failed.
    pub run_index: usize,
    /// Bytes the failed operation attempted to move.
    pub bytes_attempted: u64,
    source: io::Error,
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "spill run {} ({}, {} bytes attempted): {}",
            self.run_index,
            self.path.display(),
            self.bytes_attempted,
            self.source
        )
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl SpillError {
    /// Builds the typed payload; pair with [`SpillError::into_io`].
    pub fn new(path: PathBuf, run_index: usize, bytes_attempted: u64, source: io::Error) -> Self {
        Self {
            path,
            run_index,
            bytes_attempted,
            source,
        }
    }

    /// Wraps this payload back into an [`io::Error`] of the *source's*
    /// kind, so kind-based classification (transient vs permanent,
    /// ENOSPC vs corruption) is unaffected by the added context.
    pub fn into_io(self) -> io::Error {
        let kind = self.source.kind();
        io::Error::new(kind, self)
    }

    /// The underlying I/O error.
    pub fn source_io(&self) -> &io::Error {
        &self.source
    }

    /// Recovers the typed payload from an [`io::Error`] produced by
    /// [`SpillError::into_io`], if that is what `e` carries.
    pub fn from_io(e: &io::Error) -> Option<&SpillError> {
        e.get_ref()?.downcast_ref()
    }
}

/// Wraps `source` with spill context unless it already carries a
/// [`SpillError`] (an error can cross several layers that each know the
/// path; the innermost wrap wins — it has the most precise context).
pub(crate) fn wrap_spill_err(
    path: &Path,
    run_index: usize,
    bytes_attempted: u64,
    source: io::Error,
) -> io::Error {
    if SpillError::from_io(&source).is_some() {
        return source;
    }
    SpillError::new(path.to_path_buf(), run_index, bytes_attempted, source).into_io()
}

/// Runs `op`, retrying transient failures ([`SpillRetryPolicy::is_transient`])
/// up to `policy.max_retries` times with the policy's deterministic
/// backoff.  Returns the value plus the number of retries spent; the
/// first permanent error (or transient-retry exhaustion) surfaces as-is.
pub(crate) fn with_transient_retry<T>(
    policy: &SpillRetryPolicy,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<(T, u32)> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok((v, attempt)),
            Err(e) if attempt < policy.max_retries && SpillRetryPolicy::is_transient(e.kind()) => {
                if obs::enabled() {
                    crate::metrics::m().spill_retries.incr();
                }
                let backoff = policy.backoff(attempt);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// A unique, self-deleting directory holding one consumer's spill files
/// (used by both the streaming sorter and the streaming group-by).
#[derive(Debug)]
pub(crate) struct SpillSpace {
    pub(crate) dir: PathBuf,
}

static SPILL_SPACE_COUNTER: AtomicU64 = AtomicU64::new(0);

impl SpillSpace {
    pub(crate) fn create(base: Option<&PathBuf>) -> io::Result<Self> {
        let base = base.cloned().unwrap_or_else(std::env::temp_dir);
        let unique = format!(
            "pisort-stream-{}-{}",
            std::process::id(),
            SPILL_SPACE_COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let dir = base.join(unique);
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }
}

impl Drop for SpillSpace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub(crate) mod sealed {
    pub trait Sealed {}
}

/// Marker for values that can be spilled by their in-memory byte image
/// (the *fixed* on-disk record format).
///
/// # Safety
///
/// Implementors must be `Copy` types with **no padding bytes** (every byte
/// of the in-memory representation is initialized) for which every byte
/// pattern written from a valid value reads back as that same valid value.
/// All primitive numeric types and fixed-size arrays of them qualify;
/// structs/tuples with padding do not.
pub unsafe trait PodValue: Copy + Send + Sync + 'static {}

/// Values spilled through the *variable-length* on-disk record format:
/// anything serializable to (and from) a byte slice.
///
/// Implemented for `Vec<u8>`, `String` and `Box<[u8]>`.  `from_spill_bytes`
/// may fail with [`io::ErrorKind::InvalidData`] when the bytes violate the
/// type's invariants (e.g. non-UTF-8 bytes read back as a `String`), which
/// surfaces file corruption instead of panicking mid-merge.
pub trait VarValue: Clone + Send + Sync + 'static {
    /// The serialized payload of this value.
    fn as_spill_bytes(&self) -> &[u8];
    /// Reconstructs a value from a payload previously produced by
    /// [`VarValue::as_spill_bytes`].
    fn from_spill_bytes(bytes: &[u8]) -> io::Result<Self>;
}

impl VarValue for Vec<u8> {
    fn as_spill_bytes(&self) -> &[u8] {
        self
    }
    fn from_spill_bytes(bytes: &[u8]) -> io::Result<Self> {
        Ok(bytes.to_vec())
    }
}

impl VarValue for Box<[u8]> {
    fn as_spill_bytes(&self) -> &[u8] {
        self
    }
    fn from_spill_bytes(bytes: &[u8]) -> io::Result<Self> {
        Ok(bytes.to_vec().into_boxed_slice())
    }
}

impl VarValue for String {
    fn as_spill_bytes(&self) -> &[u8] {
        self.as_bytes()
    }
    fn from_spill_bytes(bytes: &[u8]) -> io::Result<Self> {
        String::from_utf8(bytes.to_vec()).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("spilled String payload is not UTF-8: {e}"),
            )
        })
    }
}

/// A value the streaming sorter and group-by can spill to disk: either a
/// [`PodValue`] (fixed-size records, zero-copy byte images) or a
/// [`VarValue`] (`Vec<u8>`, `String`, `Box<[u8]>`; length-prefixed
/// records).
///
/// This trait is **sealed**: the two families have different on-disk
/// formats and different in-memory sort/merge strategies, and each listed
/// type is wired to the right one here.  User code only ever names the
/// trait in bounds (`StreamSorter<u64, String>` just works).
pub trait SpillValue: Clone + Send + Sync + 'static + sealed::Sealed {
    /// `Some(n)` for fixed `n`-byte payloads, `None` for length-prefixed
    /// payloads.
    #[doc(hidden)]
    const SPILL_FIXED_SIZE: Option<usize>;

    /// On-disk payload bytes of this value (length prefix included).
    #[doc(hidden)]
    fn spill_size(&self) -> usize;

    /// Writes this value's payload (length prefix included).  The sink is
    /// a `dyn Write` so the same serializer feeds both the flat spill
    /// file and the in-memory payload buffer of a compressed block.
    #[doc(hidden)]
    fn spill_write(&self, w: &mut dyn Write) -> io::Result<()>;

    /// Reads one payload; `payload_budget` is the number of bytes left in
    /// the run (or decoded block) after the record's key, bounding length
    /// prefixes so a corrupted prefix cannot read past the run (or
    /// allocate unboundedly).
    #[doc(hidden)]
    fn spill_read(r: &mut dyn Read, scratch: &mut Vec<u8>, payload_budget: u64) -> io::Result<Self>
    where
        Self: Sized;

    /// A cheap placeholder value for pre-sized output buffers.
    #[doc(hidden)]
    fn spill_placeholder() -> Self;

    /// Stably sorts one buffered run by key, seeding heavy-key detection
    /// with `carry` (see [`dtsort::sort_run_pairs_with`]).  The default is
    /// the variable-length path, which sorts `(key, index)` tags and
    /// permutes the owned values once.
    #[doc(hidden)]
    fn sort_spill_run<K: IntegerKey>(
        buffer: &mut Vec<(K, Self)>,
        cfg: &SortConfig,
        carry: &[u64],
    ) -> RunReport
    where
        Self: Sized,
    {
        crate::sorter::var_sort_run(buffer, cfg, carry)
    }

    /// Stably k-way merges the sorted `runs` plus the sorted in-memory
    /// `tail` into `out` (ties favour earlier runs; the tail is last).
    /// The default is the variable-length path, which merges
    /// `(key, slot)` tags and gathers the owned values once.
    #[doc(hidden)]
    fn merge_spill_runs_into<K: IntegerKey>(
        runs: Vec<Vec<(K, Self)>>,
        tail: Vec<(K, Self)>,
        out: &mut [(K, Self)],
    ) where
        Self: Sized,
    {
        crate::sorter::var_merge_runs_into(runs, tail, out)
    }

    /// Strict-weak order of merge records, used by the final streaming
    /// loser tree.  The default compares ordered-`u64` keys alone; values
    /// with an embedded full key (string-keyed records) override it to
    /// tie-break equal key prefixes on the full key bytes, which is what
    /// makes the 8-byte-prefix mapping order-preserving end to end.
    #[doc(hidden)]
    fn spill_record_lt(a: &(u64, Self), b: &(u64, Self)) -> bool
    where
        Self: Sized,
    {
        a.0 < b.0
    }

    /// Full-key bytes embedded in the payload, for values that carry
    /// their own key (string-keyed records).  The streaming group-by uses
    /// this to sub-group records whose `u64` key prefixes collide and to
    /// refuse to combine partials of different full keys.
    #[doc(hidden)]
    fn spill_embedded_key(&self) -> Option<&[u8]> {
        None
    }
}

/// A value every bit of which is zero (valid for any [`PodValue`]).
pub(crate) fn pod_zeroed<V: PodValue>() -> V {
    // SAFETY: PodValue admits every initialized byte pattern, including
    // all-zeros.
    unsafe { std::mem::zeroed() }
}

fn value_bytes<V: PodValue>(v: &V) -> &[u8] {
    // SAFETY: PodValue guarantees no padding, so all size_of::<V>() bytes
    // are initialized.
    unsafe { std::slice::from_raw_parts((v as *const V).cast::<u8>(), size_of::<V>()) }
}

fn value_from_bytes<V: PodValue>(bytes: &[u8]) -> V {
    debug_assert_eq!(bytes.len(), size_of::<V>());
    // SAFETY: the buffer holds size_of::<V>() initialized bytes previously
    // produced by `value_bytes` for a valid value of V.
    unsafe { std::ptr::read_unaligned(bytes.as_ptr().cast::<V>()) }
}

pub(crate) fn short_run_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, what.to_string())
}

fn pod_spill_read<V: PodValue>(
    r: &mut dyn Read,
    scratch: &mut Vec<u8>,
    payload_budget: u64,
) -> io::Result<V> {
    let n = size_of::<V>();
    if (n as u64) > payload_budget {
        return Err(short_run_err("spilled run ended mid-value"));
    }
    scratch.resize(n, 0);
    r.read_exact(scratch)?;
    Ok(value_from_bytes(scratch))
}

fn var_spill_write<V: VarValue>(v: &V, w: &mut dyn Write) -> io::Result<()> {
    let bytes = v.as_spill_bytes();
    let len = u32::try_from(bytes.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "value of {} bytes exceeds the u32 spill length prefix",
                bytes.len()
            ),
        )
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(bytes)
}

fn var_spill_read<V: VarValue>(
    r: &mut dyn Read,
    scratch: &mut Vec<u8>,
    payload_budget: u64,
) -> io::Result<V> {
    if payload_budget < 4 {
        return Err(short_run_err("spilled run ended mid-length-prefix"));
    }
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u64::from(u32::from_le_bytes(len_bytes));
    if len > payload_budget - 4 {
        return Err(short_run_err(
            "value length prefix exceeds the bytes remaining in the spilled run",
        ));
    }
    scratch.resize(len as usize, 0);
    r.read_exact(scratch)?;
    V::from_spill_bytes(scratch)
}

macro_rules! impl_pod_spill {
    ($(impl[$($g:tt)*] $t:ty;)*) => {$(
        unsafe impl<$($g)*> PodValue for $t {}
        impl<$($g)*> sealed::Sealed for $t {}
        impl<$($g)*> SpillValue for $t {
            const SPILL_FIXED_SIZE: Option<usize> = Some(size_of::<$t>());
            fn spill_size(&self) -> usize {
                size_of::<$t>()
            }
            fn spill_write(&self, w: &mut dyn Write) -> io::Result<()> {
                w.write_all(value_bytes(self))
            }
            fn spill_read(
                r: &mut dyn Read,
                scratch: &mut Vec<u8>,
                payload_budget: u64,
            ) -> io::Result<Self> {
                pod_spill_read(r, scratch, payload_budget)
            }
            fn spill_placeholder() -> Self {
                pod_zeroed()
            }
            /// Records move through DovetailSort directly (the
            /// pre-variable-length fast path, byte-for-byte).
            fn sort_spill_run<K: IntegerKey>(
                buffer: &mut Vec<(K, Self)>,
                cfg: &SortConfig,
                carry: &[u64],
            ) -> RunReport {
                dtsort::sort_run_pairs_with(buffer, cfg, carry)
            }
            fn merge_spill_runs_into<K: IntegerKey>(
                runs: Vec<Vec<(K, Self)>>,
                tail: Vec<(K, Self)>,
                out: &mut [(K, Self)],
            ) {
                crate::sorter::pod_merge_runs_into(runs, tail, out)
            }
        }
    )*};
}
impl_pod_spill!(
    impl[] ();
    impl[] u8;
    impl[] u16;
    impl[] u32;
    impl[] u64;
    impl[] u128;
    impl[] usize;
    impl[] i8;
    impl[] i16;
    impl[] i32;
    impl[] i64;
    impl[] i128;
    impl[] isize;
    impl[] f32;
    impl[] f64;
    impl[] bool;
    impl[T: PodValue, const N: usize] [T; N];
);

macro_rules! impl_var_spill {
    ($($t:ty),* $(,)?) => {$(
        impl sealed::Sealed for $t {}
        impl SpillValue for $t {
            const SPILL_FIXED_SIZE: Option<usize> = None;
            fn spill_size(&self) -> usize {
                4 + self.as_spill_bytes().len()
            }
            fn spill_write(&self, w: &mut dyn Write) -> io::Result<()> {
                var_spill_write(self, w)
            }
            fn spill_read(
                r: &mut dyn Read,
                scratch: &mut Vec<u8>,
                payload_budget: u64,
            ) -> io::Result<Self> {
                var_spill_read(r, scratch, payload_budget)
            }
            fn spill_placeholder() -> Self {
                <$t as VarValue>::from_spill_bytes(&[]).expect("empty payload is valid")
            }
        }
    )*};
}
impl_var_spill!(Vec<u8>, String, Box<[u8]>);

/// Target decoded payload bytes per compressed block.  Blocks are decoded
/// whole on the read side, so this (plus one oversized value) bounds the
/// reader's block buffer.
pub(crate) const BLOCK_RAW_TARGET: usize = 64 << 10;
/// Upper bound on records per compressed block, bounding the decoded key
/// buffer even for zero-payload values.
pub(crate) const BLOCK_MAX_RECORDS: usize = 8192;
/// Bytes of the fixed compressed-block header:
/// `record_count u32 | key_stream_len u32 | payload_raw_len u32 |
/// payload_enc_len u32 | crc32 u32 | enc u8`.
const BLOCK_HEADER_BYTES: usize = 21;

fn bad_run_data(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Writes the compressed block encoding of `records`; returns
/// `(bytes_on_disk, raw_bytes)` where `raw_bytes` is what the flat
/// encoding would have written.
fn write_run_blocks<W: Write, K: IntegerKey, V: SpillValue>(
    writer: &mut W,
    records: &[(K, V)],
) -> io::Result<(u64, u64)> {
    let mut bytes = 0u64;
    let mut raw_bytes = 0u64;
    let mut key_stream = Vec::new();
    let mut payload = Vec::new();
    let mut enc = Vec::new();
    let mut i = 0usize;
    while i < records.len() {
        key_stream.clear();
        payload.clear();
        let mut prev_key = 0u64;
        let mut count = 0usize;
        while i < records.len()
            && count < BLOCK_MAX_RECORDS
            && (count == 0 || payload.len() < BLOCK_RAW_TARGET)
        {
            let (k, v) = &records[i];
            let key = k.to_ordered_u64();
            if count == 0 {
                codec::write_varint(&mut key_stream, key);
            } else {
                let delta = key.checked_sub(prev_key).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "compressed spill requires records sorted by ordered-u64 key",
                    )
                })?;
                codec::write_varint(&mut key_stream, delta);
            }
            prev_key = key;
            v.spill_write(&mut payload)?;
            raw_bytes += 8 + v.spill_size() as u64;
            count += 1;
            i += 1;
        }
        enc.clear();
        codec::lz_compress(&payload, &mut enc);
        // Store-raw fallback: incompressible blocks cost 21 header bytes,
        // never an inflated payload.
        let (flag, body): (u8, &[u8]) = if enc.len() < payload.len() {
            (1, &enc)
        } else {
            (0, &payload)
        };
        let crc = codec::crc32_update(codec::crc32_update(0, &key_stream), body);
        let too_big = |_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "compressed block section exceeds the u32 header field",
            )
        };
        writer.write_all(&(count as u32).to_le_bytes())?;
        writer.write_all(
            &u32::try_from(key_stream.len())
                .map_err(too_big)?
                .to_le_bytes(),
        )?;
        writer.write_all(&u32::try_from(payload.len()).map_err(too_big)?.to_le_bytes())?;
        writer.write_all(&u32::try_from(body.len()).map_err(too_big)?.to_le_bytes())?;
        writer.write_all(&crc.to_le_bytes())?;
        writer.write_all(&[flag])?;
        writer.write_all(&key_stream)?;
        writer.write_all(body)?;
        bytes += (BLOCK_HEADER_BYTES + key_stream.len() + body.len()) as u64;
    }
    Ok((bytes, raw_bytes))
}

/// Writes a sorted run to `path` through the `io` backend in the given
/// encoding and syncs it to disk; returns the run's full metadata.
///
/// The final durability step ([`SpillWrite::finish`]) is part of the
/// spill contract: a run is recorded as spilled (and its buffered records
/// dropped) only after this returns, so a run the stats report as spilled
/// is fully on disk — a panic or crash later can never leave a recorded
/// run truncated the way a dropped buffered writer silently would.
pub(crate) fn write_run<K: IntegerKey, V: SpillValue>(
    io: &SpillIoHandle,
    path: &Path,
    records: &[(K, V)],
    compression: SpillCompression,
) -> io::Result<SpilledRun> {
    let mut writer: Box<dyn SpillWrite> = io.create(path)?;
    let (bytes, raw_bytes) = match compression {
        SpillCompression::Off => {
            let mut bytes = 0u64;
            for (key, value) in records {
                writer.write_all(&key.to_ordered_u64().to_le_bytes())?;
                value.spill_write(&mut writer)?;
                bytes += 8 + value.spill_size() as u64;
            }
            (bytes, bytes)
        }
        SpillCompression::DeltaLz => write_run_blocks(&mut writer, records)?,
    };
    if obs::enabled() {
        let start = std::time::Instant::now();
        writer.finish()?;
        let metrics = crate::metrics::m();
        metrics.fsync_ns.record_duration(start.elapsed());
        metrics.bytes_written.add(bytes);
        metrics.raw_bytes_spilled.add(raw_bytes);
    } else {
        writer.finish()?;
    }
    Ok(SpilledRun {
        path: path.to_path_buf(),
        len: records.len(),
        bytes,
        raw_bytes,
        compression,
        retries: 0,
    })
}

/// [`write_run`] with transient-failure retry per `policy`.
///
/// Each attempt recreates the file from scratch (`create` truncates), and
/// a failed attempt's partial file is removed before backing off, so a
/// torn or unsynced earlier attempt can never leak bytes into the run
/// that finally succeeds.  The returned run's `retries` records the
/// attempts spent, so callers can fold it into engine stats.
pub(crate) fn write_run_with_retry<K: IntegerKey, V: SpillValue>(
    io: &SpillIoHandle,
    path: &Path,
    records: &[(K, V)],
    compression: SpillCompression,
    policy: &SpillRetryPolicy,
) -> io::Result<SpilledRun> {
    let (mut run, retries) = with_transient_retry(policy, || {
        write_run(io, path, records, compression).inspect_err(|_| {
            std::fs::remove_file(path).ok();
        })
    })?;
    run.retries = retries;
    Ok(run)
}

/// Metadata of one spilled run: record count, exact on-disk byte size,
/// pre-compression byte size and encoding, so readers can reject
/// truncated or overcounted runs in either encoding (and bound their
/// decode buffers by `raw_bytes`).
#[derive(Debug)]
pub(crate) struct SpilledRun {
    pub path: PathBuf,
    pub len: usize,
    pub bytes: u64,
    /// Bytes the flat encoding would occupy; equals `bytes` when
    /// `compression` is `Off`.
    pub raw_bytes: u64,
    pub compression: SpillCompression,
    /// Transient-failure retries spent writing this run
    /// ([`write_run_with_retry`]); folded into engine stats by the
    /// sorter/group-by accounting.
    pub retries: u32,
}

/// Read-buffer bytes granted to each of `runs` spilled runs during a
/// merge: an equal split of `total_bytes`, capped at 8 MiB per run and
/// floored at 64 bytes (just enough to keep `BufReader` functional).
///
/// The aggregate across all runs is therefore
/// `max(total_bytes, 64 · runs)` — the old 4 KiB floor let a 64-run merge
/// claim 256 KiB of buffers against a 16 KiB budget.  Callers that want
/// read-ahead gate on [`crate::engine::MIN_PREFETCH_RUN_BUDGET`] instead
/// of relying on a generous floor here.  The single clamp shared by the
/// sorter and the group-by, so the two paths cannot drift.
pub(crate) fn per_run_reader_budget(total_bytes: usize, runs: usize) -> usize {
    (total_bytes / runs.max(1)).clamp(64, 8 << 20)
}

/// Whether `buffered_bytes` of variable-length payloads justify spilling a
/// run: one budget share out of `shares`
/// ([`dtsort::StreamConfig::spill_shares`] — the rest is sort/aggregation
/// working space plus, when pipelining, the payload bytes of in-flight
/// runs).  Always false for fixed-size values, whose footprint the
/// record-count capacity already bounds.  One policy shared by the sorter
/// and the group-by, so the two engines cannot drift.
pub(crate) fn var_payload_should_spill<V: SpillValue>(
    buffered_bytes: usize,
    memory_budget_bytes: usize,
    shares: usize,
) -> bool {
    V::SPILL_FIXED_SIZE.is_none() && buffered_bytes >= memory_budget_bytes / shares.max(2)
}

/// Spilled payload bytes of `chunk`, or 0 for fixed-size values (whose
/// byte meter is never consulted).
pub(crate) fn var_payload_bytes<K, V: SpillValue>(chunk: &[(K, V)]) -> usize {
    if V::SPILL_FIXED_SIZE.is_some() {
        return 0;
    }
    chunk.iter().map(|(_, v)| v.spill_size()).sum()
}

/// Buffered sequential reader over one spilled run, decoding either
/// encoding transparently (the merge and the prefetcher never see block
/// boundaries).
pub(crate) struct RunReader<V: SpillValue> {
    reader: Box<dyn SpillRead>,
    remaining: usize,
    bytes_remaining: u64,
    /// Decoded (flat-equivalent) bytes left, from `SpilledRun::raw_bytes`;
    /// bounds the block decode buffers against corrupt headers.
    raw_remaining: u64,
    compression: SpillCompression,
    /// Decoded keys of the current block (`DeltaLz` only).
    block_keys: Vec<u64>,
    /// Decoded payload of the current block (`DeltaLz` only).
    block_payload: Vec<u8>,
    block_next: usize,
    block_payload_pos: usize,
    /// Side buffer values stream through; for var-format runs it grows to
    /// the largest value of the run and is reused across records.
    scratch: Vec<u8>,
    _value: PhantomData<V>,
}

impl<V: SpillValue> RunReader<V> {
    pub fn open(io: &SpillIoHandle, run: &SpilledRun, buffer_bytes: usize) -> io::Result<Self> {
        // The caller's budget is honored as given (64-byte floor inside
        // the backend so buffered reads stay functional) — re-inflating
        // small budgets here would undo the aggregate cap of
        // `per_run_reader_budget`.
        let (reader, actual) = io.open(&run.path, buffer_bytes)?;
        // Validate the file length eagerly: a truncated spill file must
        // surface as an I/O error here, at open time, rather than as a
        // mid-merge failure (or, worse, a silently shorter output if a
        // caller ever trusted the byte stream over the run metadata).
        if actual < run.bytes {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "truncated spilled run {}: expected {} bytes for {} records, found {}",
                    run.path.display(),
                    run.bytes,
                    run.len,
                    actual
                ),
            ));
        }
        Ok(Self {
            reader,
            remaining: run.len,
            bytes_remaining: run.bytes,
            raw_remaining: run.raw_bytes,
            compression: run.compression,
            block_keys: Vec::new(),
            block_payload: Vec::new(),
            block_next: 0,
            block_payload_pos: 0,
            scratch: Vec::new(),
            _value: PhantomData,
        })
    }

    /// Reads the next record, or `None` at end of run.
    pub fn next_record(&mut self) -> io::Result<Option<(u64, V)>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.compression {
            SpillCompression::Off => self.next_record_flat(),
            SpillCompression::DeltaLz => self.next_record_block(),
        }
    }

    fn next_record_flat(&mut self) -> io::Result<Option<(u64, V)>> {
        if self.bytes_remaining < 8 {
            // The run claims more records than its bytes can hold; refuse
            // to read past the end rather than serve garbage.
            return Err(short_run_err(
                "spilled run record count exceeds its byte size",
            ));
        }
        let mut key_bytes = [0u8; 8];
        self.reader.read_exact(&mut key_bytes)?;
        let payload_budget = self.bytes_remaining - 8;
        let value = V::spill_read(&mut self.reader, &mut self.scratch, payload_budget)?;
        self.bytes_remaining = payload_budget - value.spill_size() as u64;
        self.remaining -= 1;
        Ok(Some((u64::from_le_bytes(key_bytes), value)))
    }

    fn next_record_block(&mut self) -> io::Result<Option<(u64, V)>> {
        if self.block_next == self.block_keys.len() {
            self.read_block()?;
        }
        let key = self.block_keys[self.block_next];
        let mut cursor: &[u8] = &self.block_payload[self.block_payload_pos..];
        let budget = cursor.len() as u64;
        let value = V::spill_read(&mut cursor, &mut self.scratch, budget)?;
        self.block_payload_pos = self.block_payload.len() - cursor.len();
        self.block_next += 1;
        self.remaining -= 1;
        self.raw_remaining = self
            .raw_remaining
            .saturating_sub(8 + value.spill_size() as u64);
        Ok(Some((key, value)))
    }

    /// Decodes the next compressed block into `block_keys` /
    /// `block_payload`.  Every size in the header is validated against
    /// the run's recorded byte counts before it drives an allocation, so
    /// a corrupted header cannot read past the run or balloon memory.
    fn read_block(&mut self) -> io::Result<()> {
        if self.bytes_remaining < BLOCK_HEADER_BYTES as u64 {
            return Err(short_run_err("spilled run ended mid-block-header"));
        }
        let mut header = [0u8; BLOCK_HEADER_BYTES];
        self.reader.read_exact(&mut header)?;
        self.bytes_remaining -= BLOCK_HEADER_BYTES as u64;
        let count = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let key_stream_len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as u64;
        let payload_raw_len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as u64;
        let payload_enc_len = u32::from_le_bytes(header[12..16].try_into().unwrap()) as u64;
        let crc = u32::from_le_bytes(header[16..20].try_into().unwrap());
        let enc = header[20];
        if count == 0 || count > self.remaining {
            return Err(bad_run_data(
                "block record count disagrees with the run metadata",
            ));
        }
        if key_stream_len + payload_enc_len > self.bytes_remaining {
            return Err(short_run_err(
                "block section sizes exceed the bytes remaining in the run",
            ));
        }
        if payload_raw_len > self.raw_remaining {
            return Err(bad_run_data(
                "block raw payload size exceeds the run's recorded raw bytes",
            ));
        }
        // The chained block checksum is verified in two passes so one
        // `scratch` buffer can stage both sections in turn — a third
        // per-run buffer would not be accounted against the merge read
        // budget.  No record is served before the full checksum matches:
        // the keys decoded below are discarded with the error if the
        // payload pass fails, so bit rot still surfaces as `InvalidData`,
        // never as silently wrong keys or payload bytes.
        self.scratch.resize(key_stream_len as usize, 0);
        self.reader.read_exact(&mut self.scratch)?;
        self.bytes_remaining -= key_stream_len;
        let key_crc = codec::crc32_update(0, &self.scratch);
        // Key stream: absolute first key, then non-negative deltas.  The
        // decode is bounded by the validated `count` either way, so
        // running it ahead of the checksum cannot balloon memory.
        self.block_keys.clear();
        self.block_keys.reserve(count);
        let mut cursor: &[u8] = &self.scratch;
        let mut prev = 0u64;
        for i in 0..count {
            let delta = codec::read_varint(&mut cursor)?;
            let key = if i == 0 {
                delta
            } else {
                prev.checked_add(delta)
                    .ok_or_else(|| bad_run_data("block key delta overflows u64"))?
            };
            self.block_keys.push(key);
            prev = key;
        }
        if !cursor.is_empty() {
            return Err(bad_run_data("trailing bytes after the block key stream"));
        }
        // Payload section into the (now free) scratch buffer; the chained
        // checksum must match before a byte of it is interpreted.
        self.scratch.resize(payload_enc_len as usize, 0);
        self.reader.read_exact(&mut self.scratch)?;
        self.bytes_remaining -= payload_enc_len;
        if codec::crc32_update(key_crc, &self.scratch) != crc {
            self.block_keys.clear();
            return Err(bad_run_data("block checksum mismatch"));
        }
        // Payload: LZ-compressed or stored raw.
        self.block_payload.clear();
        match enc {
            0 => {
                if payload_enc_len != payload_raw_len {
                    return Err(bad_run_data("stored-raw block sizes disagree"));
                }
                self.block_payload.extend_from_slice(&self.scratch);
            }
            1 => {
                let (encoded, payload) = (&self.scratch, &mut self.block_payload);
                codec::lz_decompress(encoded, payload, payload_raw_len as usize)?;
            }
            _ => return Err(bad_run_data("unknown block payload encoding")),
        }
        self.block_next = 0;
        self.block_payload_pos = 0;
        Ok(())
    }

    /// Reads all remaining records, reconstructing the key type.
    pub fn read_all<K: IntegerKey>(&mut self) -> io::Result<Vec<(K, V)>> {
        let mut out = Vec::with_capacity(self.remaining);
        while let Some((key, value)) = self.next_record()? {
            out.push((K::from_ordered_u64(key), value));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::File;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pisort-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The spill I/O handle every format test here reads and writes
    /// through.
    fn bio() -> SpillIoHandle {
        SpillIoHandle::blocking()
    }

    fn fixed_record_size<V: PodValue>() -> u64 {
        8 + size_of::<V>() as u64
    }

    /// Writes `records` in the flat encoding and returns run metadata
    /// matching the file.
    fn spill<K: IntegerKey, V: SpillValue>(path: &Path, records: &[(K, V)]) -> SpilledRun {
        write_run(&bio(), path, records, SpillCompression::Off).unwrap()
    }

    /// Writes `records` in the compressed block encoding.
    fn spill_lz<K: IntegerKey, V: SpillValue>(path: &Path, records: &[(K, V)]) -> SpilledRun {
        write_run(&bio(), path, records, SpillCompression::DeltaLz).unwrap()
    }

    #[test]
    fn roundtrip_u32_keys_u32_values() {
        let path = tmp_path("u32u32.bin");
        let records: Vec<(u32, u32)> = (0..1000u32).map(|i| (i * 3, i)).collect();
        let run = spill(&path, &records);
        assert_eq!(run.bytes, 12 * 1000);
        let mut reader = RunReader::<u32>::open(&bio(), &run, 4096).unwrap();
        let got: Vec<(u32, u32)> = reader.read_all().unwrap();
        assert_eq!(got, records);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn roundtrip_signed_keys_and_unit_values() {
        let path = tmp_path("i64unit.bin");
        let records: Vec<(i64, ())> = vec![(i64::MIN, ()), (-1, ()), (0, ()), (i64::MAX, ())];
        let run = spill(&path, &records);
        let mut reader = RunReader::<()>::open(&bio(), &run, 4096).unwrap();
        let got: Vec<(i64, ())> = reader.read_all().unwrap();
        assert_eq!(got, records);
        // Ordered-u64 images on disk must be monotone for signed keys.
        let mut reader = RunReader::<()>::open(&bio(), &run, 4096).unwrap();
        let mut ordered = Vec::new();
        while let Some((k, ())) = reader.next_record().unwrap() {
            ordered.push(k);
        }
        assert!(ordered.windows(2).all(|w| w[0] < w[1]));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn roundtrip_array_values() {
        let path = tmp_path("arr.bin");
        let records: Vec<(u16, [u8; 5])> = (0..100u16).map(|i| (i, [i as u8; 5])).collect();
        let run = spill(&path, &records);
        let got: Vec<(u16, [u8; 5])> = RunReader::<[u8; 5]>::open(&bio(), &run, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got, records);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn roundtrip_string_values_incl_empty_and_multi_kb() {
        let path = tmp_path("varstr.bin");
        let big = "x".repeat(5 << 10);
        let records: Vec<(u64, String)> = vec![
            (3, String::new()),
            (5, "hello".to_string()),
            (7, big.clone()),
            (9, "naïve-ütf8-τ".to_string()),
            (11, String::new()),
            (13, big),
        ];
        let run = spill(&path, &records);
        let payload: usize = records.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(run.bytes, (records.len() * 12 + payload) as u64);
        let got: Vec<(u64, String)> = RunReader::<String>::open(&bio(), &run, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got, records);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn roundtrip_byte_vec_and_boxed_slice_values() {
        let path = tmp_path("varbytes.bin");
        let records: Vec<(u32, Vec<u8>)> = (0..200u32)
            .map(|i| {
                (
                    i,
                    (0..(i as usize * 13) % 2048)
                        .map(|j| (i + j as u32) as u8)
                        .collect(),
                )
            })
            .collect();
        let run = spill(&path, &records);
        let got: Vec<(u32, Vec<u8>)> = RunReader::<Vec<u8>>::open(&bio(), &run, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got, records);
        // The same payloads round-trip as Box<[u8]> (same on-disk format).
        let boxed: Vec<(u32, Box<[u8]>)> = records
            .iter()
            .map(|(k, v)| (*k, v.clone().into_boxed_slice()))
            .collect();
        let path2 = tmp_path("varboxed.bin");
        let run2 = spill(&path2, &boxed);
        assert_eq!(run2.bytes, run.bytes);
        let got2: Vec<(u32, Box<[u8]>)> = RunReader::<Box<[u8]>>::open(&bio(), &run2, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got2, boxed);
        std::fs::remove_file(path).ok();
        std::fs::remove_file(path2).ok();
    }

    #[test]
    fn truncated_run_is_an_io_error_not_a_short_read() {
        let path = tmp_path("truncated.bin");
        let records: Vec<(u32, u32)> = (0..500u32).map(|i| (i, i * 2)).collect();
        let run = spill(&path, &records);
        // Truncation mid-record and exactly at a record boundary must both
        // fail at open — never yield fewer records than `run.len`.
        for cut in [run.bytes - 5, run.bytes - fixed_record_size::<u32>(), 0] {
            let f = File::options().write(true).open(&path).unwrap();
            f.set_len(cut).unwrap();
            drop(f);
            let err = match RunReader::<u32>::open(&bio(), &run, 4096) {
                Err(e) => e,
                Ok(mut reader) => reader
                    .read_all::<u32>()
                    .expect_err("short file must not read back successfully"),
            };
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_varlen_run_is_an_io_error() {
        let path = tmp_path("var-truncated.bin");
        let records: Vec<(u64, String)> = (0..100u64)
            .map(|i| {
                (
                    i,
                    format!("payload-{i}-{}", "y".repeat((i as usize * 7) % 90)),
                )
            })
            .collect();
        let run = spill(&path, &records);
        let last_payload = records.last().unwrap().1.len() as u64;
        let last_record = 8 + 4 + last_payload;
        // Mid-value, mid-length-prefix, exactly at a record boundary, empty.
        for cut in [
            run.bytes - 1,
            run.bytes - last_payload - 2,
            run.bytes - last_record,
            0,
        ] {
            let f = File::options().write(true).open(&path).unwrap();
            f.set_len(cut).unwrap();
            drop(f);
            let err = match RunReader::<String>::open(&bio(), &run, 4096) {
                Err(e) => e,
                Ok(mut reader) => reader
                    .read_all::<u64>()
                    .expect_err("short file must not read back successfully"),
            };
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn overcounted_run_length_is_an_io_error() {
        // A run whose metadata claims more records than the file holds is
        // the dual failure: the reader must refuse it rather than serve a
        // shorter stream.
        let path = tmp_path("overcount.bin");
        let records: Vec<(u64, ())> = (0..100u64).map(|i| (i, ())).collect();
        let good = spill(&path, &records);
        let run = SpilledRun {
            path: path.clone(),
            len: records.len() + 1,
            bytes: good.bytes + fixed_record_size::<()>(),
            raw_bytes: good.raw_bytes + fixed_record_size::<()>(),
            compression: SpillCompression::Off,
            retries: 0,
        };
        let err = match RunReader::<()>::open(&bio(), &run, 4096) {
            Err(e) => e,
            Ok(_) => panic!("overcount must fail"),
        };
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // The correct metadata still reads fine.
        let got: Vec<(u64, ())> = RunReader::<()>::open(&bio(), &good, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got, records);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn overcounted_varlen_record_count_is_an_io_error() {
        // Var-format dual failure: byte size matches the file but the
        // record count claims one more record than the bytes hold.  Open
        // cannot catch this (the byte size is honest), so the reader must
        // refuse at the point the counts disagree.
        let path = tmp_path("var-overcount.bin");
        let records: Vec<(u64, Vec<u8>)> = (0..50u64).map(|i| (i, vec![i as u8; 10])).collect();
        let good = spill(&path, &records);
        let run = SpilledRun {
            path: path.clone(),
            len: records.len() + 1,
            bytes: good.bytes,
            raw_bytes: good.raw_bytes,
            compression: SpillCompression::Off,
            retries: 0,
        };
        let mut reader = RunReader::<Vec<u8>>::open(&bio(), &run, 4096).unwrap();
        let err = reader
            .read_all::<u64>()
            .expect_err("overcounted record count must fail");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupted_length_prefix_cannot_read_past_the_run() {
        let path = tmp_path("var-badprefix.bin");
        let records: Vec<(u64, Vec<u8>)> = (0..10u64).map(|i| (i, vec![7u8; 16])).collect();
        let run = spill(&path, &records);
        // Overwrite the first record's length prefix (offset 8) with a huge
        // value; the file size is unchanged, so only the in-stream budget
        // check can catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut reader = RunReader::<Vec<u8>>::open(&bio(), &run, 4096).unwrap();
        let err = reader
            .read_all::<u64>()
            .expect_err("corrupted length prefix must fail");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn non_utf8_string_payload_is_invalid_data() {
        // Write raw bytes, read back as String: the var formats are
        // identical, so this models on-disk corruption of a String run.
        let path = tmp_path("var-badutf8.bin");
        let records: Vec<(u64, Vec<u8>)> = vec![(1, vec![0xFF, 0xFE, 0xFD])];
        let run = spill(&path, &records);
        let mut reader = RunReader::<String>::open(&bio(), &run, 4096).unwrap();
        let err = reader
            .read_all::<u64>()
            .expect_err("non-UTF-8 String payload must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reader_budget_is_clamped_and_shared() {
        assert_eq!(per_run_reader_budget(8 << 20, 2), 4 << 20);
        assert_eq!(per_run_reader_budget(8 << 20, 0), 8 << 20);
        assert_eq!(per_run_reader_budget(1 << 10, 4), 256);
        assert_eq!(per_run_reader_budget(usize::MAX, 1), 8 << 20);
    }

    #[test]
    fn reader_budget_aggregate_never_exceeds_the_pool() {
        // Regression for the 4 KiB-floor overshoot: 64 runs against a
        // 16 KiB budget used to claim 64 × 4096 = 256 KiB of buffers.
        // The aggregate is now capped at max(total, 64 · runs).
        for (total, runs) in [
            (16 << 10, 64),
            (1 << 10, 100),
            (0, 7),
            (8 << 20, 3),
            (1 << 30, 1000),
        ] {
            let per_run = per_run_reader_budget(total, runs);
            let aggregate = per_run * runs;
            let worst = total.max(64 * runs);
            assert!(
                aggregate <= worst,
                "total {total}, runs {runs}: aggregate {aggregate} > {worst}"
            );
        }
        // The old failure case specifically.
        assert_eq!(per_run_reader_budget(16 << 10, 64), 256);
    }

    #[test]
    fn compressed_pod_run_roundtrips_and_shrinks() {
        let path = tmp_path("lz-pod.bin");
        // Sorted, dense keys: deltas are tiny, values repeat — both codec
        // legs should bite.
        let records: Vec<(u32, u32)> = (0..20_000u32).map(|i| (i / 4, i % 7)).collect();
        let run = spill_lz(&path, &records);
        assert_eq!(run.compression, SpillCompression::DeltaLz);
        assert_eq!(run.raw_bytes, 12 * 20_000);
        assert!(
            run.bytes < run.raw_bytes / 2,
            "dense pod runs must compress: {} vs {}",
            run.bytes,
            run.raw_bytes
        );
        let got: Vec<(u32, u32)> = RunReader::<u32>::open(&bio(), &run, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got, records);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn compressed_varlen_run_roundtrips_across_blocks() {
        let path = tmp_path("lz-var.bin");
        // > BLOCK_MAX_RECORDS records and > BLOCK_RAW_TARGET payload bytes,
        // so the run spans several blocks, with empty and multi-KiB values
        // crossing block boundaries.
        let mut records: Vec<(u64, String)> = (0..(BLOCK_MAX_RECORDS as u64 * 2 + 17))
            .map(|i| {
                let v = match i % 5 {
                    0 => String::new(),
                    1 => format!("short-{i}"),
                    _ => format!(
                        "GET /api/v1/items/{i} HTTP/1.1 {}",
                        "x".repeat(i as usize % 64)
                    ),
                };
                (i * 3, v)
            })
            .collect();
        records.push((u64::MAX, "final".to_string()));
        let run = spill_lz(&path, &records);
        assert!(run.bytes < run.raw_bytes, "structured text must compress");
        let got: Vec<(u64, String)> = RunReader::<String>::open(&bio(), &run, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got, records);
        // A tiny read buffer must not change the decoded stream.
        let got_small: Vec<(u64, String)> = RunReader::<String>::open(&bio(), &run, 1)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got_small, records);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn compressed_and_flat_runs_decode_identically() {
        let path_a = tmp_path("lz-vs-flat-a.bin");
        let path_b = tmp_path("lz-vs-flat-b.bin");
        let records: Vec<(u64, Vec<u8>)> = (0..5000u64)
            .map(|i| {
                (
                    i * 7,
                    (0..(i as usize % 40))
                        .map(|j| (i + j as u64) as u8)
                        .collect(),
                )
            })
            .collect();
        let flat = spill(&path_a, &records);
        let lz = spill_lz(&path_b, &records);
        assert_eq!(flat.raw_bytes, lz.raw_bytes);
        let a: Vec<(u64, Vec<u8>)> = RunReader::<Vec<u8>>::open(&bio(), &flat, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        let b: Vec<(u64, Vec<u8>)> = RunReader::<Vec<u8>>::open(&bio(), &lz, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(a, b, "both encodings must decode to identical records");
        std::fs::remove_file(path_a).ok();
        std::fs::remove_file(path_b).ok();
    }

    #[test]
    fn incompressible_block_falls_back_to_stored_raw() {
        let path = tmp_path("lz-raw.bin");
        // Pseudo-random payloads: LZ cannot win, so blocks store raw and
        // the overhead stays at the per-block header + key stream.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let records: Vec<(u64, Vec<u8>)> = (0..500u64)
            .map(|i| {
                let v = (0..64)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x as u8
                    })
                    .collect();
                (i, v)
            })
            .collect();
        let run = spill_lz(&path, &records);
        // Still decodes, and never inflates past raw + headers + keys.
        let got: Vec<(u64, Vec<u8>)> = RunReader::<Vec<u8>>::open(&bio(), &run, 4096)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(got, records);
        assert!(
            run.bytes <= run.raw_bytes,
            "store-raw caps the payload; {} vs {}",
            run.bytes,
            run.raw_bytes
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_compressed_run_is_an_io_error() {
        let path = tmp_path("lz-truncated.bin");
        let records: Vec<(u64, String)> = (0..300u64)
            .map(|i| (i, format!("value-{i}-{}", "z".repeat(i as usize % 30))))
            .collect();
        let run = spill_lz(&path, &records);
        for cut in [run.bytes - 1, run.bytes / 2, 3, 0] {
            let f = File::options().write(true).open(&path).unwrap();
            f.set_len(cut).unwrap();
            drop(f);
            let err = match RunReader::<String>::open(&bio(), &run, 4096) {
                Err(e) => e,
                Ok(mut reader) => reader
                    .read_all::<u64>()
                    .expect_err("short compressed file must not read back"),
            };
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupted_block_header_cannot_read_past_the_run() {
        let records: Vec<(u64, Vec<u8>)> = (0..100u64).map(|i| (i, vec![3u8; 20])).collect();
        // Corrupt each u32 header field in turn (offsets 0, 4, 8, 12 and
        // the checksum at 16) and the enc flag (20); every corruption must
        // surface as an error, never garbage records or a huge allocation.
        for offset in [0usize, 4, 8, 12, 16, 20] {
            let path = tmp_path(&format!("lz-badheader-{offset}.bin"));
            let run = spill_lz(&path, &records);
            let mut bytes = std::fs::read(&path).unwrap();
            for b in &mut bytes[offset..offset + 1] {
                *b ^= 0xFF;
            }
            if offset < 16 {
                bytes[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            }
            std::fs::write(&path, &bytes).unwrap();
            let mut reader = RunReader::<Vec<u8>>::open(&bio(), &run, 4096).unwrap();
            assert!(
                reader.read_all::<u64>().is_err(),
                "corrupt header field at {offset} must fail"
            );
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn corrupted_block_body_fails_the_checksum() {
        // Flip a single payload bit with every header field intact: only
        // the per-block CRC can catch this, and it must report
        // `InvalidData` before any record of the block is served.
        let records: Vec<(u64, Vec<u8>)> = (0..100u64).map(|i| (i, vec![i as u8; 20])).collect();
        let path = tmp_path("lz-bitrot.bin");
        let run = spill_lz(&path, &records);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1; // inside the (single) block's payload
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let mut reader = RunReader::<Vec<u8>>::open(&bio(), &run, 4096).unwrap();
        let err = reader
            .read_all::<u64>()
            .expect_err("bit rot must fail the block checksum");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "got: {err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn compressed_spill_rejects_unsorted_records() {
        let path = tmp_path("lz-unsorted.bin");
        let records: Vec<(u64, u32)> = vec![(10, 1), (5, 2)];
        let err = write_run(&bio(), &path, &records, SpillCompression::DeltaLz)
            .expect_err("delta encoding requires sorted keys");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn zeroed_pod_values() {
        assert_eq!(pod_zeroed::<u64>(), 0);
        assert_eq!(pod_zeroed::<[u32; 3]>(), [0, 0, 0]);
        pod_zeroed::<()>();
    }

    #[test]
    fn spill_placeholders_are_empty() {
        assert_eq!(String::spill_placeholder(), "");
        assert_eq!(Vec::<u8>::spill_placeholder(), Vec::<u8>::new());
        assert_eq!(u64::spill_placeholder(), 0);
        assert_eq!(Box::<[u8]>::spill_placeholder().len(), 0);
    }
}
