//! Spill I/O behind the sealed [`SpillIo`] trait.
//!
//! Every spilled byte the streaming engines read or write flows through a
//! [`SpillIoHandle`], so `spill.rs`, `pipeline.rs` and the engines never
//! name `File`/`BufReader`/`BufWriter` directly.  There is one backend:
//! a `BufWriter` over `File::create` for runs (flushed and `sync_data`'d
//! on [`SpillWrite::finish`]) and a `BufReader` over `File::open` for
//! merges.  Concurrency lives above this layer: the background run writer
//! and the per-run merge read-ahead threads in `pipeline.rs` each call
//! into the backend on their own thread.
//!
//! The trait stays so a handle can be decorated: the fault injector
//! (`FaultIo`, [`SpillIoHandle::with_faults`]) wraps it per session, and
//! the server shares one handle across sessions.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

pub(crate) mod sealed_io {
    pub trait Sealed {}
}

/// Sink for one spill run.  `Write` feeds the encoded bytes;
/// [`SpillWrite::finish`] makes them durable.
pub(crate) trait SpillWrite: Write + Send {
    /// Completes the file: flushes everything buffered and syncs the data
    /// to disk.
    fn finish(self: Box<Self>) -> io::Result<()>;
}

/// Buffered sequential source over one spill run.
pub(crate) trait SpillRead: Read + Send {}

/// The sealed backend interface: open/create files for spill traffic.
pub(crate) trait SpillIo: Send + Sync + sealed_io::Sealed {
    fn create(&self, path: &Path) -> io::Result<Box<dyn SpillWrite>>;
    /// Opens `path` for sequential reading with roughly `buffer_bytes` of
    /// read buffering; returns the reader and the file's current length
    /// (for the caller's truncation check).
    fn open(&self, path: &Path, buffer_bytes: usize) -> io::Result<(Box<dyn SpillRead>, u64)>;
}

/// A cloneable, shareable handle to the spill I/O backend.  Engines
/// default to [`SpillIoHandle::blocking`]; the server shares one handle
/// across sessions and hands a faulted view to the sessions under test.
#[derive(Clone)]
pub struct SpillIoHandle {
    inner: Arc<dyn SpillIo>,
}

impl std::fmt::Debug for SpillIoHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillIoHandle").finish_non_exhaustive()
    }
}

impl SpillIoHandle {
    /// The buffered `std::fs` backend.
    pub fn blocking() -> Self {
        Self {
            inner: Arc::new(BlockingIo),
        }
    }

    /// Wraps this handle in a deterministic fault-injection layer (the
    /// crate-private `FaultIo`): the returned handle shares the same
    /// backend underneath but filters every create/open/write/read through
    /// `plan`.  Fault scope is therefore per *handle*: a server can hand
    /// one session a faulted view while every other session keeps the
    /// clean one, which is exactly how the chaos tests prove cross-session
    /// isolation.
    pub fn with_faults(&self, plan: crate::fault::FaultPlan) -> Self {
        Self {
            inner: Arc::new(crate::fault::FaultIo::new(Arc::clone(&self.inner), plan)),
        }
    }

    pub(crate) fn create(&self, path: &Path) -> io::Result<Box<dyn SpillWrite>> {
        self.inner.create(path)
    }

    pub(crate) fn open(
        &self,
        path: &Path,
        buffer_bytes: usize,
    ) -> io::Result<(Box<dyn SpillRead>, u64)> {
        self.inner.open(path, buffer_bytes)
    }
}

// ---------------------------------------------------------------------------
// Blocking backend.
// ---------------------------------------------------------------------------

struct BlockingIo;

impl sealed_io::Sealed for BlockingIo {}

impl SpillIo for BlockingIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn SpillWrite>> {
        let file = File::create(path)?;
        Ok(Box::new(BufWriter::with_capacity(1 << 20, file)))
    }

    fn open(&self, path: &Path, buffer_bytes: usize) -> io::Result<(Box<dyn SpillRead>, u64)> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok((
            Box::new(BufReader::with_capacity(buffer_bytes.max(64), file)),
            len,
        ))
    }
}

impl SpillWrite for BufWriter<File> {
    fn finish(mut self: Box<Self>) -> io::Result<()> {
        self.flush()?;
        self.get_ref().sync_data()
    }
}

impl SpillRead for BufReader<File> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pisort-spillio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn roundtrips_identical_bytes_at_every_read_buffer_size() {
        let io = SpillIoHandle::blocking();
        let data = payload(3 * (256 << 10) + 12345);
        let path = tmp_path("rt.bin");
        let mut w = io.create(&path).unwrap();
        // Dribble in odd-sized pieces so buffer boundaries never align.
        for piece in data.chunks(1031) {
            w.write_all(piece).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), data, "on-disk bytes");
        // Tiny and large read buffers must decode identically.
        for buffer in [64, 4096, 1 << 20] {
            let (mut r, len) = io.open(&path, buffer).unwrap();
            assert_eq!(len, data.len() as u64);
            let mut out = Vec::new();
            r.read_to_end(&mut out).unwrap();
            assert_eq!(out, data, "read buffer {buffer}");
        }
        std::fs::remove_file(&path).ok();
        assert!(io.open(&path, 4096).is_err(), "missing file");
    }
}
