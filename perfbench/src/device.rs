//! `BenchDevice`: the storage device every area of the benchmark sits on.
//!
//! It is an `IoDevice` that (1) models device time with a fixed sleep per
//! read, write and sync, switched off during set-up and on while measuring;
//! (2) counts operations and bytes where they reach the device, the
//! cross-check that a count saved in a layer above was a device operation
//! saved below; (3) records one span per operation when tracing is on and
//! the operation has a modelled delay; and
//! (4) keeps a durable image beside the volatile one, so that a crash can
//! discard every write made since the last sync. The server does not sync
//! areas on the commit path, so after `crash()` only the log can bring
//! acknowledged updates back.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use bess_io::IoDevice;

use crate::trace;

/// The fixed device model of the networked workloads.
#[derive(Clone, Copy)]
pub struct DeviceModel {
    pub read: Duration,
    pub write: Duration,
    pub sync: Duration,
}

impl DeviceModel {
    pub const NETWORKED: DeviceModel = DeviceModel {
        read: Duration::from_micros(100),
        write: Duration::from_micros(50),
        sync: Duration::from_micros(500),
    };
    pub const ZERO: DeviceModel = DeviceModel {
        read: Duration::ZERO,
        write: Duration::ZERO,
        sync: Duration::ZERO,
    };
}

/// Dirty tracking granule; independent of the area's page size.
const BLOCK: usize = 4096;

struct Images {
    volatile: Vec<u8>,
    durable: Vec<u8>,
    /// One bit per `BLOCK` of `volatile` written since the last sync.
    dirty: Vec<u64>,
}

impl Images {
    fn mark(&mut self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let last = (offset + len - 1) / BLOCK;
        if self.dirty.len() * 64 <= last {
            self.dirty.resize(last / 64 + 1, 0);
        }
        for b in offset / BLOCK..=last {
            self.dirty[b / 64] |= 1 << (b % 64);
        }
    }

    /// Copies every dirty block from `volatile` to `durable` (sync) or back
    /// (crash), and clears the dirty set.
    fn settle(&mut self, make_durable: bool) {
        if make_durable {
            self.durable.resize(self.volatile.len(), 0);
        } else {
            self.volatile.truncate(self.durable.len());
        }
        let len = self.durable.len().min(self.volatile.len());
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let start = (w * 64 + bits.trailing_zeros() as usize) * BLOCK;
                bits &= bits - 1;
                if start >= len {
                    continue;
                }
                let end = (start + BLOCK).min(len);
                if make_durable {
                    self.durable[start..end].copy_from_slice(&self.volatile[start..end]);
                } else {
                    self.volatile[start..end].copy_from_slice(&self.durable[start..end]);
                }
            }
        }
    }
}

/// Counters of one device. Relaxed: they are statistics and publish no
/// other data.
#[derive(Default)]
pub struct DeviceCounts {
    pub reads: AtomicU64,
    pub read_bytes: AtomicU64,
    pub writes: AtomicU64,
    pub write_bytes: AtomicU64,
    pub syncs: AtomicU64,
    /// Nanoseconds spent inside read, write and sync, modelled delay
    /// included.
    pub busy_ns: AtomicU64,
}

pub struct BenchDevice {
    area: u32,
    model: DeviceModel,
    delays_on: AtomicBool,
    images: RwLock<Images>,
    pub counts: DeviceCounts,
}

impl BenchDevice {
    pub fn new(area: u32, model: DeviceModel) -> Arc<BenchDevice> {
        Arc::new(BenchDevice {
            area,
            model,
            delays_on: AtomicBool::new(false),
            images: RwLock::new(Images {
                volatile: Vec::new(),
                durable: Vec::new(),
                dirty: Vec::new(),
            }),
            counts: DeviceCounts::default(),
        })
    }

    /// Modelled delays are off while a workload is set up and on while it
    /// is measured.
    pub fn set_delays(&self, on: bool) {
        self.delays_on.store(on, Ordering::Relaxed);
    }

    /// Discards every write since the last sync.
    pub fn crash(&self) {
        self.images.write().expect("device images").settle(false);
    }

    fn timed<T>(&self, name: &'static str, delay: Duration, f: impl FnOnce() -> T) -> T {
        // A device without modelled time has no device time to attribute,
        // and `blob_churn` would record 500 page spans per 1 MiB append.
        let _span = (!delay.is_zero()).then(|| trace::device(name, self.area));
        let start = Instant::now();
        if !delay.is_zero() && self.delays_on.load(Ordering::Relaxed) {
            std::thread::sleep(delay);
        }
        let out = f();
        self.counts
            .busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl IoDevice for BenchDevice {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        self.timed("dev.read", self.model.read, || {
            let images = self.images.read().expect("device images");
            let v = &images.volatile;
            let offset = offset as usize;
            if offset >= v.len() {
                return Ok(0);
            }
            let n = buf.len().min(v.len() - offset);
            buf[..n].copy_from_slice(&v[offset..offset + n]);
            self.counts.reads.fetch_add(1, Ordering::Relaxed);
            self.counts
                .read_bytes
                .fetch_add(n as u64, Ordering::Relaxed);
            Ok(n)
        })
    }

    fn write_at(&self, data: &[u8], offset: u64) -> std::io::Result<()> {
        self.timed("dev.write", self.model.write, || {
            let mut images = self.images.write().expect("device images");
            let offset = offset as usize;
            let end = offset + data.len();
            if images.volatile.len() < end {
                images.volatile.resize(end, 0);
            }
            images.volatile[offset..end].copy_from_slice(data);
            images.mark(offset, data.len());
            self.counts.writes.fetch_add(1, Ordering::Relaxed);
            self.counts
                .write_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
            Ok(())
        })
    }

    fn grow_to(&self, bytes: u64) -> std::io::Result<()> {
        let mut images = self.images.write().expect("device images");
        let old = images.volatile.len();
        if old < bytes as usize {
            images.volatile.resize(bytes as usize, 0);
            images.mark(old, bytes as usize - old);
        }
        Ok(())
    }

    fn sync(&self) -> std::io::Result<()> {
        self.timed("dev.sync", self.model.sync, || {
            self.images.write().expect("device images").settle(true);
            self.counts.syncs.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
    }

    fn len(&self) -> std::io::Result<u64> {
        Ok(self.images.read().expect("device images").volatile.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_discards_exactly_the_unsynced_writes() {
        let dev = BenchDevice::new(0, DeviceModel::ZERO);
        dev.grow_to(3 * BLOCK as u64).unwrap();
        dev.write_at(b"kept", 10).unwrap();
        dev.sync().unwrap();
        dev.write_at(b"lost", 10).unwrap();
        dev.write_at(b"also lost", 2 * BLOCK as u64 - 4).unwrap(); // straddles two blocks
        dev.write_at(b"grown and lost", 5 * BLOCK as u64).unwrap();
        dev.crash();
        let mut buf = [0u8; 4];
        assert_eq!(dev.read_at(&mut buf, 10).unwrap(), 4);
        assert_eq!(&buf, b"kept");
        let mut buf = [1u8; 9];
        dev.read_at(&mut buf, 2 * BLOCK as u64 - 4).unwrap();
        assert_eq!(buf, [0u8; 9]);
        assert_eq!(dev.len().unwrap(), 3 * BLOCK as u64);
        // A crash with nothing unsynced changes nothing.
        dev.crash();
        dev.read_at(&mut buf[..4], 10).unwrap();
        assert_eq!(&buf[..4], b"kept");
        assert_eq!(dev.counts.writes.load(Ordering::Relaxed), 4);
        assert_eq!(dev.counts.syncs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn delays_apply_only_when_switched_on() {
        let model = DeviceModel {
            read: Duration::from_millis(5),
            ..DeviceModel::ZERO
        };
        let dev = BenchDevice::new(0, model);
        dev.write_at(b"x", 0).unwrap();
        let mut b = [0u8; 1];
        let t = Instant::now();
        dev.read_at(&mut b, 0).unwrap();
        assert!(t.elapsed() < Duration::from_millis(5));
        dev.set_delays(true);
        let t = Instant::now();
        dev.read_at(&mut b, 0).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(5));
    }
}
