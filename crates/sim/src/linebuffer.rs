//! Line buffers: bounded FIFOs with occupancy tracking.

use serde::{Deserialize, Serialize};

/// Overflow error: a write arrived with the buffer full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverflowError {
    /// Capacity in elements.
    pub capacity: u64,
    /// Elements that did not fit.
    pub excess: u64,
}

impl std::fmt::Display for OverflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line buffer overflow: {} elements over capacity {}",
            self.excess, self.capacity
        )
    }
}

impl std::error::Error for OverflowError {}

/// An element-counting line buffer (the data values live in the caller's
/// domain; the simulator tracks occupancy, which is what sizing and
/// energy depend on).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LineBuffer {
    capacity: u64,
    occupancy: u64,
    max_occupancy: u64,
    total_writes: u64,
    total_reads: u64,
}

impl LineBuffer {
    /// Creates an empty buffer with the given capacity (elements).
    pub fn new(capacity: u64) -> Self {
        LineBuffer {
            capacity,
            occupancy: 0,
            max_occupancy: 0,
            total_writes: 0,
            total_reads: 0,
        }
    }

    /// Capacity in elements.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Current occupancy in elements.
    pub fn occupancy(&self) -> u64 {
        self.occupancy
    }

    /// High-water mark.
    pub fn max_occupancy(&self) -> u64 {
        self.max_occupancy
    }

    /// Elements written over the run.
    pub fn total_writes(&self) -> u64 {
        self.total_writes
    }

    /// Elements read over the run.
    pub fn total_reads(&self) -> u64 {
        self.total_reads
    }

    /// Free space.
    pub fn free(&self) -> u64 {
        self.capacity - self.occupancy
    }

    /// Writes `n` elements.
    ///
    /// # Errors
    ///
    /// Returns [`OverflowError`] when `n` exceeds the free space; the
    /// buffer is left unchanged. A correct StreamGrid schedule never
    /// triggers this — the integration tests rely on that.
    pub fn write(&mut self, n: u64) -> Result<(), OverflowError> {
        if n > self.free() {
            return Err(OverflowError {
                capacity: self.capacity,
                excess: n - self.free(),
            });
        }
        self.occupancy += n;
        self.total_writes += n;
        self.max_occupancy = self.max_occupancy.max(self.occupancy);
        Ok(())
    }

    /// Reads up to `n` elements; returns how many were actually read
    /// (less when the buffer holds fewer).
    pub fn read(&mut self, n: u64) -> u64 {
        let got = n.min(self.occupancy);
        self.occupancy -= got;
        self.total_reads += got;
        got
    }

    /// Frees `n` elements without counting them as reads (overwrite of
    /// dead data, e.g. window retirement).
    pub fn retire(&mut self, n: u64) {
        self.occupancy = self.occupancy.saturating_sub(n);
    }

    /// Applies `reads` and `writes` in one step and raises the
    /// high-water mark to `peak` — how the event-driven engine accounts
    /// the spans it skips. The caller supplies the peak the skipped
    /// trajectory reached, since this step alone never passes through
    /// it.
    pub(crate) fn fast_forward(&mut self, reads: u64, writes: u64, peak: u64) {
        self.occupancy = self.occupancy + writes - reads;
        self.total_reads += reads;
        self.total_writes += writes;
        self.max_occupancy = self.max_occupancy.max(peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut lb = LineBuffer::new(10);
        lb.write(7).unwrap();
        assert_eq!(lb.occupancy(), 7);
        assert_eq!(lb.read(4), 4);
        assert_eq!(lb.occupancy(), 3);
        assert_eq!(lb.max_occupancy(), 7);
        assert_eq!(lb.total_writes(), 7);
        assert_eq!(lb.total_reads(), 4);
    }

    #[test]
    fn overflow_rejected_atomically() {
        let mut lb = LineBuffer::new(5);
        lb.write(4).unwrap();
        let err = lb.write(3).unwrap_err();
        assert_eq!(err.excess, 2);
        assert_eq!(lb.occupancy(), 4, "failed write must not change state");
    }

    #[test]
    fn read_clamps_to_occupancy() {
        let mut lb = LineBuffer::new(5);
        lb.write(2).unwrap();
        assert_eq!(lb.read(10), 2);
        assert_eq!(lb.occupancy(), 0);
    }

    #[test]
    fn retire_frees_without_reading() {
        let mut lb = LineBuffer::new(5);
        lb.write(5).unwrap();
        lb.retire(2);
        assert_eq!(lb.occupancy(), 3);
        assert_eq!(lb.total_reads(), 0);
        lb.retire(100);
        assert_eq!(lb.occupancy(), 0);
    }
}
