//! The multi-port shared memory (§2).
//!
//! "The shared memory architecture is multi-port, a departure from the
//! banked memory typically found in commercial GPGPUs. The multi-port
//! memory (configured as 4R-1W) has a lower potential bandwidth, but a
//! much simpler arbitration mechanism."
//!
//! The port schedule is fixed and conflict-free (no arbitration stalls —
//! that is the whole point): a 16-thread row reads through the 16:4
//! read-address mux in 4 clocks (4 threads per clock), and writes through
//! the 16:1 write muxes one thread per clock. Dynamic thread scaling
//! shortens both by shrinking the row count.

use crate::error::ExecError;
use serde::{Deserialize, Serialize};
use simt_isa::{SHARED_READ_PORTS, SP_COUNT};

/// Cycle-level access statistics of the memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedMemStats {
    /// Total word reads served.
    pub reads: u64,
    /// Total word writes served.
    pub writes: u64,
    /// Clocks spent streaming read rows (4 per full row).
    pub read_cycles: u64,
    /// Clocks spent streaming write rows (16 per full row).
    pub write_cycles: u64,
}

impl SharedMemStats {
    /// Field-wise accumulate another run's memory statistics into
    /// `self`. The exhaustive destructuring makes forgetting a new
    /// field a compile error (see [`crate::ExecStats::merge`]).
    pub fn merge(&mut self, other: &Self) {
        let SharedMemStats {
            reads,
            writes,
            read_cycles,
            write_cycles,
        } = other;
        self.reads += reads;
        self.writes += writes;
        self.read_cycles += read_cycles;
        self.write_cycles += write_cycles;
    }
}

/// The shared memory array plus its port model.
#[derive(Debug, Clone)]
pub struct SharedMemory {
    data: Vec<u32>,
    stats: SharedMemStats,
}

impl SharedMemory {
    /// Allocate and zero `words` 32-bit words.
    pub fn new(words: usize) -> Self {
        SharedMemory {
            data: vec![0; words],
            stats: SharedMemStats::default(),
        }
    }

    /// Zero the contents and the statistics in place (power-on state,
    /// without reallocating).
    pub(crate) fn clear(&mut self) {
        self.data.fill(0);
        self.stats = SharedMemStats::default();
    }

    /// Size in words.
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// Access statistics so far.
    pub fn stats(&self) -> SharedMemStats {
        self.stats
    }

    /// Reset statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = SharedMemStats::default();
    }

    /// Host-side bulk write starting at word `offset`.
    pub fn load_words(&mut self, offset: usize, words: &[u32]) -> Result<(), ExecError> {
        let end = offset + words.len();
        if end > self.data.len() {
            return Err(ExecError::SharedOutOfBounds {
                pc: 0,
                thread: 0,
                addr: end - 1,
                size: self.data.len(),
            });
        }
        self.data[offset..end].copy_from_slice(words);
        Ok(())
    }

    /// Host-side bulk read.
    pub fn read_words(&self, offset: usize, len: usize) -> Result<Vec<u32>, ExecError> {
        let end = offset + len;
        if end > self.data.len() {
            return Err(ExecError::SharedOutOfBounds {
                pc: 0,
                thread: 0,
                addr: end.saturating_sub(1),
                size: self.data.len(),
            });
        }
        Ok(self.data[offset..end].to_vec())
    }

    /// Single-word read through one read port (bounds-checked trap).
    #[inline]
    pub fn read(&mut self, pc: usize, thread: usize, addr: usize) -> Result<u32, ExecError> {
        match self.data.get(addr) {
            Some(&v) => {
                self.stats.reads += 1;
                Ok(v)
            }
            None => Err(ExecError::SharedOutOfBounds {
                pc,
                thread,
                addr,
                size: self.data.len(),
            }),
        }
    }

    /// Single-word write through the write port.
    #[inline]
    pub fn write(
        &mut self,
        pc: usize,
        thread: usize,
        addr: usize,
        value: u32,
    ) -> Result<(), ExecError> {
        let size = self.data.len();
        match self.data.get_mut(addr) {
            Some(slot) => {
                *slot = value;
                self.stats.writes += 1;
                Ok(())
            }
            None => Err(ExecError::SharedOutOfBounds {
                pc,
                thread,
                addr,
                size,
            }),
        }
    }

    /// Clocks to stream a read row of `lanes` threads through the 16:4
    /// mux: always the full `SP_COUNT / SHARED_READ_PORTS = 4` for a full
    /// row; a partial final row still takes ⌈lanes/4⌉ mux slots.
    pub fn read_row_cycles(lanes: usize) -> u64 {
        debug_assert!((1..=SP_COUNT).contains(&lanes));
        lanes.div_ceil(SHARED_READ_PORTS) as u64
    }

    /// Clocks to stream a write row of `lanes` threads through the 16:1
    /// write mux: one thread per clock.
    pub fn write_row_cycles(lanes: usize) -> u64 {
        debug_assert!((1..=SP_COUNT).contains(&lanes));
        lanes as u64
    }

    /// Account the port cycles of a read row (the sequencer calls this as
    /// its width counter steps).
    pub fn account_read_row(&mut self, lanes: usize) {
        self.stats.read_cycles += Self::read_row_cycles(lanes);
    }

    /// Account the port cycles of a write row.
    pub fn account_write_row(&mut self, lanes: usize) {
        self.stats.write_cycles += Self::write_row_cycles(lanes);
    }

    /// Account `rows` read rows at once (the predecoded path knows the
    /// block depth up front instead of stepping the width counter).
    pub fn account_read_rows(&mut self, lanes: usize, rows: usize) {
        self.stats.read_cycles += Self::read_row_cycles(lanes) * rows as u64;
    }

    /// Account `rows` write rows at once.
    pub fn account_write_rows(&mut self, lanes: usize, rows: usize) {
        self.stats.write_cycles += Self::write_row_cycles(lanes) * rows as u64;
    }

    /// Direct slice view (diagnostics, host verification, and the
    /// simulator's `lds` lane loops).
    pub fn as_slice(&self) -> &[u32] {
        &self.data
    }

    /// Account `n` word reads performed through [`SharedMemory::as_slice`]
    /// (the simulator's `lds` lane loops bypass [`SharedMemory::read`]).
    pub(crate) fn bump_reads(&mut self, n: u64) {
        self.stats.reads += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_trapped() {
        let mut m = SharedMemory::new(16);
        assert!(m.read(0, 0, 15).is_ok());
        let e = m.read(7, 3, 16).unwrap_err();
        assert_eq!(
            e,
            ExecError::SharedOutOfBounds {
                pc: 7,
                thread: 3,
                addr: 16,
                size: 16
            }
        );
        assert!(m.write(0, 0, 15, 1).is_ok());
        assert!(m.write(0, 0, 99, 1).is_err());
    }

    #[test]
    fn port_schedule_full_row() {
        // 16 threads: read = 4 clocks (4R ports), write = 16 clocks (1W).
        assert_eq!(SharedMemory::read_row_cycles(16), 4);
        assert_eq!(SharedMemory::write_row_cycles(16), 16);
    }

    #[test]
    fn port_schedule_partial_rows() {
        assert_eq!(SharedMemory::read_row_cycles(1), 1);
        assert_eq!(SharedMemory::read_row_cycles(4), 1);
        assert_eq!(SharedMemory::read_row_cycles(5), 2);
        assert_eq!(SharedMemory::write_row_cycles(3), 3);
    }

    #[test]
    fn bulk_io() {
        let mut m = SharedMemory::new(8);
        m.load_words(2, &[10, 20, 30]).unwrap();
        assert_eq!(m.read_words(0, 8).unwrap(), vec![0, 0, 10, 20, 30, 0, 0, 0]);
        assert!(m.load_words(6, &[1, 2, 3]).is_err());
        assert!(m.read_words(7, 2).is_err());
    }

    #[test]
    fn stats_accumulate() {
        let mut m = SharedMemory::new(8);
        m.read(0, 0, 0).unwrap();
        m.write(0, 0, 1, 5).unwrap();
        m.account_read_row(16);
        m.account_write_row(16);
        let s = m.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.read_cycles, 4);
        assert_eq!(s.write_cycles, 16);
        m.reset_stats();
        assert_eq!(m.stats(), SharedMemStats::default());
    }
}
