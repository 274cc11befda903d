//! The register file: up to 64 K × 32-bit registers, banked per SP.
//!
//! Each SP owns the registers of the threads it services (thread `t` runs
//! on SP `t mod 16`), built from M20Ks in their fastest 512 × 40 mode with
//! two read-port replicas (Table 1's 4 M20K per SP for the reference
//! configuration). Register address = `thread-slot × regs_per_thread +
//! reg`, computed in the decode delay chain.

use crate::config::ProcessorConfig;
use simt_isa::SP_COUNT;

/// The full register file (all 16 SP banks).
#[derive(Debug, Clone)]
pub struct RegisterFile {
    regs_per_thread: usize,
    threads: usize,
    /// Flat storage, `[thread][reg]` row-major.
    data: Vec<u32>,
    /// Per-thread predicate registers p0..p3, one nibble per thread.
    preds: Vec<u8>,
}

impl RegisterFile {
    /// Allocate and zero a register file for `config`.
    pub fn new(config: &ProcessorConfig) -> Self {
        RegisterFile {
            regs_per_thread: config.regs_per_thread,
            threads: config.threads,
            data: vec![0; config.threads * config.regs_per_thread],
            preds: vec![0; config.threads],
        }
    }

    /// Zero every register and predicate in place (power-on state,
    /// without reallocating).
    pub(crate) fn clear(&mut self) {
        self.data.fill(0);
        self.preds.fill(0);
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Registers per thread.
    pub fn regs_per_thread(&self) -> usize {
        self.regs_per_thread
    }

    #[inline]
    fn index(&self, thread: usize, reg: u8) -> usize {
        debug_assert!(thread < self.threads, "thread {thread} out of range");
        debug_assert!(
            (reg as usize) < self.regs_per_thread,
            "r{reg} beyond regs/thread {}",
            self.regs_per_thread
        );
        thread * self.regs_per_thread + reg as usize
    }

    /// Read a register.
    #[inline]
    pub fn read(&self, thread: usize, reg: u8) -> u32 {
        self.data[self.index(thread, reg)]
    }

    /// Write a register.
    #[inline]
    pub fn write(&mut self, thread: usize, reg: u8, value: u32) {
        let i = self.index(thread, reg);
        self.data[i] = value;
    }

    /// Read a predicate register.
    #[inline]
    pub fn read_pred(&self, thread: usize, pred: usize) -> bool {
        self.preds[thread] >> (pred & 3) & 1 != 0
    }

    /// Write a predicate register.
    #[inline]
    pub fn write_pred(&mut self, thread: usize, pred: usize, value: bool) {
        let bit = 1u8 << (pred & 3);
        if value {
            self.preds[thread] |= bit;
        } else {
            self.preds[thread] &= !bit;
        }
    }

    /// Bulk-load a register across all threads (host-side data upload,
    /// the way kernels receive their inputs).
    pub fn broadcast(&mut self, reg: u8, value: u32) {
        for t in 0..self.threads {
            self.write(t, reg, value);
        }
    }

    /// Host-side scatter: write `values[t]` to `reg` of thread `t`.
    ///
    /// # Panics
    /// If `values.len() != threads`.
    pub fn scatter(&mut self, reg: u8, values: &[u32]) {
        assert_eq!(values.len(), self.threads, "scatter length mismatch");
        for (t, &v) in values.iter().enumerate() {
            self.write(t, reg, v);
        }
    }

    /// Host-side gather of one register across all threads.
    pub fn gather(&self, reg: u8) -> Vec<u32> {
        (0..self.threads).map(|t| self.read(t, reg)).collect()
    }

    /// The SP servicing a thread (round-robin by low bits, the physical
    /// lane assignment of the 16-wide block).
    pub fn sp_of_thread(thread: usize) -> usize {
        thread % SP_COUNT
    }

    /// Raw view of a thread's registers (diagnostics).
    pub fn thread_regs(&self, thread: usize) -> &[u32] {
        let base = thread * self.regs_per_thread;
        &self.data[base..base + self.regs_per_thread]
    }

    /// Split borrow of the raw register and predicate arrays for the
    /// simulator's lane loops (`data` is `[thread][reg]` row-major;
    /// `preds` one nibble-in-a-byte per thread).
    pub(crate) fn split_mut(&mut self) -> (&mut [u32], &mut [u8], usize) {
        (&mut self.data, &mut self.preds, self.regs_per_thread)
    }

    /// A thread's raw predicate nibble (the four predicate registers
    /// packed p3..p0) — the form the predecoded guard test consumes.
    #[inline]
    pub(crate) fn pred_nibble(&self, thread: usize) -> u8 {
        self.preds[thread]
    }

    /// Immutable view of the raw arrays (snapshots).
    pub(crate) fn raw(&self) -> (&[u32], &[u8]) {
        (&self.data, &self.preds)
    }

    /// Restore the raw arrays (snapshot restore; lengths must match).
    pub(crate) fn restore_raw(&mut self, data: &[u32], preds: &[u8]) {
        assert_eq!(data.len(), self.data.len());
        assert_eq!(preds.len(), self.preds.len());
        self.data.copy_from_slice(data);
        self.preds.copy_from_slice(preds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ProcessorConfig {
        ProcessorConfig::small()
    }

    #[test]
    fn read_write_roundtrip() {
        let mut rf = RegisterFile::new(&cfg());
        rf.write(3, 5, 0xDEAD_BEEF);
        assert_eq!(rf.read(3, 5), 0xDEAD_BEEF);
        assert_eq!(rf.read(3, 4), 0);
        assert_eq!(rf.read(2, 5), 0);
    }

    #[test]
    fn predicates_are_per_thread_nibbles() {
        let mut rf = RegisterFile::new(&cfg());
        rf.write_pred(0, 0, true);
        rf.write_pred(0, 3, true);
        rf.write_pred(1, 1, true);
        assert!(rf.read_pred(0, 0));
        assert!(!rf.read_pred(0, 1));
        assert!(rf.read_pred(0, 3));
        assert!(rf.read_pred(1, 1));
        rf.write_pred(0, 0, false);
        assert!(!rf.read_pred(0, 0));
        assert!(rf.read_pred(0, 3));
    }

    #[test]
    fn broadcast_scatter_gather() {
        let mut rf = RegisterFile::new(&cfg());
        rf.broadcast(1, 7);
        assert!(rf.gather(1).iter().all(|&v| v == 7));
        let vals: Vec<u32> = (0..64).map(|t| t * 3).collect();
        rf.scatter(2, &vals);
        assert_eq!(rf.gather(2), vals);
        assert_eq!(rf.read(10, 2), 30);
    }

    #[test]
    fn lane_assignment() {
        assert_eq!(RegisterFile::sp_of_thread(0), 0);
        assert_eq!(RegisterFile::sp_of_thread(15), 15);
        assert_eq!(RegisterFile::sp_of_thread(16), 0);
        assert_eq!(RegisterFile::sp_of_thread(37), 5);
    }

    #[test]
    #[should_panic]
    fn scatter_length_checked() {
        let mut rf = RegisterFile::new(&cfg());
        rf.scatter(0, &[1, 2, 3]);
    }
}
