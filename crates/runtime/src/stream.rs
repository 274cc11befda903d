//! Streams: ordered command queues, the unit of host→runtime work
//! submission.
//!
//! Commands within a stream execute in enqueue order; commands in
//! different streams are unordered unless [`Event`]s impose an order.
//! Every stream owns a device buffer; copies move host data in and out
//! of that buffer at modeled link cost, and launches read/write it.
//! Streams are not device-affine: each command is placed on the
//! least-loaded device at dispatch.

use crate::event::Event;
use crate::handoff::Slot;
use crate::scheduler::Shared;
use crate::stats::CommandKind;
use crate::RuntimeError;
use simt_core::ExecStats;
use simt_kernels::LaunchSpec;
use std::sync::Arc;

/// Handle to an asynchronous kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchHandle {
    pub(crate) slot: Arc<Slot<Result<ExecStats, RuntimeError>>>,
}

impl LaunchHandle {
    /// Block until the launch completes; returns its execution stats.
    pub fn wait(&self) -> Result<ExecStats, RuntimeError> {
        self.slot.wait()
    }

    /// Non-blocking poll.
    pub fn try_stats(&self) -> Option<Result<ExecStats, RuntimeError>> {
        self.slot.try_get()
    }
}

/// Handle to an asynchronous device→host copy.
#[derive(Debug, Clone)]
pub struct CopyHandle {
    pub(crate) slot: Arc<Slot<Result<Vec<u32>, RuntimeError>>>,
}

impl CopyHandle {
    /// Block until the copy completes; returns the words read.
    pub fn wait(&self) -> Result<Vec<u32>, RuntimeError> {
        self.slot.wait()
    }

    /// Non-blocking poll.
    pub fn try_data(&self) -> Option<Result<Vec<u32>, RuntimeError>> {
        self.slot.try_get()
    }
}

/// One queued stream command.
pub(crate) enum Command {
    /// Host→device copy into the stream buffer.
    CopyIn {
        /// Destination offset in words.
        dst: usize,
        /// Payload.
        data: Vec<u32>,
    },
    /// Device→host copy out of the stream buffer.
    CopyOut {
        /// Source offset in words.
        src: usize,
        /// Length in words.
        len: usize,
        /// Completion cell.
        sink: Arc<Slot<Result<Vec<u32>, RuntimeError>>>,
    },
    /// Kernel launch.
    Launch {
        /// The kernel to run.
        spec: Box<LaunchSpec>,
        /// Completion cell.
        sink: Arc<Slot<Result<ExecStats, RuntimeError>>>,
    },
    /// Signal an event once all prior commands of the stream completed.
    RecordEvent(Event),
    /// Hold the stream until the event signals.
    WaitEvent(Event),
}

impl Command {
    pub(crate) fn kind(&self) -> CommandKind {
        match self {
            Command::CopyIn { .. } => CommandKind::CopyIn,
            Command::CopyOut { .. } => CommandKind::CopyOut,
            Command::Launch { .. } => CommandKind::Launch,
            Command::RecordEvent(_) => CommandKind::EventRecord,
            Command::WaitEvent(_) => CommandKind::EventWait,
        }
    }

    /// Resolve the command's completion cell with an error (stream
    /// poisoning / shutdown paths). Events are signaled so dependent
    /// streams do not deadlock; the error is carried by the sinks.
    pub(crate) fn resolve_err(&self, e: &RuntimeError, vtime: u64) {
        match self {
            Command::CopyOut { sink, .. } => sink.set(Err(e.clone())),
            Command::Launch { sink, .. } => sink.set(Err(e.clone())),
            Command::RecordEvent(ev) => ev.signal(vtime),
            _ => {}
        }
    }
}

/// An ordered command queue over the device pool. Streams are not
/// bound to a device: every command is placed on the least-loaded
/// device at dispatch, and per-stream ordering is preserved by the
/// stream's completion chain.
#[derive(Clone)]
pub struct Stream {
    pub(crate) id: usize,
    pub(crate) shared: Arc<Shared>,
}

impl Stream {
    /// Stream id within the runtime.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Enqueue a host→device copy of `data` to word offset `dst` of the
    /// stream buffer.
    pub fn copy_in(&self, dst: usize, data: &[u32]) {
        self.shared.enqueue(
            self.id,
            Command::CopyIn {
                dst,
                data: data.to_vec(),
            },
        );
    }

    /// Enqueue an asynchronous kernel launch.
    pub fn launch(&self, spec: LaunchSpec) -> LaunchHandle {
        let slot = Arc::new(Slot::new(self.shared.spin));
        self.shared.enqueue(
            self.id,
            Command::Launch {
                spec: Box::new(spec),
                sink: slot.clone(),
            },
        );
        LaunchHandle { slot }
    }

    /// Enqueue a device→host copy of `len` words from offset `src`.
    pub fn copy_out(&self, src: usize, len: usize) -> CopyHandle {
        let slot = Arc::new(Slot::new(self.shared.spin));
        self.shared.enqueue(
            self.id,
            Command::CopyOut {
                src,
                len,
                sink: slot.clone(),
            },
        );
        CopyHandle { slot }
    }

    /// Enqueue an event record: `event` signals once everything enqueued
    /// on this stream so far has completed. (On a capturing stream the
    /// record becomes a graph-edge marker instead.)
    pub fn record_event(&self, event: &Event) {
        self.shared
            .enqueue(self.id, Command::RecordEvent(event.clone()));
    }

    /// Enqueue an event wait: commands enqueued on this stream after
    /// this call do not start until `event` signals. Waiting on an event
    /// that was never recorded anywhere is a no-op (the CUDA contract),
    /// not a deadlock.
    pub fn wait_event(&self, event: &Event) {
        self.shared
            .enqueue(self.id, Command::WaitEvent(event.clone()));
    }

    /// Block the host until everything enqueued on this stream so far
    /// has completed. On a *capturing* stream this returns immediately:
    /// captured commands never execute, so there is nothing to wait for
    /// (and the fence itself would be captured — waiting on it would
    /// deadlock the host).
    pub fn synchronize(&self) {
        if self.shared.is_capturing(self.id) {
            return;
        }
        let fence = Event::spinning(self.shared.spin);
        self.record_event(&fence);
        fence.wait();
    }

    /// Clear the stream's sticky error (CUDA's destroy-and-recreate
    /// recovery, folded into a reset): after a terminal failure every
    /// queued and subsequent command resolves with
    /// [`RuntimeError::StreamPoisoned`]
    /// until this is called. The failed commands stay failed — only
    /// new work is accepted again.
    pub fn reset(&self) {
        self.shared.reset_stream(self.id);
    }

    /// Begin capturing this stream: commands enqueued from now on are
    /// recorded into an execution graph instead of executing (their
    /// handles resolve with [`RuntimeError::Captured`]). The first
    /// capturing stream owns the session; other streams may join with
    /// their own `begin_capture` and order their nodes against it
    /// through events recorded/waited during the capture.
    pub fn begin_capture(&self) -> Result<(), RuntimeError> {
        self.shared.begin_capture(self.id)
    }

    /// Finish the capture this stream began and return the recorded
    /// DAG, ready to fuse (`simt_graph::fuse`), instantiate and replay.
    /// Typed errors: no capture in progress, ending on a non-origin
    /// stream, or an empty capture.
    pub fn end_capture(&self) -> Result<simt_graph::ExecGraph, RuntimeError> {
        self.shared.end_capture(self.id)
    }
}
