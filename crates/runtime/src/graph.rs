//! Execution-graph instantiation and replay.
//!
//! A [`simt_graph::ExecGraph`] (built directly, or recorded with
//! `Stream::begin_capture`/`end_capture`, optionally fused with
//! [`simt_graph::fuse()`]) becomes runnable in two steps:
//!
//! 1. [`Runtime::instantiate`] — validate every node against the pool
//!    configuration and resolve every launch through the pool-wide
//!    content-addressed compile cache, binding the predecoded program
//!    to its node. Instantiation is the only compile-cache traffic the
//!    graph ever causes: replays run the bound programs without a
//!    lookup, so a later LRU eviction cannot make a replay recompile.
//! 2. [`Runtime::replay`] — execute the DAG against a fresh graph
//!    buffer on a host-side execution context taken from a free list,
//!    walking a deterministic topological order and *placing* each
//!    ready node on the least-loaded device engine of the pool's
//!    shared virtual timeline (launches on compute engines, copies on
//!    DMA engines — the same dispatch rule stream commands use). No
//!    lock is held across node execution, so replays from several host
//!    threads run in parallel; their nodes may interleave on the
//!    virtual timeline, as concurrent streams' commands do. The
//!    returned [`GraphReplay`] carries the copy-out payloads, the
//!    per-node placement trace and the replay's modeled span.
//!
//! Replays are parameterizable: [`GraphExec::set_copy_in`] swaps a
//! copy-in node's payload between replays — new data, zero recompiles.

use crate::stats::CommandKind;
use crate::{pool, Runtime, RuntimeError};
use simt_core::{DecodedProgram, ExecStats};
use simt_graph::{ExecGraph, GraphOp, NodeId};
use simt_profile::TraceEvent;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// An instantiated graph: validated against the pool, with every launch
/// bound to its compiled program, ready to replay any number of times.
#[derive(Debug)]
pub struct GraphExec {
    graph: ExecGraph,
    /// The predecoded program of each launch node, indexed by node
    /// (`None` for copies).
    programs: Vec<Option<Arc<DecodedProgram>>>,
    memory_words: usize,
}

impl GraphExec {
    /// The underlying graph.
    pub fn graph(&self) -> &ExecGraph {
        &self.graph
    }

    /// Replace a copy-in node's payload for subsequent replays (buffer
    /// re-binding without recompiling). The new payload must stay inside
    /// the graph buffer.
    pub fn set_copy_in(&mut self, node: NodeId, data: Vec<u32>) -> Result<(), RuntimeError> {
        let dst = match self.graph.nodes().get(node.index()).map(|n| &n.op) {
            Some(GraphOp::CopyIn { dst, .. }) => *dst,
            Some(other) => {
                return Err(RuntimeError::Graph(format!(
                    "{node} is a {} node, not a copy-in",
                    other.kind()
                )))
            }
            None => {
                return Err(RuntimeError::Graph(format!(
                    "{node} is out of range for a graph of {} nodes",
                    self.graph.len()
                )))
            }
        };
        check_window(dst, data.len(), self.memory_words)?;
        assert!(self.graph.set_copy_in(node, data), "checked copy-in node");
        Ok(())
    }
}

/// Where one node ran on the virtual timeline.
#[derive(Debug, Clone, Copy)]
pub struct NodePlacement {
    /// The node.
    pub node: NodeId,
    /// Command kind (launch / copy-in / copy-out).
    pub kind: CommandKind,
    /// Device whose engine the node was placed on.
    pub device: usize,
    /// Virtual start cycle.
    pub start: u64,
    /// Virtual end cycle.
    pub end: u64,
}

/// Result of one graph replay.
#[derive(Debug, Clone, Default)]
pub struct GraphReplay {
    /// Copy-out payloads, in replay order.
    pub outputs: Vec<(NodeId, Vec<u32>)>,
    /// Per-node placement trace, in replay order.
    pub placements: Vec<NodePlacement>,
    /// Modeled cycles from the replay's first start to its last end —
    /// the graph's makespan on the pool.
    pub span_cycles: u64,
    /// Aggregated execution statistics of every launch node.
    pub compute: ExecStats,
    /// Launches that ran an already-compiled program: every launch,
    /// since each runs the program bound at instantiation, before the
    /// replay started.
    pub compile_hits: u64,
}

impl GraphReplay {
    /// The payload a copy-out node produced, if `node` is one.
    pub fn output(&self, node: NodeId) -> Option<&[u32]> {
        self.outputs
            .iter()
            .find(|(id, _)| *id == node)
            .map(|(_, words)| words.as_slice())
    }

    /// How many nodes each device received, indexed by device id.
    pub fn device_spread(&self, devices: usize) -> Vec<usize> {
        let mut spread = vec![0usize; devices];
        for p in &self.placements {
            if let Some(slot) = spread.get_mut(p.device) {
                *slot += 1;
            }
        }
        spread
    }
}

fn check_window(off: usize, len: usize, memory_words: usize) -> Result<(), RuntimeError> {
    if off.checked_add(len).is_none_or(|end| end > memory_words) {
        return Err(RuntimeError::CopyOutOfBounds {
            offset: off,
            len,
            memory_words,
        });
    }
    Ok(())
}

impl Runtime {
    /// Instantiate a graph: validate every copy window against the
    /// device buffer and resolve every launch through the pool-wide
    /// compile cache (whole-graph compilation — one artifact per
    /// distinct kernel, shared with the streams' launch path). Each
    /// launch node keeps its *predecoded* program, so replays neither
    /// look it up again nor re-derive the simulator decode.
    pub fn instantiate(&self, graph: ExecGraph) -> Result<GraphExec, RuntimeError> {
        let memory_words = self.config().device.memory_words;
        let programs = graph
            .nodes()
            .iter()
            .map(|node| match &node.op {
                GraphOp::CopyIn { dst, data } => {
                    check_window(*dst, data.len(), memory_words).map(|()| None)
                }
                GraphOp::CopyOut { src, len } => {
                    check_window(*src, *len, memory_words).map(|()| None)
                }
                GraphOp::Launch(spec) => {
                    pool::resolve(self.compile_cache(), spec).map(|(decoded, _)| Some(decoded))
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(GraphExec {
            graph,
            programs,
            memory_words,
        })
    }

    /// Replay an instantiated graph: execute its nodes in deterministic
    /// topological order against a fresh graph buffer, placing each
    /// node on the least-loaded engine of the pool's shared virtual
    /// timeline. Kernel results are bit-exact with eager stream
    /// execution of the same DAG; the placement breaks stream-device
    /// affinity, so independent branches land on different devices.
    ///
    /// Launches run the programs bound by [`Runtime::instantiate`] and
    /// make no compile-cache call. The host-side execution context comes
    /// from a free list locked only to pop and push it, so any number of
    /// threads may replay (the same or different graphs) in parallel.
    pub fn replay(&self, exec: &GraphExec) -> Result<GraphReplay, RuntimeError> {
        let idle = self.replay_devices.lock().unwrap().pop();
        let mut device = idle.unwrap_or_else(|| {
            let cfg = self.config();
            pool::Device::new(
                cfg.devices,
                cfg.device.clone(),
                cfg.recovery.watchdog_cycle_budget,
                self.pc_sink.clone(),
            )
        });
        let replay = self.replay_on(&mut device, exec);
        self.replay_devices.lock().unwrap().push(device);
        replay
    }

    fn replay_on(
        &self,
        device: &mut pool::Device,
        exec: &GraphExec,
    ) -> Result<GraphReplay, RuntimeError> {
        let mut buffer = vec![0u32; exec.memory_words];
        let mut ends: HashMap<NodeId, u64> = HashMap::new();
        let mut replay = GraphReplay::default();
        let mut span = (u64::MAX, 0u64);
        for &id in exec.graph.topo_order() {
            // A replay spans many nodes of host-side work; honor a
            // concurrent `Runtime::shutdown` between nodes so the
            // caller's handle resolves instead of racing the drop.
            if self
                .shared
                .shutdown
                .load(std::sync::atomic::Ordering::Relaxed)
            {
                return Err(RuntimeError::Shutdown);
            }
            let node = exec.graph.node(id);
            let ready = node.deps.iter().map(|d| ends[d]).max().unwrap_or(0);
            let t0 = Instant::now();
            let (kind, cycles, words, stats, cache_hit) = match &node.op {
                GraphOp::CopyIn { dst, data } => {
                    check_window(*dst, data.len(), buffer.len())?;
                    buffer[*dst..dst + data.len()].copy_from_slice(data);
                    let cycles = device.copy_cycles(data.len());
                    (CommandKind::CopyIn, cycles, data.len() as u64, None, false)
                }
                GraphOp::CopyOut { src, len } => {
                    check_window(*src, *len, buffer.len())?;
                    replay.outputs.push((id, buffer[*src..src + len].to_vec()));
                    let cycles = device.copy_cycles(*len);
                    (CommandKind::CopyOut, cycles, *len as u64, None, false)
                }
                GraphOp::Launch(spec) => {
                    let decoded = exec.programs[id.index()]
                        .clone()
                        .expect("instantiate binds every launch node");
                    let outcome = device.run_decoded(spec, decoded, true, &mut buffer)?;
                    replay.compute.merge(&outcome.stats);
                    replay.compile_hits += 1;
                    let cycles = outcome.stats.cycles;
                    if let Some(m) = &self.shared.metrics {
                        m.record_kernel_cycles(&spec.name, cycles);
                    }
                    (
                        CommandKind::Launch,
                        cycles,
                        0,
                        Some(outcome.stats),
                        outcome.cache_hit,
                    )
                }
            };
            let (placed, start, end) = self.shared.place_graph_command(
                kind,
                ready,
                cycles,
                words,
                stats.as_ref(),
                cache_hit,
                t0.elapsed(),
            );
            ends.insert(id, end);
            span = (span.0.min(start), span.1.max(end));
            let kernel = match &node.op {
                GraphOp::Launch(spec) if self.shared.detail() => spec.name.clone(),
                _ => String::new(),
            };
            self.shared.record(TraceEvent::GraphNodePlace {
                node: id.index(),
                kind,
                device: placed,
                start,
                end,
                kernel,
            });
            replay.placements.push(NodePlacement {
                node: id,
                kind,
                device: placed,
                start,
                end,
            });
        }
        replay.span_cycles = span.1.saturating_sub(span.0);
        if let Some(m) = &self.shared.metrics {
            m.record_graph_span(replay.span_cycles);
        }
        self.shared.record(TraceEvent::GraphReplayDone {
            nodes: replay.placements.len(),
            span_cycles: replay.span_cycles,
        });
        Ok(replay)
    }
}
