//! The spin-then-park handoff under concurrency: no lost wakeup, no
//! hung waiter.
//!
//! Every scenario runs on two pools. One has a single device: the spin
//! path on any host with at least two cores. The other has
//! `min(available_parallelism, 4)` devices: the park path (several
//! devices never spin; on a 1-core host both pools park).
//! Each scenario runs on a helper thread that the test thread gives
//! 10 s, so a lost wakeup fails the test instead of hanging it.

use simt_kernels::vector::Z_OFF;
use simt_kernels::workload::int_vector;
use simt_kernels::LaunchSpec;
use simt_runtime::{Runtime, RuntimeConfig, RuntimeError};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(10);
const CLIENTS: u64 = 4;

/// Device counts of the two pools.
fn pools() -> [usize; 2] {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    [1, cores.min(4)]
}

/// Run `body` on its own thread and return its result, failing the
/// test if it does not finish within [`WATCHDOG`].
fn guarded<T: Send + 'static>(what: &str, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(v) => {
            worker.join().expect("body returned");
            v
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what}: hung for {WATCHDOG:?} (lost wakeup)"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("body panicked"))
        }
    }
}

/// A 64-thread saxpy with inputs derived from `seed`.
fn spec(seed: u64) -> LaunchSpec {
    LaunchSpec::saxpy(3, &int_vector(64, seed), &int_vector(64, seed + 1))
}

#[test]
fn concurrent_clients_launch_copy_and_wait() {
    for devices in pools() {
        guarded(&format!("{devices}-device pool"), move || {
            let rt = Runtime::new(RuntimeConfig::with_devices(devices));
            std::thread::scope(|s| {
                for c in 0..CLIENTS {
                    let stream = rt.stream();
                    s.spawn(move || {
                        for i in 0..200 {
                            let spec = spec(c * 1000 + i);
                            let expected = spec.expected.clone();
                            let launch = stream.launch(spec);
                            let out = stream.copy_out(Z_OFF, 64);
                            assert_eq!(out.wait().unwrap(), expected);
                            assert!(launch.wait().unwrap().cycles > 0);
                        }
                    });
                }
            });
            rt.synchronize().unwrap();
            assert_eq!(rt.stats().launches(), 200 * CLIENTS);
        });
    }
}

#[test]
fn synchronize_returns_only_after_the_work() {
    for devices in pools() {
        guarded(&format!("{devices}-device pool"), move || {
            let rt = Runtime::new(RuntimeConfig::with_devices(devices));
            std::thread::scope(|s| {
                for c in 0..CLIENTS {
                    let stream = rt.stream();
                    s.spawn(move || {
                        for i in 0..100 {
                            let spec = spec(c * 1000 + i);
                            let expected = spec.expected.clone();
                            stream.launch(spec);
                            let out = stream.copy_out(Z_OFF, 64);
                            stream.synchronize();
                            // The fence resolves behind the copy.
                            assert_eq!(out.try_data(), Some(Ok(expected)));
                        }
                    });
                }
                // A host-wide synchronize racing the stream fences.
                s.spawn(|| {
                    for _ in 0..100 {
                        rt.synchronize().unwrap();
                    }
                });
            });
            rt.synchronize().unwrap();
            assert_eq!(rt.stats().launches(), 100 * CLIENTS);
        });
    }
}

#[test]
fn pause_and_resume_mid_flight_lose_no_wakeup() {
    for devices in pools() {
        guarded(&format!("{devices}-device pool"), move || {
            let rt = Runtime::new(RuntimeConfig::with_devices(devices));
            let streams: Vec<_> = (0..CLIENTS).map(|_| rt.stream()).collect();
            // A first wave runs while the pool pauses under it.
            let first: Vec<_> = streams
                .iter()
                .map(|s| (s.copy_out(0, 8), s.launch(spec(1))))
                .collect();
            rt.pause();
            // The second wave is enqueued after the pause took effect,
            // so no worker may start it before the resume.
            let second: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let spec = spec(100 + i as u64);
                    let expected = spec.expected.clone();
                    s.launch(spec);
                    (s.copy_out(Z_OFF, 64), expected)
                })
                .collect();
            for (out, _) in &second {
                assert!(out.try_data().is_none(), "ran while paused");
            }
            let ready = Arc::new(Barrier::new(second.len() + 1));
            let waiters: Vec<_> = second
                .into_iter()
                .map(|(out, expected)| {
                    let ready = Arc::clone(&ready);
                    std::thread::spawn(move || {
                        ready.wait();
                        assert_eq!(out.wait().unwrap(), expected);
                    })
                })
                .collect();
            ready.wait();
            // Give the waiters time to exhaust any spin budget and park;
            // correctness does not depend on it, coverage of the parked
            // path does.
            std::thread::sleep(Duration::from_millis(2));
            rt.resume();
            for w in waiters {
                w.join().unwrap();
            }
            for (out, launch) in first {
                assert!(out.wait().is_ok() && launch.wait().is_ok());
            }
            rt.synchronize().unwrap();
        });
    }
}

#[test]
fn shutdown_resolves_parked_waiters() {
    for devices in pools() {
        for explicit in [true, false] {
            let what = format!("{devices}-device pool, shutdown by {}", {
                if explicit {
                    "Runtime::shutdown"
                } else {
                    "drop"
                }
            });
            guarded(&what, move || {
                let rt = Runtime::new(RuntimeConfig::with_devices(devices));
                rt.pause();
                let streams: Vec<_> = (0..CLIENTS).map(|_| rt.stream()).collect();
                let ready = Arc::new(Barrier::new(2 * streams.len() + 1));
                let mut waiters = Vec::new();
                for (i, s) in streams.iter().enumerate() {
                    let launch = s.launch(spec(i as u64));
                    let out = s.copy_out(Z_OFF, 64);
                    let r = Arc::clone(&ready);
                    waiters.push(std::thread::spawn(move || {
                        r.wait();
                        assert_eq!(launch.wait().unwrap_err(), RuntimeError::Shutdown);
                        assert_eq!(out.wait().unwrap_err(), RuntimeError::Shutdown);
                    }));
                    let (r, s) = (Arc::clone(&ready), s.clone());
                    waiters.push(std::thread::spawn(move || {
                        r.wait();
                        s.synchronize();
                    }));
                }
                ready.wait();
                // As above: time to park, not a correctness condition.
                std::thread::sleep(Duration::from_millis(2));
                if explicit {
                    rt.shutdown();
                    rt.synchronize().unwrap();
                } else {
                    drop(rt);
                }
                for w in waiters {
                    w.join().unwrap();
                }
            });
        }
    }
}
