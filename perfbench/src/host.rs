//! Host-side cost measurement: thread CPU time, process peak resident
//! set, and a future wrapper that accumulates the host time spent inside
//! the polls of a client call.
//!
//! The benchmark runs on one OS thread, so host time inside a poll is
//! host CPU of the client path (the simulator never blocks).

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs,
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let mut ru = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` has the size and layout of `struct rusage` on 64-bit
    // Linux and is valid for writes for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru.ru_maxrss as f64 / 1024.0
}

/// Accumulated host time inside client-call polls.
#[derive(Default)]
pub struct PollClock {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl PollClock {
    /// Wrap one client call: every poll of `fut` is timed into this clock.
    pub fn time<F: Future>(&self, fut: F) -> Timed<'_, F> {
        self.calls.set(self.calls.get() + 1);
        Timed {
            fut: Box::pin(fut),
            clock: self,
        }
    }

    /// Total host nanoseconds spent inside timed polls.
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    /// Calls wrapped so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// A client-call future whose polls are timed into a [`PollClock`].
pub struct Timed<'a, F> {
    fut: Pin<Box<F>>,
    clock: &'a PollClock,
}

impl<F: Future> Future for Timed<'_, F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let t0 = Instant::now();
        let out = self.fut.as_mut().poll(cx);
        let dt = t0.elapsed().as_nanos() as u64;
        self.clock.ns.set(self.clock.ns.get() + dt);
        out
    }
}
