//! Socket-layer chaos: a deterministic fault-injecting stream shim.
//!
//! [`FaultStream`] wraps any byte stream and perturbs its I/O according
//! to a SplitMix64-seeded [`FaultPlan`]: reads come back torn into small
//! fragments, writes are cut short (exercising every `write_all` loop),
//! either side of an operation can stall briefly, and the stream can
//! disconnect mid-message — reads turn into EOF, writes into broken
//! pipes, exactly the shapes a hostile or flaky peer produces.
//!
//! The shim is threaded through both ends of the wire: the server's
//! event loop wraps accepted sockets when
//! [`crate::ServeConfig::chaos_seed`] is set, and the persistent
//! [`crate::http::HttpClient`] wraps its dialed socket via
//! [`crate::http::HttpClient::with_fault_injection`]. Every fault
//! decision comes from the seed, so a failing CI chaos round replays
//! bit-for-bit from its seed alone.

use acs_llm::rng::SplitMix64;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Probabilities and magnitudes of the injected socket faults. All
/// probabilities are per-operation, in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the per-stream fault schedule.
    pub seed: u64,
    /// Probability that a read is torn down to a 1–3 byte fragment.
    pub torn_read: f64,
    /// Probability that a write is cut short of the requested length.
    pub partial_write: f64,
    /// Probability of a stall before an operation completes.
    pub stall: f64,
    /// How long a stalled operation sleeps.
    pub stall_for: Duration,
    /// Probability, per operation, that the stream drops dead: reads
    /// return EOF and writes a broken pipe from then on.
    pub disconnect: f64,
}

impl FaultPlan {
    /// A plan that perturbs framing constantly but kills connections
    /// rarely — most requests limp through, proving the stack tolerates
    /// torn I/O rather than merely surviving it.
    #[must_use]
    pub fn gentle(seed: u64) -> Self {
        FaultPlan {
            seed,
            torn_read: 0.25,
            partial_write: 0.25,
            stall: 0.05,
            stall_for: Duration::from_millis(2),
            disconnect: 0.01,
        }
    }

    /// A plan that tears everything and disconnects often; used to prove
    /// workers shed broken connections instead of wedging on them.
    #[must_use]
    pub fn harsh(seed: u64) -> Self {
        FaultPlan {
            seed,
            torn_read: 0.6,
            partial_write: 0.6,
            stall: 0.15,
            stall_for: Duration::from_millis(3),
            disconnect: 0.08,
        }
    }

    /// The same plan re-seeded (per-connection schedules derive from one
    /// configured seed plus a connection counter).
    #[must_use]
    pub fn reseeded(&self, seed: u64) -> Self {
        FaultPlan { seed, ..self.clone() }
    }
}

/// A byte stream with deterministic fault injection. Implements `Read`
/// and `Write` by forwarding to the wrapped stream through the fault
/// schedule.
#[derive(Debug)]
pub struct FaultStream<S> {
    inner: S,
    rng: SplitMix64,
    plan: FaultPlan,
    dead: bool,
    injected: u64,
    tally: Option<Arc<AtomicU64>>,
}

impl<S> FaultStream<S> {
    /// Wrap `inner` under `plan`'s fault schedule.
    #[must_use]
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultStream {
            inner,
            rng: SplitMix64::new(plan.seed),
            plan,
            dead: false,
            injected: 0,
            tally: None,
        }
    }

    /// Mirror the injected-fault count into a shared counter (the server
    /// reads it after the connection ends).
    #[must_use]
    pub fn with_tally(mut self, tally: Arc<AtomicU64>) -> Self {
        self.tally = Some(tally);
        self
    }

    /// Number of faults injected so far on this stream.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Borrow the wrapped stream (the event loop needs the raw fd for
    /// epoll registration; the fault schedule stays in force for I/O).
    #[must_use]
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Mutably borrow the wrapped stream.
    #[must_use]
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    fn note_fault(&mut self) {
        self.injected += 1;
        if let Some(tally) = &self.tally {
            tally.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.next_f64() < p
    }

    /// Apply pre-operation faults; returns `false` when the stream just
    /// died and the caller should produce the disconnect outcome.
    fn pre_op(&mut self) -> bool {
        if self.dead {
            return false;
        }
        if self.roll(self.plan.stall) {
            self.note_fault();
            std::thread::sleep(self.plan.stall_for);
        }
        if self.roll(self.plan.disconnect) {
            self.note_fault();
            self.dead = true;
            return false;
        }
        true
    }
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.pre_op() {
            // A dead peer reads as EOF: the clean half of a disconnect.
            return Ok(0);
        }
        if !buf.is_empty() && self.roll(self.plan.torn_read) {
            self.note_fault();
            let frag = 1 + (self.rng.next_u64() % 3) as usize;
            let frag = frag.min(buf.len());
            return self.inner.read(&mut buf[..frag]);
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !self.pre_op() {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "chaos: peer disconnected"));
        }
        if buf.len() > 1 && self.roll(self.plan.partial_write) {
            self.note_fault();
            // A short write is legal `Write` behaviour; `write_all`
            // callers must loop. Cut to a strict prefix so the loop runs.
            let cut = 1 + (self.rng.next_u64() as usize % (buf.len() - 1));
            return self.inner.write(&buf[..cut]);
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "chaos: peer disconnected"));
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A plan with everything off is a transparent wrapper.
    fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            torn_read: 0.0,
            partial_write: 0.0,
            stall: 0.0,
            stall_for: Duration::ZERO,
            disconnect: 0.0,
        }
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let mut s = FaultStream::new(Cursor::new(b"hello".to_vec()), quiet(1));
        let mut buf = [0u8; 16];
        assert_eq!(s.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(s.injected(), 0);
    }

    #[test]
    fn torn_reads_deliver_all_bytes_in_fragments() {
        let mut plan = quiet(7);
        plan.torn_read = 1.0;
        let payload = b"0123456789abcdef".to_vec();
        let mut s = FaultStream::new(Cursor::new(payload.clone()), plan);
        let mut out = Vec::new();
        let mut buf = [0u8; 16];
        loop {
            let n = s.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            assert!(n <= 3, "torn read returned {n} bytes");
            out.extend_from_slice(&buf[..n]);
        }
        assert_eq!(out, payload);
        assert!(s.injected() > 0);
    }

    #[test]
    fn partial_writes_compose_with_write_all() {
        let mut plan = quiet(9);
        plan.partial_write = 1.0;
        let mut s = FaultStream::new(Cursor::new(Vec::new()), plan);
        s.write_all(b"the quick brown fox jumps over the lazy dog").unwrap();
        assert_eq!(s.inner.get_ref().as_slice(), b"the quick brown fox jumps over the lazy dog");
        assert!(s.injected() > 0);
    }

    #[test]
    fn disconnect_is_eof_for_reads_and_broken_pipe_for_writes() {
        let mut plan = quiet(3);
        plan.disconnect = 1.0;
        let mut s = FaultStream::new(Cursor::new(b"data".to_vec()), plan);
        let mut buf = [0u8; 4];
        assert_eq!(s.read(&mut buf).unwrap(), 0, "dead stream reads as EOF");
        assert_eq!(s.write(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(s.flush().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn schedules_replay_from_the_seed() {
        let run = |seed: u64| {
            let mut s = FaultStream::new(Cursor::new(vec![0u8; 256]), FaultPlan::harsh(seed));
            let mut buf = [0u8; 8];
            let mut trace = Vec::new();
            for _ in 0..64 {
                trace.push(s.read(&mut buf).map_err(|e| e.kind()));
            }
            (trace, s.injected())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn tally_mirrors_injected_count() {
        let tally = Arc::new(AtomicU64::new(0));
        let mut plan = quiet(5);
        plan.torn_read = 1.0;
        let mut s = FaultStream::new(Cursor::new(vec![1u8; 64]), plan)
            .with_tally(Arc::clone(&tally));
        let mut buf = [0u8; 8];
        for _ in 0..10 {
            let _ = s.read(&mut buf).unwrap();
        }
        assert_eq!(tally.load(Ordering::Relaxed), s.injected());
        assert!(s.injected() >= 10);
    }
}
