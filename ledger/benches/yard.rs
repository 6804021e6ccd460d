//! The yardstick: a fixed piece of work that uses none of the repository's
//! code, run between the blocks of a timed window to read how fast the host
//! is going just then. A block's figures are divided by that reading, so a
//! host that runs at 0.6 of its speed for a while (another tenant, a clock
//! change) does not show as a program that got slower. README.md, "The
//! yardstick", has the argument, the measurements behind the two kinds, and
//! what it costs.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What sets a workload's pace, and so which yardstick reads the host's
/// speed for it. A slow spell of this host slows work that enters the
/// kernel and switches threads about 1.6 times as much (in the exponent)
/// as work that stays in user space, so one yardstick does not fit both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Thread handoffs through the kernel: a call is a chain of wake-ups
    /// and system calls. One round of the yardstick is a 64-byte message
    /// to another thread and back over loopback TCP, with a copy and a
    /// hash of 4 KiB at either end.
    Handoffs,
    /// Work in user space: a pipeline whose queues stay full and whose
    /// threads seldom sleep. One round is a copy and a hash of 4 KiB.
    Compute,
    /// Timers: the host's speed does not move the workload, and its
    /// figures are reported as measured. The speed reads 1.0.
    Timers,
}

/// Rounds per second that count as speed 1.0: what each yardstick reads on
/// the sandbox the baseline was made in, on one CPU, at its usual speed.
/// Constants, so figures keep their units and stay near what a stopwatch
/// would say; their values cancel in every comparison of two commits.
const NOMINAL_HANDOFFS_PER_S: f64 = 115_000.0;
const NOMINAL_COMPUTE_PER_S: f64 = 1_380_000.0;

const MESSAGE: usize = 64;
const BLOCK: usize = 4096;

/// Rounds between looks at the clock.
const BATCH: u64 = 32;

/// Copies `from` into `to` and folds it, 8 bytes at a time (FNV-1a's
/// multiply over words): memory traffic and dependent arithmetic.
fn churn(from: &[u8; BLOCK], to: &mut [u8; BLOCK], mut state: u64) -> u64 {
    to.copy_from_slice(from);
    for word in to.chunks_exact(8) {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunks"));
        state = (state ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

pub struct Yardstick {
    near: TcpStream,
    far: Option<JoinHandle<()>>,
    from: Box<[u8; BLOCK]>,
    to: Box<[u8; BLOCK]>,
    state: u64,
}

impl Yardstick {
    pub fn new() -> Result<Self, String> {
        let io = |what: &str, e: std::io::Error| format!("yardstick: {what}: {e}");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io("listen", e))?;
        let addr = listener.local_addr().map_err(|e| io("local address", e))?;
        let near = TcpStream::connect(addr).map_err(|e| io("connect", e))?;
        let (mut peer, _) = listener.accept().map_err(|e| io("accept", e))?;
        near.set_nodelay(true).map_err(|e| io("nodelay", e))?;
        peer.set_nodelay(true).map_err(|e| io("nodelay", e))?;
        let far = std::thread::Builder::new()
            .name("ledger-yardstick".into())
            .spawn(move || {
                let from = Box::new([0x5au8; BLOCK]);
                let mut to = Box::new([0u8; BLOCK]);
                let mut message = [0u8; MESSAGE];
                // Ends when the near side shuts the connection down.
                while peer.read_exact(&mut message).is_ok() {
                    let state = u64::from_le_bytes(message[..8].try_into().expect("8 bytes"));
                    let state = churn(&from, &mut to, state);
                    message[..8].copy_from_slice(&state.to_le_bytes());
                    if peer.write_all(&message).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| io("spawn", e))?;
        Ok(Yardstick {
            near,
            far: Some(far),
            from: Box::new([0xa5u8; BLOCK]),
            to: Box::new([0u8; BLOCK]),
            state: 0xcbf2_9ce4_8422_2325,
        })
    }

    fn handoff(&mut self) -> Result<(), String> {
        self.state = churn(&self.from, &mut self.to, self.state);
        let mut message = [0u8; MESSAGE];
        message[..8].copy_from_slice(&self.state.to_le_bytes());
        self.near
            .write_all(&message)
            .and_then(|()| self.near.read_exact(&mut message))
            .map_err(|e| format!("yardstick: round trip: {e}"))?;
        self.state = u64::from_le_bytes(message[..8].try_into().expect("8 bytes"));
        Ok(())
    }

    /// Runs rounds of `pace`'s kind for `span` and returns the host's speed
    /// over it: rounds per second over the kind's nominal rate. `Timers`
    /// reads 1.0 and takes no time.
    pub fn speed(&mut self, pace: Pace, span: Duration) -> Result<f64, String> {
        let nominal = match pace {
            Pace::Handoffs => NOMINAL_HANDOFFS_PER_S,
            Pace::Compute => NOMINAL_COMPUTE_PER_S,
            Pace::Timers => return Ok(1.0),
        };
        let start = Instant::now();
        let mut rounds = 0u64;
        loop {
            for _ in 0..BATCH {
                match pace {
                    Pace::Handoffs => self.handoff()?,
                    _ => self.state = churn(&self.from, &mut self.to, self.state),
                }
            }
            rounds += BATCH;
            let elapsed = start.elapsed();
            if elapsed >= span {
                // The folded state is an output nothing reads; keep the
                // optimiser from concluding the work is not needed.
                std::hint::black_box(self.state);
                return Ok(rounds as f64 / elapsed.as_secs_f64() / nominal);
            }
        }
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        let _ = self.near.shutdown(Shutdown::Both);
        if let Some(far) = self.far.take() {
            let _ = far.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yardstick_reads_a_positive_speed_of_either_kind() {
        let mut yard = Yardstick::new().expect("loopback is there");
        let span = Duration::from_millis(30);
        for pace in [Pace::Handoffs, Pace::Compute] {
            let first = yard.speed(pace, span).expect("rounds run");
            let second = yard.speed(pace, span).expect("rounds run");
            assert!(first > 0.0 && second > 0.0);
            // Same host, same moment: the two readings are of one speed.
            assert!((first / second - 1.0).abs() < 0.5, "{first} vs {second}");
        }
        let started = Instant::now();
        assert_eq!(yard.speed(Pace::Timers, Duration::from_secs(60)), Ok(1.0));
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn the_fold_depends_on_every_word() {
        let mut to = [0u8; BLOCK];
        let a = [1u8; BLOCK];
        let mut b = a;
        b[BLOCK - 1] = 2;
        assert_ne!(churn(&a, &mut to, 7), churn(&b, &mut to, 7));
        assert_eq!(to, b);
    }
}
