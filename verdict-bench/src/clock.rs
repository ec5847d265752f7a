//! Host-normalised timing.
//!
//! Wall-clock time on a shared virtual machine does not repeat: the host
//! moves between a fast and a slow mode (about 1.7x apart) that last from
//! tens of seconds to minutes, and no hardware counters are exposed. Every
//! timing is therefore divided by the duration of a fixed reference kernel
//! run right before and right after it, and multiplied by
//! [`REF_NOMINAL_MS`] to keep the units in milliseconds:
//!
//! `normalised = wall / mean(reference before, reference after) × REF_NOMINAL_MS`.
//!
//! Running the reference around every call would cost more than the short
//! calls themselves, so calls are grouped into windows of at least
//! [`REF_EVERY`]: a reference run closes each window, and all calls of a
//! window share the two references bracketing it. A window is far shorter
//! than a host mode, and any call longer than a window is bracketed on its
//! own.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nominal duration of one reference kernel run, in milliseconds: roughly
/// what it takes on a 2-vCPU x86-64 VM in its fast mode, so normalised
/// times there read close to wall time.
pub const REF_NOMINAL_MS: f64 = 4.5;

/// Shortest stretch of timed calls between two reference runs.
pub const REF_EVERY: Duration = Duration::from_millis(250);

/// Keys inserted by the reference kernel (a working set of a few MB, like
/// the explorer's and checkers' hash tables and vectors).
const REF_KEYS: usize = 60_000;

/// The reference kernel: hash-map inserts and probes plus a vector fill
/// and sort, the operation mix of the measured code. Its storage is
/// allocated once and reused, so the allocator state a measured call
/// leaves behind cannot change the kernel's cost; the hasher has fixed
/// keys so every process does identical work.
#[derive(Debug)]
struct Reference {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    keys: Vec<u64>,
}

impl Reference {
    fn new() -> Self {
        Reference {
            map: HashMap::with_capacity_and_hasher(REF_KEYS, BuildHasherDefault::default()),
            keys: Vec::with_capacity(REF_KEYS),
        }
    }

    fn run(&mut self) -> u64 {
        self.map.clear();
        self.keys.clear();
        let modulus = REF_KEYS as u64 * 4;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..REF_KEYS as u64 {
            x = crate::splitmix64(x);
            self.map.insert(x % modulus, i);
            self.keys.push(x);
        }
        self.keys.sort_unstable();
        self.keys
            .iter()
            .filter_map(|k| self.map.get(&(k % modulus)))
            .fold(0u64, |acc, v| acc.wrapping_add(*v))
    }

    /// Wall milliseconds of one run.
    fn time_ms(&mut self) -> f64 {
        let start = Instant::now();
        black_box(self.run());
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Interleaves reference runs with timed calls and converts the calls'
/// wall times into normalised times.
#[derive(Debug)]
pub struct Normaliser {
    /// Reference durations in ms; window `w` lies between `refs[w]` and
    /// `refs[w + 1]`.
    refs: Vec<f64>,
    last_ref: Instant,
    kernel: Reference,
}

impl Normaliser {
    /// Starts with a reference run, opening window 0.
    pub fn new() -> Self {
        let mut kernel = Reference::new();
        // The first run touches the kernel's storage for the first time.
        kernel.time_ms();
        let first = kernel.time_ms();
        Normaliser {
            refs: vec![first],
            last_ref: Instant::now(),
            kernel,
        }
    }

    /// The window the next timed call belongs to. When the current window
    /// has lasted [`REF_EVERY`], a reference run closes it first.
    pub fn window(&mut self) -> usize {
        if self.last_ref.elapsed() >= REF_EVERY {
            let ms = self.kernel.time_ms();
            self.refs.push(ms);
            self.last_ref = Instant::now();
        }
        self.refs.len() - 1
    }

    /// Closes the last window with a final reference run.
    pub fn close(&mut self) {
        let ms = self.kernel.time_ms();
        self.refs.push(ms);
    }

    /// Multiplier turning wall time measured in window `w` into normalised
    /// time. Only valid once [`close`](Self::close) has run.
    pub fn factor(&self, w: usize) -> f64 {
        REF_NOMINAL_MS / ((self.refs[w] + self.refs[w + 1]) / 2.0)
    }

    /// Every reference duration of the run, in ms (a diagnostic: it shows
    /// which host mode the run saw).
    pub fn refs(&self) -> &[f64] {
        &self.refs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let mut k = Reference::new();
        let first = k.run();
        assert_eq!(k.run(), first);
        assert_eq!(Reference::new().run(), first);
    }

    #[test]
    fn windows_share_their_bracketing_references() {
        let mut n = Normaliser::new();
        let w0 = n.window();
        assert_eq!(w0, 0, "a fresh window needs no new reference");
        std::thread::sleep(REF_EVERY);
        assert_eq!(n.window(), 1, "a full window is closed by a reference");
        n.close();
        assert_eq!(n.refs().len(), 3);
        let bracket = (n.refs()[0] + n.refs()[1]) / 2.0;
        assert_eq!(n.factor(0), REF_NOMINAL_MS / bracket);
    }
}
