//! Execution policy: where acquisition work runs, never what it computes.
//!
//! The iTDR engine fans independent work items (ETS points × averaging
//! repeats, hub lanes, ROC trials) across CPU cores. Every parallel path
//! in this crate is written so that scheduling is *observationally
//! irrelevant*: each work item derives its own RNG stream from a stable
//! `(seed, index)` pair, so [`ExecPolicy::Serial`] and
//! [`ExecPolicy::Parallel`] produce bitwise-identical results. The
//! `parallel_equivalence` integration test pins this down.
//!
//! [`ExecPolicy::auto`] is parallel, with the worker count governed by
//! [`divot_dsp::par::max_threads`]: `DIVOT_THREADS=1` turns every
//! fan-out into the serial loop.
//!
//! # Example
//!
//! ```
//! use divot_core::exec::ExecPolicy;
//!
//! let out = ExecPolicy::Serial.run_indexed(4, |i| i * i);
//! assert_eq!(out, ExecPolicy::Parallel.run_indexed(4, |i| i * i));
//! ```

use divot_dsp::par;

/// How a fan-out loop should be scheduled.
///
/// The policy only chooses *where* each work item runs; both variants
/// compute exactly the same thing (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Run every work item on the calling thread, in index order.
    Serial,
    /// Fan work items across worker threads (see
    /// [`divot_dsp::par::max_threads`]); results still come back in
    /// index order.
    Parallel,
}

impl ExecPolicy {
    /// The ambient policy: parallel, over as many threads as
    /// [`divot_dsp::par::max_threads`] allows (`DIVOT_THREADS=1` runs
    /// every fan-out serially). Tests that need a specific policy pass
    /// it explicitly.
    pub fn auto() -> Self {
        ExecPolicy::Parallel
    }

    /// A short human-readable label (`"serial"` / `"parallel"`) for bench
    /// output.
    pub fn label(self) -> &'static str {
        match self {
            ExecPolicy::Serial => "serial",
            ExecPolicy::Parallel => "parallel",
        }
    }

    /// Compute `f(i)` for `i in 0..n`, returning results in index order.
    pub fn run_indexed<T, F>(self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.note_run();
        match self {
            ExecPolicy::Serial => (0..n).map(f).collect(),
            ExecPolicy::Parallel => par::par_map_indexed(n, f),
        }
    }

    /// Count this fan-out under `exec.serial.runs` / `exec.parallel.runs`
    /// in the process-wide telemetry (no-op when none is installed).
    /// Once per fan-out, never per item.
    fn note_run(self) {
        match self {
            ExecPolicy::Serial => divot_telemetry::inc("exec.serial.runs"),
            ExecPolicy::Parallel => divot_telemetry::inc("exec.parallel.runs"),
        }
    }

    /// Run `f(index, &mut item)` over every item, returning results in
    /// item order.
    pub fn run_mut<A, T, F>(self, items: &mut [A], f: F) -> Vec<T>
    where
        A: Send,
        T: Send,
        F: Fn(usize, &mut A) -> T + Sync,
    {
        self.note_run();
        match self {
            ExecPolicy::Serial => items.iter_mut().enumerate().map(|(i, a)| f(i, a)).collect(),
            ExecPolicy::Parallel => par::par_map_mut(items, f),
        }
    }

    /// Run `f(index, &mut a, &mut b)` over two equal-length slices in
    /// lock step, returning results in item order.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn run_zip_mut<A, B, T, F>(self, a: &mut [A], b: &mut [B], f: F) -> Vec<T>
    where
        A: Send,
        B: Send,
        T: Send,
        F: Fn(usize, &mut A, &mut B) -> T + Sync,
    {
        self.note_run();
        match self {
            ExecPolicy::Serial => {
                assert_eq!(a.len(), b.len(), "zipped slices must match in length");
                a.iter_mut()
                    .zip(b.iter_mut())
                    .enumerate()
                    .map(|(i, (x, y))| f(i, x, y))
                    .collect()
            }
            ExecPolicy::Parallel => par::par_zip_mut(a, b, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_agree_on_pure_work() {
        let work = |i: usize| {
            let mut rng = divot_dsp::rng::DivotRng::derive(7, i as u64);
            rng.normal(0.0, 1.0)
        };
        let s = ExecPolicy::Serial.run_indexed(40, work);
        let p = ExecPolicy::Parallel.run_indexed(40, work);
        for (a, b) in s.iter().zip(&p) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn run_mut_agrees_across_policies() {
        let mut a: Vec<u64> = (0..23).collect();
        let mut b = a.clone();
        let ra = ExecPolicy::Serial.run_mut(&mut a, |i, v| {
            *v += i as u64;
            *v
        });
        let rb = ExecPolicy::Parallel.run_mut(&mut b, |i, v| {
            *v += i as u64;
            *v
        });
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn labels() {
        assert_eq!(ExecPolicy::Serial.label(), "serial");
        assert_eq!(ExecPolicy::Parallel.label(), "parallel");
    }
}
