//! Work done before timing starts (trace generation, the durable-trace
//! round-trip, compilation, enumeration), and the timed pass loop.
//!
//! Set-up and the timed pass are measured in CPU seconds of the whole
//! process. On a host shared with other tenants, wall-clock also counts the
//! time the scheduler gives this process's cores to someone else: two sets
//! of runs of the same code on a 2-core VM differed by up to a third in
//! wall-clock. The pass's wall-clock is still recorded, as a per-layer
//! metric.

use std::time::Instant;

use dmm_core::trace::{decode_trace, encode_trace, CompiledTrace, Trace};

use crate::stats::median;
use crate::Res;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("cpu_s() reads the CPU clock through the 64-bit Linux `struct timespec`");

/// CPU time the process has used so far, every thread included, s.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` has the layout of `struct timespec` on 64-bit
    // Linux (two 64-bit integers; other targets do not compile), and `ts`
    // is valid and writable for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU times of one set-up, by layer, s.
#[derive(Debug, Clone, Default)]
pub struct SetupParts {
    /// The whole set-up; from `fastest_parts`, the sum over steps of each
    /// step's fastest time.
    pub total_s: f64,
    pub record_s: f64,
    pub decode_s: f64,
    pub compile_s: f64,
    pub enumerate_s: f64,
    pub events: usize,
    /// Each step in order: one trace prepared, or one enumeration.
    pub steps: Vec<f64>,
}

impl SetupParts {
    /// Record one enumeration of the space.
    pub fn enumerated(&mut self, secs: f64) {
        self.enumerate_s += secs;
        self.steps.push(secs);
    }
}

/// A generated trace after its round-trip through the durable store, and
/// its compiled form.
#[derive(Debug)]
pub struct Prepared {
    pub name: String,
    pub trace: Trace,
    pub compiled: CompiledTrace,
}

/// Generate a trace, send it through `encode_trace` → `decode_trace` (the
/// path `dmm --trace=FILE` reads), require the decoded trace to equal the
/// recorded one, and compile it.
pub fn prepare(
    name: String,
    generate: impl FnOnce() -> Res<Trace>,
    parts: &mut SetupParts,
) -> Res<Prepared> {
    let start = cpu_s();
    let t = start;
    let recorded = generate()?;
    parts.record_s += cpu_s() - t;
    let bytes = encode_trace(&recorded);
    let t = cpu_s();
    let trace = crate::lib(decode_trace(&bytes))?;
    parts.decode_s += cpu_s() - t;
    if trace != recorded {
        return Err(format!(
            "{name}: decoded trace differs from the recorded one"
        ));
    }
    let t = cpu_s();
    let compiled = CompiledTrace::compile(&trace);
    parts.compile_s += cpu_s() - t;
    parts.events += trace.len();
    parts.steps.push(cpu_s() - start);
    Ok(Prepared {
        name,
        trace,
        compiled,
    })
}

/// Set up once, timing each part.
pub fn set_up<T>(setup: impl FnOnce(&mut SetupParts) -> Res<T>) -> Res<(T, SetupParts)> {
    let mut parts = SetupParts::default();
    let t = cpu_s();
    let made = setup(&mut parts)?;
    parts.total_s = cpu_s() - t;
    Ok((made, parts))
}

/// Each part's fastest time over several set-ups; the total is the sum
/// over steps of each step's fastest time, as the timed pass is the sum
/// over units.
pub fn fastest_parts(first: &SetupParts, more: &[SetupParts]) -> SetupParts {
    let all: Vec<&SetupParts> = std::iter::once(first).chain(more).collect();
    let min = |f: fn(&SetupParts) -> f64| all.iter().map(|p| f(p)).fold(f64::INFINITY, f64::min);
    let steps: Vec<f64> = (0..first.steps.len())
        .map(|i| all.iter().map(|p| p.steps[i]).fold(f64::INFINITY, f64::min))
        .collect();
    SetupParts {
        total_s: steps.iter().sum(),
        record_s: min(|p| p.record_s),
        decode_s: min(|p| p.decode_s),
        compile_s: min(|p| p.compile_s),
        enumerate_s: min(|p| p.enumerate_s),
        events: first.events,
        steps,
    }
}

/// The timed loop: every unit once per round, round after round, for
/// about `seconds` (at least one round, and no round that the median so far
/// says would end past the deadline). Rounds interleave the repetitions of
/// each unit, so a slow spell of the host rarely covers all of them.
///
/// Between rounds the loop also repeats the set-up, `setups` times in all,
/// evenly over the run. The host switches between a fast and a slow state
/// (a 14 ms set-up took 8 ms or 14.5 ms, in stretches of seconds, on a
/// 2-core Xeon VM): set-ups run back to back before the loop all met the
/// same state, and their median moved by a third from one run to the
/// next.
#[derive(Debug)]
pub struct Rounds<T> {
    /// Each unit's result from the first round.
    pub first: Vec<T>,
    /// `wall[unit][round]`, s.
    pub wall: Vec<Vec<f64>>,
    /// `cpu[unit][round]`, s.
    pub cpu: Vec<Vec<f64>>,
    /// The repeated set-ups.
    pub setups: Vec<SetupParts>,
}

/// The sum over units of each unit's fastest repetition.
fn fastest_sum(times: &[Vec<f64>]) -> f64 {
    times
        .iter()
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
        .sum()
}

impl<T> Rounds<T> {
    /// The timed pass in CPU seconds.
    pub fn pass_cpu_s(&self) -> f64 {
        fastest_sum(&self.cpu)
    }

    /// The timed pass in wall-clock seconds.
    pub fn pass_wall_s(&self) -> f64 {
        fastest_sum(&self.wall)
    }

    /// Wall-clock of each round, s.
    pub fn round_s(&self) -> Vec<f64> {
        let rounds = self.wall.first().map_or(0, Vec::len);
        (0..rounds)
            .map(|r| self.wall.iter().map(|t| t[r]).sum())
            .collect()
    }
}

/// Run the timed loop over `units` units, and `setup` `setups` times. A
/// repetition whose result `same` finds different from the unit's first
/// result is an error: the program under test must be deterministic.
pub fn rounds<T>(
    seconds: u64,
    units: usize,
    mut unit: impl FnMut(usize) -> T,
    same: impl Fn(&T, &T) -> bool,
    setups: usize,
    mut setup: impl FnMut() -> Res<SetupParts>,
) -> Res<Rounds<T>> {
    let budget = seconds as f64;
    let start = Instant::now();
    let mut first: Vec<T> = Vec::with_capacity(units);
    let mut wall = vec![Vec::new(); units];
    let mut cpu = vec![Vec::new(); units];
    let mut parts = Vec::with_capacity(setups);
    let mut round_s = Vec::new();
    loop {
        let round = Instant::now();
        for u in 0..units {
            let (at, c) = (Instant::now(), cpu_s());
            let r = unit(u);
            cpu[u].push(cpu_s() - c);
            wall[u].push(at.elapsed().as_secs_f64());
            match first.get(u) {
                None => first.push(r),
                Some(f) if !same(f, &r) => {
                    return Err(format!("unit {u} gave a different answer when repeated"))
                }
                Some(_) => {}
            }
        }
        round_s.push(round.elapsed().as_secs_f64());
        let elapsed = start.elapsed().as_secs_f64();
        let done = elapsed + median(&round_s) > budget;
        let due = if done {
            setups
        } else {
            (setups as f64 * elapsed / budget) as usize
        };
        while parts.len() < due.min(setups) {
            parts.push(setup()?);
        }
        if done {
            return Ok(Rounds {
                first,
                wall,
                cpu,
                setups: parts,
            });
        }
    }
}
