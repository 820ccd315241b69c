//! What the numbers were measured on: stamped into every file the
//! benchmark writes, so a baseline from a one-core box cannot pass for one
//! from this two-core box.

use serde::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `nproc`, CPU model, `rustc -V`, git SHA (`unknown` outside a git
/// checkout), seed and build profile.
pub fn stamp(seed: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Value::Object(vec![
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("cpu_model".into(), Value::Str(cpu_model())),
        ("rustc".into(), Value::Str(first_line_of("rustc", &["-V"]))),
        (
            "git_sha".into(),
            Value::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".into(), Value::UInt(seed)),
        ("build_profile".into(), Value::Str(profile.into())),
    ])
}

/// Peak resident set of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The system allocator with two counters: bytes live now, and their peak
/// since the last [`CountingAlloc::reset_peak`]. The peak of live heap
/// bytes during one solve is what that solve needs; the process's
/// resident set adds whatever the allocator's arenas happen to keep, and
/// on this box wanders by 10–20 % from run to run for the same solve.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl CountingAlloc {
    // Relaxed throughout: the counters are statistics and publish no
    // other data.
    fn grew(by: usize) {
        let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        if now > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
    }

    fn shrank(by: usize) {
        LIVE.fetch_sub(by, Ordering::Relaxed);
    }

    /// Starts a new peak at the bytes live now.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    pub fn peak_mb() -> f64 {
        PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns `System`'s result; the
// counters are side effects that touch no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator returned for
        // `layout`, and every block comes from `System`.
        unsafe { System.dealloc(ptr, layout) };
        Self::shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                Self::grew(new_size - layout.size());
            } else {
                Self::shrank(layout.size() - new_size);
            }
        }
        p
    }
}
