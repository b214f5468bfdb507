//! Host-side measurement helpers: process CPU time, peak RSS, the
//! simulation digest, medians, and the in-memory span recorder used by
//! the traced run.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, in
/// nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a 64-bit over `bytes`, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Mean of `v`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of no samples");
    v.iter().sum::<f64>() / v.len() as f64
}

/// Median of `v` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// One recorded span: a call into a layer, timed on the host.
#[derive(Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder. Spans nest through an explicit stack, so
/// each one knows the span that caused it; nothing is written until
/// [`Tracer::to_json`] at exit.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; returns its result and the
    /// span's duration in seconds.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].end_ns = self.now_ns();
        let secs = (spans[id].end_ns - spans[id].start_ns) as f64 / 1e9;
        (out, secs)
    }

    /// Each span's self time in nanoseconds: its duration minus what
    /// its children cover.
    fn self_ns(spans: &[Span]) -> Vec<u64> {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Total seconds, self seconds and count per span name, in order of
    /// first appearance.
    pub fn self_times(&self) -> Vec<(String, f64, f64, usize)> {
        let spans = self.spans.borrow();
        let own_ns = Self::self_ns(&spans);
        let mut by_name: Vec<(String, f64, f64, usize)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let total = (s.end_ns - s.start_ns) as f64 / 1e9;
            let own = own_ns[i] as f64 / 1e9;
            match by_name.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += total;
                    e.2 += own;
                    e.3 += 1;
                }
                None => by_name.push((s.name.clone(), total, own, 1)),
            }
        }
        by_name
    }

    /// Every span as a Chrome `trace_event` document (complete events,
    /// microsecond timestamps), with its id, parent and self time in
    /// `args`; loadable in Perfetto.
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let own_ns = Self::self_ns(&spans);
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                dur as f64 / 1e3,
                own_ns[i] as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
