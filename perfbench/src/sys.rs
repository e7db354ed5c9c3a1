//! Process accounting read from `/proc`, and the order statistics the
//! metrics are reported with.

/// Total on-CPU time, in nanoseconds, of every live thread of process
/// `pid` (`"self"` for this process), summed from the per-thread
/// `schedstat` counters. Callers read it while the threads they care
/// about are alive: the time of a thread that has exited is not counted.
pub fn cpu_ns(pid: &str) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("reading {dir}: {e}"))?;
    let mut total = 0u64;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let ns = text
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("malformed {}", path.display()))?;
        total += ns;
    }
    Ok(total)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in bytes.
pub fn peak_rss_bytes(pid: &str) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb * 1024)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// For samples taken round-robin over `groups` inputs (sample `i` from
/// input `i % groups`): the mean over inputs of each input's median. The
/// median drops a stalled run; the mean over inputs moves smoothly with the
/// mix of inputs, where a plain median would jump between their clusters.
pub fn mean_of_medians(samples: &[f64], groups: usize) -> f64 {
    let groups = groups.clamp(1, samples.len().max(1));
    let per_input: Vec<f64> = (0..groups)
        .map(|g| {
            median(
                &samples
                    .iter()
                    .skip(g)
                    .step_by(groups)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    per_input.iter().sum::<f64>() / groups as f64
}

/// Nearest-rank quantile `q` (in `(0, 1]`) of unsorted samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Seconds as a `Duration` (negative values clamp to zero).
pub fn secs(s: f64) -> std::time::Duration {
    std::time::Duration::from_secs_f64(s.max(0.0))
}

/// Takes `n` samples of `f`, at least `gap` apart. Throughput on a shared
/// host changes with what its other tenants run, in episodes of seconds;
/// samples spread over several episodes give a median that does not flip
/// with one of them.
pub fn spaced<E>(
    n: usize,
    gap: std::time::Duration,
    mut f: impl FnMut(usize) -> Result<f64, E>,
) -> Result<Vec<f64>, E> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let started = std::time::Instant::now();
        out.push(f(i)?);
        if i + 1 < n {
            std::thread::sleep(gap.saturating_sub(started.elapsed()));
        }
    }
    Ok(out)
}

/// FNV-1a over a stream of 64-bit words: the digest printed for results
/// that must repeat bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}
