//! The harness's own statistics: quartiles, the tail-percentile rule,
//! span self-time accounting, and the `/proc` readers for CPU time,
//! off-CPU time and peak RSS. Pure functions over parsed text so the unit
//! tests pin every rule without touching the host.

/// Percentiles the tail rule chooses from, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
///
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's bounds are judged against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, med, q3] = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    let rank = nearest_rank(s.len(), p)?;
    Some(s[rank - 1])
}

/// The tail rule: the highest percentile in [`TAIL_LADDER`] whose
/// nearest-rank sample still has at least [`TAIL_MIN_BEYOND`] samples
/// above it. `None` when even the median has fewer beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| nearest_rank(n, p).is_some_and(|r| n - r >= TAIL_MIN_BEYOND))
}

fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    // Rounded before the ceiling so 0.95 · 20 = 19 is not read as 19.000…1.
    let exact = (p / 100.0 * n as f64 * 1e9).round() / 1e9;
    Some((exact.ceil() as usize).clamp(1, n))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Share of the measured step time that the replayed layer self-times
/// cover. Zero when nothing was measured.
pub fn accounted_frac(layer_self_ns: u64, step_ns: u64) -> f64 {
    if step_ns == 0 {
        0.0
    } else {
        layer_self_ns as f64 / step_ns as f64
    }
}

/// Self time of each span: its duration minus the part its direct
/// children cover. `spans` are `(start_ns, end_ns, parent index)`;
/// children must nest inside their parent.
pub fn self_times(spans: &[(u64, u64, Option<usize>)]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for &(s, e, parent) in spans {
        if let Some(p) = parent {
            child[p] += e.saturating_sub(s);
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(&(s, e, _), c)| e.saturating_sub(s).saturating_sub(c))
        .collect()
}

/// Clock ticks per second behind `/proc/<pid>/stat` CPU fields (`USER_HZ`,
/// fixed at 100 by the Linux user ABI).
pub const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, all threads, exited ones included) in
/// seconds, parsed from the text of `/proc/self/stat`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    // The command name may hold spaces and parentheses: fields are counted
    // from the last ')'. After it come field 3 (state) onward, so utime
    // (field 14) and stime (field 15) sit at offsets 11 and 12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Nanoseconds a thread has run on a CPU, from the text of
/// `/proc/thread-self/schedstat` (`run_ns wait_ns timeslices`).
pub fn parse_schedstat_run_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size (`VmHWM`) in MB (2^20 bytes), from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(steal, total)` clock ticks summed over all CPUs, from the aggregate
/// `cpu` line of `/proc/stat` (user nice system idle iowait irq softirq
/// steal …). Steal is time the hypervisor ran another guest.
pub fn parse_proc_stat_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (v.len() == 8).then(|| (v[7], v.iter().sum()))
}

/// Host readings taken from `/proc` (zero where the file is unreadable).
pub mod host {
    /// Process CPU time in seconds.
    pub fn cpu_s() -> f64 {
        read("/proc/self/stat")
            .and_then(|s| super::parse_stat_cpu_s(&s))
            .unwrap_or(0.0)
    }

    /// CPU time of the calling thread in nanoseconds.
    pub fn thread_run_ns() -> u64 {
        read("/proc/thread-self/schedstat")
            .and_then(|s| super::parse_schedstat_run_ns(&s))
            .unwrap_or(0)
    }

    /// Host-wide `(steal, total)` CPU ticks.
    pub fn steal_ticks() -> (u64, u64) {
        read("/proc/stat")
            .and_then(|s| super::parse_proc_stat_steal(&s))
            .unwrap_or((0, 0))
    }

    /// Peak RSS in MB.
    pub fn peak_rss_mb() -> f64 {
        read("/proc/self/status")
            .and_then(|s| super::parse_vm_hwm_mb(&s))
            .unwrap_or(0.0)
    }

    /// Hardware threads the host offers.
    pub fn threads() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    fn read(path: &str) -> Option<String> {
        std::fs::read_to_string(path).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let r = relative_iqr(&v).expect("ten values");
        assert!((r - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // The chosen sample really has ten above it.
        for n in [20usize, 57, 200, 640, 1000, 12_345] {
            let p = tail_percentile(n).expect("n >= 20");
            let r = nearest_rank(n, p).expect("valid");
            assert!(n - r >= TAIL_MIN_BEYOND, "n={n} p={p} rank={r}");
        }
    }

    #[test]
    fn percentile_is_the_nearest_rank_sample() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&v, 100.0), Some(200.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&v, 0.0), None);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ b [15,25); root ⊃ c [50,60)
        let spans = [
            (0, 100, None),
            (10, 40, Some(0)),
            (15, 25, Some(1)),
            (50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn accounted_frac_is_layer_time_over_step_time() {
        assert_eq!(accounted_frac(90, 100), 0.9);
        assert_eq!(accounted_frac(5, 0), 0.0);
    }

    #[test]
    fn parses_proc_stat_with_hostile_command_name() {
        let stat = "4242 (a b) c) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 75 0 0 20 0 3 0 \
                    12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.25));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
    }

    #[test]
    fn parses_host_steal_from_proc_stat() {
        let stat = "cpu  113203 0 11244 1047445 3599 0 716 51185 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_proc_stat_steal(stat), Some((51185, 1_227_392)));
        assert_eq!(parse_proc_stat_steal("cpu0 1 2 3\n"), None);
    }

    #[test]
    fn parses_schedstat_and_status() {
        assert_eq!(
            parse_schedstat_run_ns("123456789 2000 17\n"),
            Some(123_456_789)
        );
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mb("Name: x\n"), None);
    }
}
