//! Process counters read from `/proc/self`: CPU time, peak resident
//! set, thread and descriptor counts. Parsers are separate from the
//! file reads so they can be tested on fixed text.

/// Clock ticks per second of `utime`/`stime` in `/proc/self/stat`.
/// Linux has reported `USER_HZ = 100` to user space on every
/// architecture since 2.6; reading it properly needs `sysconf`, which
/// the standard library does not expose.
const USER_HZ: f64 = 100.0;

/// `utime + stime` in seconds from one `/proc/<pid>/stat` line.
///
/// The command name (field 2) is parenthesised and may itself hold
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`), in megabytes.
pub fn parse_status_mb(status: &str, key: &str) -> Option<f64> {
    let kb: f64 = parse_status_field(status, key)?
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A plain integer field of `/proc/<pid>/status` (e.g. `Threads`).
pub fn parse_status_count(status: &str, key: &str) -> Option<u64> {
    parse_status_field(status, key)?.parse().ok()
}

fn parse_status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(str::trim)
}

/// CPU seconds (user + system, every thread) this process has used.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_seconds(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

fn status() -> String {
    std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable on Linux")
}

/// Peak resident set size so far, in megabytes.
pub fn peak_rss_mb() -> f64 {
    parse_status_mb(&status(), "VmHWM").expect("VmHWM is present in /proc/self/status")
}

/// Threads alive in this process right now.
pub fn threads() -> u64 {
    parse_status_count(&status(), "Threads").expect("Threads is present in /proc/self/status")
}

/// File descriptors open in this process right now.
pub fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count() as u64)
        .expect("/proc/self/fd is listable on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let line = "4242 (poly) bench) x) S 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    731 269 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(line), Some(10.0));
        assert_eq!(parse_stat_cpu_seconds("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse_by_exact_key() {
        let status = "Name:\tpoly\nVmPeak:\t  300000 kB\nVmHWM:\t  112640 kB\n\
                      VmRSS:\t   90000 kB\nThreads:\t67\n";
        assert_eq!(parse_status_mb(status, "VmHWM"), Some(110.0));
        assert_eq!(parse_status_count(status, "Threads"), Some(67));
        assert_eq!(parse_status_mb(status, "VmSwap"), None);
        // A prefix of a longer key must not match it.
        assert_eq!(parse_status_mb(status, "Vm"), None);
    }

    #[test]
    fn live_readers_return_plausible_values() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.5);
        assert!(threads() >= 1);
        assert!(open_fds() >= 3);
    }
}
