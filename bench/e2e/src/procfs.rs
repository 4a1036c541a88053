//! Process accounting read from `/proc/self`: CPU seconds and peak
//! resident set. Parsers take the file text so they can be tested.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI Rust targets.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/self/stat`.
///
/// The second field (`comm`) may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`: `utime` and `stime` are
/// fields 14 and 15 of the line, i.e. 12 and 13 after the command name.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set (`VmHWM`) in MB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds this process (all threads) has consumed so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_seconds(&stat).expect("utime and stime in /proc/self/stat")
}

/// Peak resident set of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_mb(&status).expect("VmHWM in /proc/self/status")
}

/// Host cache sizes as `/sys` reports them for cpu0, e.g. `L1d 32K, L2 1M`.
/// Informational only; `unknown` where the sandbox hides them.
pub fn host_caches() -> String {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        let suffix = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{}{} {}", level.trim(), suffix, size.trim()));
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_survive_a_hostile_command_name() {
        // comm = "a) b (c" — spaces and parentheses inside the name.
        let stat = "4242 (a) b (c) R 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    1357 246 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(16.03));
        assert_eq!(parse_cpu_seconds("no parenthesis here"), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_reported_in_megabytes() {
        let status =
            "Name:\tqcdoc-e2e\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
