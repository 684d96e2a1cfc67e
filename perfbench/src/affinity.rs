//! Pins the calling thread to one CPU with `sched_setaffinity(2)`. The
//! C library that the standard library links provides the call, so no
//! crate is needed; this is the benchmark's only `unsafe` code.

#![allow(unsafe_code)]

/// CPUs a mask can name (a glibc `cpu_set_t`).
const MASK_CPUS: usize = 1024;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread to `cpu`.
pub fn pin_current_thread(cpu: usize) -> Result<(), String> {
    if cpu >= MASK_CPUS {
        return Err(format!("CPU {cpu} is beyond the {MASK_CPUS}-CPU mask"));
    }
    let mut mask = [0u64; MASK_CPUS / 64];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` outlives the call and is exactly `cpusetsize` bytes;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "pin to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_an_allowed_cpu_and_refuses_out_of_range() {
        let cpu = std::thread::spawn(|| {
            // Pin to the first CPU this test may use.
            let allowed = std::fs::read_to_string("/proc/self/status")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("Cpus_allowed_list:"))
                        .and_then(|l| l.split(':').nth(1))
                        .and_then(|v| v.trim().split([',', '-']).next())
                        .and_then(|v| v.parse::<usize>().ok())
                })
                .expect("Cpus_allowed_list names a CPU");
            pin_current_thread(allowed).map(|()| allowed)
        })
        .join()
        .expect("no panic");
        assert!(cpu.is_ok(), "{cpu:?}");
        assert!(pin_current_thread(MASK_CPUS).is_err());
    }
}
