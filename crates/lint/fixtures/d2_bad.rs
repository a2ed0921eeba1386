//! D2 violating fixture: ad-hoc parallelism outside the sweep fan-out.

use std::sync::atomic::AtomicUsize;
use std::sync::Mutex;

/// Fans work out on unsanctioned threads.
pub fn fan_out(jobs: Vec<u64>) -> u64 {
    let total = Mutex::new(0u64);
    let _progress = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for j in jobs {
            s.spawn(|| *total.lock().unwrap() += j);
        }
    });
    let out = *total.lock().unwrap();
    out
}
