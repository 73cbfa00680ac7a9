//! The thread budget: one rule for resolving a `threads` request, shared
//! by every layer that fans out through [`super::hostkernel::par_pes_with`].

/// The machine's automatic thread budget: the `PIDCOMM_THREADS`
/// environment variable if set, otherwise the available parallelism.
///
/// Exported (as `pidcomm::auto_threads`) so every layer that fans out —
/// the engine's cluster fan-out, the multi-host fan-out and the figure
/// harness's sweep pool — resolves it by one set of rules.
pub fn auto_threads() -> usize {
    std::env::var("PIDCOMM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Resolves a thread-count request: `0` means auto ([`auto_threads`]),
/// and the result is clamped to the number of work items.
pub(crate) fn effective_threads(requested: usize, work_items: usize) -> usize {
    let t = if requested == 0 {
        auto_threads()
    } else {
        requested
    };
    t.clamp(1, work_items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(1, 100), 1);
        assert_eq!(effective_threads(8, 0), 1);
        assert!(effective_threads(0, 64) >= 1);
    }
}
