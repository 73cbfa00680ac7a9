//! Per-application execution profiling.
//!
//! Applications accumulate one [`AppProfile`] per run: modeled time split
//! by communication primitive plus PE kernel time — exactly the
//! decomposition of the paper's Fig. 13 — along with the full cost-category
//! breakdown used for Fig. 4.
//!
//! The run driver (`driver.rs`) is its only writer and counts committed
//! steps only, in execution order. A committed report carries its
//! collective's own recovery surcharges; failed step attempts show only
//! in `ResilientRun::modeled_ns`.

use pidcomm::{CommReport, Primitive};
use pim_sim::Breakdown;

/// Accumulated profile of one application run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Application name.
    pub name: String,
    /// Dataset / configuration label.
    pub dataset: String,
    /// Modeled time per primitive, indexed by [`Primitive::ALL`] order.
    pub per_primitive: [f64; 8],
    /// Modeled PE kernel time (including launch overheads).
    pub kernel_ns: f64,
    /// Full cost-category breakdown of all communication.
    pub comm: Breakdown,
}

impl AppProfile {
    /// Creates an empty profile.
    pub fn new(name: impl Into<String>, dataset: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            dataset: dataset.into(),
            per_primitive: [0.0; 8],
            kernel_ns: 0.0,
            comm: Breakdown::new(),
        }
    }

    /// Records one collective call.
    pub fn record(&mut self, report: &CommReport) {
        let idx = Primitive::ALL
            .iter()
            .position(|&p| p == report.primitive)
            .expect("primitive in ALL");
        self.per_primitive[idx] += report.time_ns();
        self.comm += report.breakdown;
    }

    /// Records a PE kernel invocation (launch + parallel execution).
    pub fn record_kernel(&mut self, ns: f64) {
        self.kernel_ns += ns;
    }

    /// Total communication time across all primitives.
    pub fn comm_ns(&self) -> f64 {
        self.per_primitive.iter().sum()
    }

    /// Total modeled run time (communication + kernels).
    pub fn total_ns(&self) -> f64 {
        self.comm_ns() + self.kernel_ns
    }

    /// Time recorded for one primitive.
    pub fn primitive_ns(&self, p: Primitive) -> f64 {
        let idx = Primitive::ALL.iter().position(|&q| q == p).unwrap();
        self.per_primitive[idx]
    }

    /// Formats the Fig. 13-style row: per-primitive shares plus kernel.
    pub fn table_row(&self) -> String {
        let mut s = format!(
            "{:<12} {:<8} total {:>9.2} ms |",
            self.name,
            self.dataset,
            self.total_ns() / 1e6
        );
        for (i, p) in Primitive::ALL.iter().enumerate() {
            if self.per_primitive[i] > 0.0 {
                s.push_str(&format!(
                    " {} {:.2}ms",
                    p.abbrev(),
                    self.per_primitive[i] / 1e6
                ));
            }
        }
        s.push_str(&format!(" | kernel {:.2}ms", self.kernel_ns / 1e6));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pidcomm::OptLevel;
    use pim_sim::Category;

    fn report(p: Primitive, ns: f64) -> CommReport {
        let mut b = Breakdown::new();
        b.charge(Category::PeMemAccess, ns);
        CommReport {
            primitive: p,
            opt: OptLevel::Full,
            breakdown: b,
            bytes_in: 1,
            bytes_out: 1,
            group_size: 8,
            num_groups: 1,
        }
    }

    #[test]
    fn accumulates_per_primitive() {
        let mut prof = AppProfile::new("test", "ds");
        prof.record(&report(Primitive::AlltoAll, 10.0));
        prof.record(&report(Primitive::AlltoAll, 5.0));
        prof.record(&report(Primitive::Reduce, 2.0));
        prof.record_kernel(100.0);
        assert_eq!(prof.primitive_ns(Primitive::AlltoAll), 15.0);
        assert_eq!(prof.primitive_ns(Primitive::Reduce), 2.0);
        assert_eq!(prof.comm_ns(), 17.0);
        assert_eq!(prof.total_ns(), 117.0);
        assert!(prof.table_row().contains("AA"));
    }
}
