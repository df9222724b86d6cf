//! The paper's cost accounting.
//!
//! Section 4.1 measures the algorithm in two charged units:
//!
//! * an **`S2` unit** — one parallel round in which every (disjoint) `PG_2`
//!   subgraph sorts its `N²` keys, costing `S2(N)` network steps;
//! * a **routing unit** — one odd-even transposition round between `PG_2`
//!   subgraphs, implemented by a permutation routing within factor copies,
//!   costing `R(N)` network steps.
//!
//! Lemma 3 and Theorem 1 are statements about how many of each unit the
//! algorithm spends: `M_k` spends `2(k-2)+1` `S2` units and `2(k-2)`
//! routing units; the full sort spends `(r-1)²` and `(r-1)(r-2)`.
//!
//! `Counters` also accumulates *work* totals (individual base-sort
//! invocations and compare-exchange operations), which sum across parallel
//! branches rather than maxing — these feed the Columnsort comparison
//! (E12), not the time bounds.

/// Instrumentation accumulated by the algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct Counters {
    /// Parallel rounds of `N²`-key base sorts (time-like: parallel
    /// invocations in the same round count once).
    pub s2_units: u64,
    /// Odd-even transposition rounds between blocks (time-like).
    pub route_units: u64,
    /// Total individual base-sort invocations (work-like: sums across
    /// parallel branches).
    pub base_sorts: u64,
    /// Total individual compare-exchange operations performed by
    /// transposition rounds (work-like).
    pub compare_exchanges: u64,
    /// Number of multiway-merge invocations, including recursive ones.
    pub merges: u64,
}

impl Counters {
    /// Zero counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Combine with a computation that ran *sequentially after* this one:
    /// all counters add.
    #[must_use]
    pub fn then(self, other: Counters) -> Counters {
        Counters {
            s2_units: self.s2_units + other.s2_units,
            route_units: self.route_units + other.route_units,
            base_sorts: self.base_sorts + other.base_sorts,
            compare_exchanges: self.compare_exchanges + other.compare_exchanges,
            merges: self.merges + other.merges,
        }
    }

    /// Combine with a computation that ran *in parallel with* this one:
    /// time-like units take the max, work-like units add.
    #[must_use]
    pub fn alongside(self, other: Counters) -> Counters {
        Counters {
            s2_units: self.s2_units.max(other.s2_units),
            route_units: self.route_units.max(other.route_units),
            base_sorts: self.base_sorts + other.base_sorts,
            compare_exchanges: self.compare_exchanges + other.compare_exchanges,
            merges: self.merges + other.merges,
        }
    }

    /// Charged time in network steps for a factor where a `PG_2` sort
    /// costs `s2` steps and a factor permutation routing costs `route`
    /// steps — the quantity bounded by Theorem 1.
    #[must_use]
    pub fn charged_time(&self, s2: u64, route: u64) -> u64 {
        self.s2_units * s2 + self.route_units * route
    }

    /// A displayable table putting these measured counters next to the
    /// Theorem 1 predictions for a full sort of `N^r` keys: `(r-1)²`
    /// `S2` units and `(r-1)(r-2)` routing units.
    #[must_use]
    pub fn versus_predicted(&self, r: usize) -> CountersVsPredicted {
        CountersVsPredicted { counters: *self, r }
    }

    /// Publish these counters into a metrics [`Registry`] under the
    /// `pns_` namespace, so algorithm-level accounting lands in the
    /// same snapshot as executor timings.
    ///
    /// [`Registry`]: pns_obs::Registry
    pub fn export_to(&self, registry: &mut pns_obs::Registry) {
        registry.set_counter("pns_alg_s2_units_total", self.s2_units);
        registry.set_counter("pns_alg_route_units_total", self.route_units);
        registry.set_counter("pns_alg_base_sorts_total", self.base_sorts);
        registry.set_counter("pns_alg_compare_exchanges_total", self.compare_exchanges);
        registry.set_counter("pns_alg_merges_total", self.merges);
    }
}

impl std::fmt::Display for Counters {
    /// Aligned two-column table of the measured units.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:<20} {:>10}", "counter", "measured")?;
        writeln!(f, "{:<20} {:>10}", "s2 units", self.s2_units)?;
        writeln!(f, "{:<20} {:>10}", "route units", self.route_units)?;
        writeln!(f, "{:<20} {:>10}", "base sorts", self.base_sorts)?;
        writeln!(
            f,
            "{:<20} {:>10}",
            "compare-exchanges", self.compare_exchanges
        )?;
        write!(f, "{:<20} {:>10}", "merges", self.merges)
    }
}

/// Cost accounting for checkpointed re-execution under faults.
///
/// When an executor retries a segment from a checkpoint, every round it
/// re-runs is *wasted* work relative to the fault-free schedule. These
/// counters separate that overhead from the useful work so experiments
/// can report step inflation as `(useful + wasted) / useful` and relate
/// it to Theorem 1's fault-free step count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryCounters {
    /// Rounds that contributed to the final committed output (each
    /// program round counted once, on its last — successful — run).
    pub useful_rounds: u64,
    /// Rounds discarded by a checkpoint restore (every round of every
    /// failed segment attempt, plus all rounds of a quarantined run).
    pub wasted_rounds: u64,
    /// Segment re-executions performed (one per checkpoint restore).
    pub retries: u64,
    /// Certificate checks that failed and triggered a restore.
    pub detections: u64,
}

impl RetryCounters {
    /// Zero counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Combine with another run's accounting: everything adds.
    #[must_use]
    pub fn then(self, other: RetryCounters) -> RetryCounters {
        RetryCounters {
            useful_rounds: self.useful_rounds + other.useful_rounds,
            wasted_rounds: self.wasted_rounds + other.wasted_rounds,
            retries: self.retries + other.retries,
            detections: self.detections + other.detections,
        }
    }

    /// Total rounds executed, useful or not.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        self.useful_rounds + self.wasted_rounds
    }

    /// Step inflation versus the fault-free schedule:
    /// `total_rounds / useful_rounds`. `1.0` means no overhead; a run
    /// with no useful rounds reports `1.0` (nothing to inflate).
    #[must_use]
    pub fn inflation(&self) -> f64 {
        if self.useful_rounds == 0 {
            1.0
        } else {
            self.total_rounds() as f64 / self.useful_rounds as f64
        }
    }

    /// Publish retry accounting into a metrics [`Registry`] under the
    /// `pns_` namespace: raw round/retry/detection totals plus the
    /// derived inflation gauge.
    ///
    /// [`Registry`]: pns_obs::Registry
    pub fn export_to(&self, registry: &mut pns_obs::Registry) {
        registry.set_counter("pns_fault_useful_rounds_total", self.useful_rounds);
        registry.set_counter("pns_fault_wasted_rounds_total", self.wasted_rounds);
        registry.set_counter("pns_fault_retries_total", self.retries);
        registry.set_counter("pns_fault_detections_total", self.detections);
        registry.set_gauge("pns_fault_step_inflation", self.inflation());
    }
}

/// [`Counters`] next to the closed-form predictions, as built by
/// [`Counters::versus_predicted`]. Time-like units carry a Theorem 1
/// prediction; work-like units have none (the theorems do not bound
/// them) and show `-`.
#[derive(Debug, Clone, Copy)]
pub struct CountersVsPredicted {
    counters: Counters,
    r: usize,
}

impl std::fmt::Display for CountersVsPredicted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.counters;
        let pred_s2 = crate::sort::predicted_s2_units(self.r);
        let pred_route = crate::sort::predicted_route_units(self.r);
        let mark = |measured: u64, predicted: u64| {
            if measured == predicted {
                "ok"
            } else {
                "MISMATCH"
            }
        };
        writeln!(
            f,
            "{:<20} {:>10} {:>10}   (Theorem 1, r = {})",
            "counter", "measured", "predicted", self.r
        )?;
        writeln!(
            f,
            "{:<20} {:>10} {:>10}   {}",
            "s2 units",
            c.s2_units,
            pred_s2,
            mark(c.s2_units, pred_s2)
        )?;
        writeln!(
            f,
            "{:<20} {:>10} {:>10}   {}",
            "route units",
            c.route_units,
            pred_route,
            mark(c.route_units, pred_route)
        )?;
        writeln!(f, "{:<20} {:>10} {:>10}", "base sorts", c.base_sorts, "-")?;
        writeln!(
            f,
            "{:<20} {:>10} {:>10}",
            "compare-exchanges", c.compare_exchanges, "-"
        )?;
        write!(f, "{:<20} {:>10} {:>10}", "merges", c.merges, "-")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(a: u64) -> Counters {
        Counters {
            s2_units: a,
            route_units: a + 1,
            base_sorts: a + 2,
            compare_exchanges: a + 3,
            merges: 1,
        }
    }

    #[test]
    fn sequential_composition_adds_everything() {
        let c = sample(2).then(sample(5));
        assert_eq!(c.s2_units, 7);
        assert_eq!(c.route_units, 9);
        assert_eq!(c.base_sorts, 11);
        assert_eq!(c.compare_exchanges, 13);
        assert_eq!(c.merges, 2);
    }

    #[test]
    fn parallel_composition_maxes_time_adds_work() {
        let c = sample(2).alongside(sample(5));
        assert_eq!(c.s2_units, 5);
        assert_eq!(c.route_units, 6);
        assert_eq!(c.base_sorts, 11);
        assert_eq!(c.compare_exchanges, 13);
    }

    #[test]
    fn charged_time_is_linear_combination() {
        let c = Counters {
            s2_units: 4,
            route_units: 2,
            ..Counters::default()
        };
        assert_eq!(c.charged_time(10, 3), 46);
    }

    #[test]
    fn display_is_an_aligned_table() {
        let shown = sample(3).to_string();
        let lines: Vec<&str> = shown.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[1].contains("s2 units"));
        assert!(lines[1].trim_end().ends_with('3'));
        // Columns align: every row is the same width.
        let widths: Vec<usize> = lines.iter().map(|l| l.trim_end().len()).collect();
        assert!(widths.iter().all(|&w| w == widths[0]), "{shown}");
    }

    #[test]
    fn retry_counters_accumulate_and_report_inflation() {
        let a = RetryCounters {
            useful_rounds: 10,
            wasted_rounds: 5,
            retries: 1,
            detections: 1,
        };
        let b = RetryCounters {
            useful_rounds: 10,
            wasted_rounds: 0,
            retries: 0,
            detections: 0,
        };
        let c = a.then(b);
        assert_eq!(c.useful_rounds, 20);
        assert_eq!(c.wasted_rounds, 5);
        assert_eq!(c.total_rounds(), 25);
        assert!((c.inflation() - 1.25).abs() < 1e-12);
        assert_eq!(RetryCounters::new().inflation(), 1.0);
    }

    #[test]
    fn versus_predicted_marks_matches_and_mismatches() {
        // r = 4: Theorem 1 predicts 9 S2 units and 6 routing units.
        let good = Counters {
            s2_units: 9,
            route_units: 6,
            ..Counters::default()
        };
        let shown = good.versus_predicted(4).to_string();
        assert!(shown.contains("r = 4"), "{shown}");
        assert!(!shown.contains("MISMATCH"), "{shown}");
        assert_eq!(shown.matches("ok").count(), 2, "{shown}");

        let bad = Counters {
            s2_units: 8,
            route_units: 6,
            ..Counters::default()
        };
        let shown = bad.versus_predicted(4).to_string();
        assert!(shown.contains("MISMATCH"), "{shown}");
    }
}
