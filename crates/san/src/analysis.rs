//! Structural sanity analysis of SAN models.

use std::collections::HashSet;

use crate::model::SanModel;

/// Structural statistics and warnings about a model.
///
/// Gate predicates and functions are opaque closures, so the analysis is
/// conservative: a place is reported *arc-isolated* when no arc touches
/// it even though gates may still read or write it (common for shared
/// bookkeeping places such as the paper's severity counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuralReport {
    /// Number of places.
    pub num_places: usize,
    /// Number of timed activities.
    pub num_timed: usize,
    /// Number of instantaneous activities.
    pub num_instantaneous: usize,
    /// Names of places no arc reads or writes (gates may still use
    /// them).
    pub arc_isolated_places: Vec<String>,
    /// Names of activities with neither input arcs nor input gates:
    /// once enabled they stay enabled forever (for a timed activity a
    /// self-loop source; usually a modelling mistake).
    pub always_enabled_activities: Vec<String>,
    /// Names of activities whose firing cannot change any marking
    /// through arcs (gates may still act).
    pub arc_silent_activities: Vec<String>,
}

impl StructuralReport {
    /// Whether no warnings were produced.
    pub fn is_clean(&self) -> bool {
        self.arc_isolated_places.is_empty()
            && self.always_enabled_activities.is_empty()
            && self.arc_silent_activities.is_empty()
    }
}

impl SanModel {
    /// Computes structural statistics and conservative warnings.
    pub fn analyze(&self) -> StructuralReport {
        let mut touched: HashSet<usize> = HashSet::new();
        let mut always_enabled = Vec::new();
        let mut arc_silent = Vec::new();

        for a in self.activities() {
            for (p, _) in a.input_arcs() {
                touched.insert(p.index());
            }
            let mut writes = !a.input_arcs().is_empty();
            for c in a.cases() {
                for (p, _) in c.output_arcs() {
                    touched.insert(p.index());
                    writes = true;
                }
            }
            if a.input_arcs().is_empty() && a.input_gates().is_empty() {
                always_enabled.push(a.name().to_owned());
            }
            let has_gates = !a.input_gates().is_empty()
                || a.cases().iter().any(|c| !c.output_gates().is_empty());
            if !writes && !has_gates {
                arc_silent.push(a.name().to_owned());
            }
        }

        let arc_isolated_places = self
            .places()
            .iter()
            .enumerate()
            .filter(|(i, _)| !touched.contains(i))
            .map(|(_, d)| d.name().to_owned())
            .collect();

        StructuralReport {
            num_places: self.num_places(),
            num_timed: self.timed_activities().len(),
            num_instantaneous: self.instantaneous_activities().len(),
            arc_isolated_places,
            always_enabled_activities: always_enabled,
            arc_silent_activities: arc_silent,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::SanBuilder;
    use crate::delay::Delay;

    #[test]
    fn clean_model_reports_clean() {
        let mut b = SanBuilder::new("clean");
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        b.timed_activity("a", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .output_place(q)
            .build()
            .unwrap();
        let r = b.build().unwrap().analyze();
        assert!(r.is_clean(), "unexpected warnings: {r:?}");
        assert_eq!(r.num_places, 2);
        assert_eq!(r.num_timed, 1);
        assert_eq!(r.num_instantaneous, 0);
    }

    #[test]
    fn isolated_place_detected() {
        let mut b = SanBuilder::new("iso");
        let p = b.place_with_tokens("p", 1).unwrap();
        b.place("floating").unwrap();
        b.timed_activity("a", Delay::exponential(1.0))
            .unwrap()
            .input_place(p)
            .build()
            .unwrap();
        let r = b.build().unwrap().analyze();
        assert_eq!(r.arc_isolated_places, vec!["floating".to_owned()]);
    }

    #[test]
    fn always_enabled_detected() {
        let mut b = SanBuilder::new("ae");
        let q = b.place("q").unwrap();
        b.timed_activity("source", Delay::exponential(1.0))
            .unwrap()
            .output_place(q)
            .build()
            .unwrap();
        let r = b.build().unwrap().analyze();
        assert_eq!(r.always_enabled_activities, vec!["source".to_owned()]);
        assert!(!r.is_clean());
    }

    #[test]
    fn arc_silent_detected() {
        let mut b = SanBuilder::new("silent");
        let p = b.place_with_tokens("p", 1).unwrap();
        let g = b.predicate_gate("guard", move |m| m.is_marked(p));
        b.timed_activity("noop", Delay::exponential(1.0))
            .unwrap()
            .input_gate(g)
            .build()
            .unwrap();
        let r = b.build().unwrap().analyze();
        // Gate-only activity: not arc-silent (has gates), but also not
        // always-enabled (has an input gate).
        assert!(r.arc_silent_activities.is_empty());
        assert!(r.always_enabled_activities.is_empty());
    }
}
