//! Property-based robustness tests: randomly generated `SanBuilder`
//! models either build (and lint to a finite, internally consistent
//! report) or fail with a typed [`SanError`] — the toolchain never
//! panics on model-shaped input.

use ahs_lint::{LintConfig, Linter, Severity};
use ahs_san::{Delay, SanBuilder, SanError, SanModel};
use proptest::prelude::*;

/// Deterministic structure source so a single `u64` seed describes a
/// whole model (the vendored rng is reserved for execution semantics).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Builds a random small SAN: 2–5 simple places, 1–4 timed activities
/// with assorted delay kinds, case splits whose constant sums are
/// sometimes wrong, and occasional gates with or without accurate
/// `touches` declarations. Every closure is total, so any failure must
/// surface as a typed error or a diagnostic — never a panic.
fn random_model(seed: u64, strict: bool) -> Result<SanModel, SanError> {
    let mut r = Lcg(seed ^ 0x9e3779b97f4a7c15);
    let mut b = SanBuilder::new("random");
    if strict {
        b.validate_strict();
    }

    let n_places = 2 + r.below(4) as usize;
    let places: Vec<_> = (0..n_places)
        .map(|i| {
            b.place_with_tokens(&format!("p{i}"), r.below(3))
                .expect("fresh names cannot clash")
        })
        .collect();
    let pick = {
        let places = places.clone();
        move |r: &mut Lcg| places[r.below(n_places as u64) as usize]
    };

    let n_acts = 1 + r.below(4) as usize;
    for i in 0..n_acts {
        let delay = match r.below(4) {
            0 => Delay::exponential(0.5 + r.below(10) as f64),
            1 => Delay::exponential(1.0 + r.below(3) as f64),
            2 => {
                let p = pick(&mut r);
                Delay::exponential_fn(move |m| m.tokens(p) as f64 + 0.5)
            }
            _ => Delay::exponential(1.0),
        };
        let mut ab = b.timed_activity(&format!("a{i}"), delay)?;
        if r.below(4) > 0 {
            // Most activities have an input arc; the rest are
            // always-enabled (a structure warning, not a panic).
            ab = ab.input_place(pick(&mut r));
        }
        if r.below(2) == 0 {
            // Two constant cases with independent probabilities: the
            // sum is frequently wrong, which must be a typed error.
            let p = r.below(11) as f64 / 10.0;
            let q = r.below(11) as f64 / 10.0;
            ab = ab
                .case(p)
                .output_place(pick(&mut r))
                .case(q)
                .output_place(pick(&mut r));
        } else {
            ab = ab.output_place(pick(&mut r));
        }
        ab.build()?;
    }

    if r.below(2) == 0 {
        // A gated instantaneous activity; the gate declaration is
        // deliberately wrong half the time.
        let watched = pick(&mut r);
        let bumped = pick(&mut r);
        let honest = r.below(2) == 0;
        let declared = if honest {
            vec![watched, bumped]
        } else {
            vec![watched]
        };
        let gate = b.input_gate_touching(
            "guard",
            declared,
            move |m| m.tokens(watched) == 1,
            move |m| m.add_tokens(bumped, 1),
        );
        b.instant_activity("inst", 1, 1.0)?
            .input_place(pick(&mut r))
            .input_gate(gate)
            .output_place(pick(&mut r))
            .build()?;
    }
    b.build()
}

/// A linter tuned for many small runs.
fn linter() -> Linter {
    Linter::with_config(LintConfig {
        max_states: 256,
        max_samples: 64,
        ..LintConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_models_build_and_lint_without_panicking(seed in any::<u64>()) {
        match random_model(seed, false) {
            Err(_) => {} // typed SanError: acceptable outcome
            Ok(model) => {
                let report = linter().lint(&model);
                // Exercise both renderings too — formatting must not panic.
                let _ = report.to_string();
                let _ = report.to_json();
            }
        }
    }

    #[test]
    fn reports_are_internally_consistent(seed in any::<u64>()) {
        let Ok(model) = random_model(seed, false) else { return Ok(()) };
        let report = linter().lint(&model);
        let total = report.count(Severity::Error)
            + report.count(Severity::Warning)
            + report.count(Severity::Info);
        prop_assert_eq!(total, report.diagnostics().len());
        prop_assert_eq!(report.has_errors(), report.count(Severity::Error) > 0);
        prop_assert_eq!(report.is_clean(), report.diagnostics().is_empty());
        // Ranked: severities never increase along the list.
        let sevs: Vec<_> = report.diagnostics().iter().map(|d| d.severity).collect();
        prop_assert!(sevs.windows(2).all(|w| w[0] >= w[1]));
        for d in report.diagnostics() {
            prop_assert!(ahs_lint::PASS_NAMES.contains(&d.pass));
        }
    }

    #[test]
    fn lint_clean_models_also_pass_strict_validation(seed in any::<u64>()) {
        // The builder's strict checks are a subset of the lint passes
        // (restricted to the initial marking), so a model with zero
        // findings must also build strictly.
        let Ok(model) = random_model(seed, false) else { return Ok(()) };
        if linter().lint(&model).is_clean() {
            prop_assert!(random_model(seed, true).is_ok());
        }
    }

    #[test]
    fn strict_builds_never_panic(seed in any::<u64>()) {
        match random_model(seed, true) {
            Ok(model) => prop_assert!(!model.name().is_empty()),
            Err(SanError::StrictValidation { diagnostics, .. }) => {
                prop_assert!(!diagnostics.is_empty());
            }
            Err(_) => {} // other typed builder error
        }
    }
}
