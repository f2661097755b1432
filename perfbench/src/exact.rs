//! `exact_n2`: a proved n = 2 model check, its CTMC cross-check, and the
//! exact `S(t)` by uniformization.
//!
//! `Checker::check` explores 153 753 micro-step markings and 770 316
//! transitions of the DD model with two platoons of up to two vehicles,
//! `cross_validate` re-derives the 97 917 stable states through
//! `ahs-ctmc`, and `StateSpace::explore` + `transient_distribution` give
//! the exact `S(t)` at 2, 6 and 10 h. Working set: hundreds of MB of
//! markings and hash tables in `check`, `ctmc` and `san`. It never runs
//! the SSA kernel or the service, so a kernel change must leave
//! `answer_s` (check + cross-check + exact `S(t)`) unchanged. The model
//! has no random input: the seed does not change the work. A small
//! companion pass (traced runs of the other workloads) runs the same
//! calls on the n = 1 model.

use ahs_check::{
    cross_validate, property_status, CheckConfig, Checker, PropertyKind, PropertyStatus,
};
use ahs_core::{AhsModel, Params, Strategy};
use ahs_ctmc::{transient_distribution, SanMarkovModel, StateSpace};
use ahs_san::{PlaceId, SanModel};

use crate::stats::median;
use crate::trace::SpanId;
use crate::{host, setup, Ctx, Report, Size};

/// Pinned sizes of the DD model (see `docs/model-checking.md`): micro-step
/// states, transitions and stable (CTMC) states at n = 2 and n = 1.
struct Pinned {
    states: usize,
    transitions: usize,
    stable: usize,
}
const N2: Pinned = Pinned {
    states: 153_753,
    transitions: 770_316,
    stable: 97_917,
};
const N1: Pinned = Pinned {
    states: 209,
    transitions: 1_330,
    stable: 191,
};
const MAX_STATES: usize = 1 << 19;
const INSTANTS: [(f64, &str); 3] = [(2.0, "2"), (6.0, "6"), (10.0, "10")];

/// Wall times of one exact pass, per layer call.
struct Pass {
    total_s: f64,
    check_s: f64,
    cross_s: f64,
    explore_s: f64,
    transient_s: Vec<f64>,
    states: usize,
    transitions: usize,
    stable: usize,
}

pub fn run(ctx: &Ctx, size: Size) -> Report {
    let mut report = Report::default();
    let tracer = &ctx.tracer;
    let root = tracer.begin("bench.exact_n2", None, None);
    let (n, pinned) = match size {
        Size::Full => (2, &N2),
        Size::Small => (1, &N1),
    };
    let params = Params::builder()
        .n(n)
        .strategy(Strategy::Dd)
        .build()
        .expect("n = 1 and n = 2 parameters are valid");
    let build_s = match setup::burst(tracer, root.0, &params) {
        Ok((_, secs)) => secs,
        Err(e) => {
            report.check(false, || format!("building the n={n} model: {e}"));
            return report;
        }
    };
    report.layer("core.build_s", build_s, "s");
    let (san, handles) = AhsModel::build(&params)
        .expect("the model built above")
        .into_san();

    // Untraced runs repeat the pass while another still fits in
    // `seconds` (at least once) and report the median, sampling set-up
    // on the other core meanwhile; traced runs need one pass only.
    let mut timed = || {
        let clock = std::time::Instant::now();
        let mut passes: Vec<Pass> = Vec::new();
        while passes.is_empty()
            || (!tracer.enabled()
                && clock.elapsed().as_secs_f64() + passes[passes.len() - 1].total_s < ctx.seconds)
        {
            passes.push(pass(
                ctx,
                &mut report,
                &san,
                handles.ko_total,
                pinned,
                root.0,
            )?);
        }
        Some(passes)
    };
    let passes = if tracer.enabled() {
        timed()
    } else {
        let (passes, setup_s) = setup::sample_during(&params, || true, timed);
        match setup_s {
            Ok(secs) => report.e2e("setup_s", secs, "s"),
            Err(e) => report.check(false, || format!("set-up sampling: {e}")),
        }
        passes
    };
    let Some(passes) = passes else {
        return report;
    };
    let totals: Vec<f64> = passes.iter().map(|p| p.total_s).collect();
    report.e2e("answer_s", median(&totals).expect("one pass ran"), "s");
    if let Some(rss) = host::peak_rss_mb("self") {
        report.e2e("peak_rss_mb", rss, "MiB");
    }
    let p = &passes[0];
    report.layer("check.check_s", p.check_s, "s");
    report.layer("check.states", p.states as f64, "count");
    report.layer("check.transitions", p.transitions as f64, "count");
    report.layer("check.states_per_s", p.states as f64 / p.check_s, "1/s");
    report.layer("check.cross_validate_s", p.cross_s, "s");
    report.layer("ctmc.explore_s", p.explore_s, "s");
    report.layer("ctmc.states", p.stable as f64, "count");
    for ((_, label), secs) in INSTANTS.iter().zip(&p.transient_s) {
        report.layer(&format!("ctmc.transient_s.{label}"), *secs, "s");
    }
    tracer.end(root);
    report
}

/// One proved check, cross-check and exact `S(t)`, each gated; `None`
/// when a step could not produce the input of the next.
fn pass(
    ctx: &Ctx,
    report: &mut Report,
    san: &SanModel,
    ko: PlaceId,
    pinned: &Pinned,
    parent: SpanId,
) -> Option<Pass> {
    let tracer = &ctx.tracer;
    let exact = tracer.begin("bench.exact", parent, None);
    let config = CheckConfig::ahs();
    let (outcome, check_s) = tracer.span("check.check", exact.0, |_| {
        Checker::with_config(config.clone()).check(san)
    });
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            report.check(false, || format!("model check: {e}"));
            return None;
        }
    };
    let (states, transitions) = (outcome.graph.len(), outcome.graph.num_edges());
    let statuses: Vec<PropertyStatus> = PropertyKind::all()
        .into_iter()
        .map(|p| property_status(&outcome, &config, p))
        .collect();
    report.check(
        outcome.proved()
            && statuses.iter().all(|s| *s == PropertyStatus::Proved)
            && states == pinned.states
            && transitions == pinned.transitions,
        || format!("check: {statuses:?}, {states} states, {transitions} transitions"),
    );

    let (cross, cross_s) = tracer.span("check.cross_validate", exact.0, |_| {
        cross_validate(san, &outcome.graph, MAX_STATES)
    });
    match cross {
        Ok(c) => report.check(c.matches() && c.ctmc_states == pinned.stable, || {
            format!("cross-check: {c:?}")
        }),
        Err(e) => report.check(false, || format!("cross-check: {e}")),
    }
    drop(outcome);

    let (space, explore_s) = tracer.span("ctmc.explore", exact.0, |_| {
        SanMarkovModel::new(san).and_then(|adapter| StateSpace::explore(&adapter, MAX_STATES))
    });
    let space = match space {
        Ok(space) => space,
        Err(e) => {
            report.check(false, || format!("ctmc exploration: {e}"));
            return None;
        }
    };
    let mut unsafety = Vec::new();
    let mut transient_s = Vec::new();
    for (t, _) in INSTANTS {
        let (s, secs) = tracer.span("ctmc.transient", exact.0, |_| {
            let pi = transient_distribution(&space, t, 1e-12);
            space.probability(&pi, |m| m.is_marked(ko))
        });
        unsafety.push(s);
        transient_s.push(secs);
    }
    let total_s = tracer.end(exact);
    report.check(
        space.len() == pinned.stable
            && unsafety.iter().all(|&s| s > 0.0 && s < 1.0)
            && unsafety.windows(2).all(|w| w[0] < w[1]),
        || format!("exact S(t) {unsafety:?} over {} states", space.len()),
    );
    Some(Pass {
        total_s,
        check_s,
        cross_s,
        explore_s,
        transient_s,
        states,
        transitions,
        stable: space.len(),
    })
}
