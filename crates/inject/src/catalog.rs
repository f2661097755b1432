//! The static failpoint catalog.
//!
//! Every failpoint the workspace evaluates is declared here, so
//! configuration can reject typos and the chaos tier
//! (`crates/des/tests/chaos.rs`) can prove it swept *every* registered
//! point rather than merely the ones someone remembered.

/// One registered failpoint: where it lives and what it supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailpointDesc {
    /// Registry name, as written in `AHS_FAILPOINTS`.
    pub name: &'static str,
    /// Crate/layer evaluating it.
    pub layer: &'static str,
    /// Actions this site interprets (every site honors `off`, `delay`,
    /// and `panic`; this lists the site-specific ones too).
    pub actions: &'static [&'static str],
    /// The operation the evaluation guards.
    pub site: &'static str,
}

/// All registered failpoints. Order is the sweep order of the chaos
/// tier and the catalog table in docs/robustness.md.
pub const CATALOG: &[FailpointDesc] = &[
    FailpointDesc {
        name: "obs::fsio::create",
        layer: "ahs-obs",
        actions: &["return(kind)"],
        site: "creating the temp file in atomic_write",
    },
    FailpointDesc {
        name: "obs::fsio::write",
        layer: "ahs-obs",
        actions: &["return(kind)", "torn-write(n)"],
        site: "writing the payload to the temp file",
    },
    FailpointDesc {
        name: "obs::fsio::sync",
        layer: "ahs-obs",
        actions: &["return(kind)"],
        site: "fsync of the temp file before publication",
    },
    FailpointDesc {
        name: "obs::fsio::rename",
        layer: "ahs-obs",
        actions: &["return(kind)"],
        site: "the rename that publishes the temp file",
    },
    FailpointDesc {
        name: "obs::fsio::dir-sync",
        layer: "ahs-obs",
        actions: &["return(kind)"],
        site: "best-effort fsync of the parent directory after rename",
    },
    FailpointDesc {
        name: "obs::progress::emit",
        layer: "ahs-obs",
        actions: &["return(kind)"],
        site: "writing one JSON-lines telemetry event to the sink",
    },
    FailpointDesc {
        name: "des::checkpoint::save",
        layer: "ahs-des",
        actions: &["return(kind)", "torn-write(n)", "corrupt-bytes(n)"],
        site: "serializing + persisting a study checkpoint",
    },
    FailpointDesc {
        name: "des::checkpoint::load",
        layer: "ahs-des",
        actions: &["return(kind)", "corrupt-bytes(n)"],
        site: "reading + parsing a checkpoint on resume",
    },
    FailpointDesc {
        name: "des::replication::body",
        layer: "ahs-des",
        actions: &["panic(msg)", "delay(ms)", "return(kind)"],
        site: "one replication body, inside catch_unwind",
    },
    FailpointDesc {
        name: "des::replication::chunk",
        layer: "ahs-des",
        actions: &["raise-interrupt", "delay(ms)"],
        site: "a worker claiming its next chunk of replications",
    },
    FailpointDesc {
        name: "des::sim::step",
        layer: "ahs-des",
        actions: &["delay(ms)", "panic(msg)"],
        site: "one event of the simulation inner loop",
    },
    FailpointDesc {
        name: "serve::accept",
        layer: "ahs-serve",
        actions: &["return(kind)", "delay(ms)", "panic(msg)"],
        site: "handing one accepted connection to its handler thread",
    },
    FailpointDesc {
        name: "serve::job::enqueue",
        layer: "ahs-serve",
        actions: &["return(kind)", "delay(ms)"],
        site: "admitting a validated job into the bounded queue",
    },
    FailpointDesc {
        name: "serve::worker::spawn",
        layer: "ahs-serve",
        actions: &["panic(msg)", "return(kind)", "delay(ms)"],
        site: "a supervised worker starting one job attempt",
    },
    FailpointDesc {
        name: "serve::response::write",
        layer: "ahs-serve",
        actions: &["return(kind)", "delay(ms)"],
        site: "writing the HTTP response for a handled request",
    },
    FailpointDesc {
        name: "serve::worker::exec",
        layer: "ahs-serve-worker",
        actions: &["return(kind)", "panic(msg)", "delay(ms)"],
        site: "starting the worker for one job attempt (a re-exec under process isolation)",
    },
    FailpointDesc {
        name: "serve::worker::heartbeat",
        layer: "ahs-serve-worker",
        actions: &["return(kind)", "delay(ms)"],
        site: "one heartbeat write of a running job attempt",
    },
    FailpointDesc {
        name: "serve::worker::reap",
        layer: "ahs-serve-worker",
        actions: &["return(kind)", "delay(ms)"],
        site: "reaping an ended attempt and reading its outcome document",
    },
];

/// The full catalog, in sweep order.
pub fn catalog() -> &'static [FailpointDesc] {
    CATALOG
}

/// Whether `name` is a registered failpoint.
pub fn is_registered(name: &str) -> bool {
    CATALOG.iter().any(|fp| fp.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_namespaced() {
        let mut seen = std::collections::HashSet::new();
        for fp in catalog() {
            assert!(seen.insert(fp.name), "duplicate failpoint {}", fp.name);
            assert!(
                fp.name.contains("::"),
                "failpoint {} should be layer-namespaced",
                fp.name
            );
            assert!(!fp.actions.is_empty());
            assert!(is_registered(fp.name));
        }
        assert!(!is_registered("obs::fsio::"));
    }
}
