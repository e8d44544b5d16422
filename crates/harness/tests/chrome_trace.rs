//! Exporter contract tests: the Chrome Trace documents of a tiny plain and
//! a tiny faulted solve match committed golden files byte for byte
//! (`tests/golden/`), the export is structurally well formed (monotone
//! per-track timestamps, matched B/E pairs, counter tracks present,
//! monitoring choreography visible), and tracing never perturbs virtual
//! time.

use greenla_harness::chrome_trace::{traced_faulted_solve, traced_solve, untraced_makespan};
use greenla_harness::config::SolverChoice;
use greenla_mpi::{ColumnLoss, FaultPlan, MsgFault, MsgFaultKind};
use serde_json::Value;
use std::path::Path;

const N: usize = 64;
const RANKS: usize = 4;
const SEED: u64 = 11;

fn export() -> Value {
    traced_solve(SolverChoice::ime_optimized(), N, RANKS, SEED).trace
}

fn trace_events(doc: &Value) -> &[Value] {
    doc.get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array")
}

fn field_u64(e: &Value, key: &str) -> u64 {
    e.get(key).and_then(Value::as_u64).expect("u64 field")
}

/// Matrix order of the golden runs: small enough that each golden file
/// stays under 100 KB.
const GOLDEN_N: usize = 8;

/// A recoverable plan touching every fault instant the runtime and the
/// protocol emit on one node: a dropped-and-retried send, a duplicate, a
/// delayed message, a monitoring-rank death (the node degrades) and an
/// IMe column loss. The duplicate is rank 3's first send, the status
/// broadcast, whose receiver has no other receive outstanding: the
/// discard instant lands at the same virtual time whichever order the
/// workers run the fibers in.
fn golden_plan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        messages: vec![
            MsgFault {
                src: 1,
                nth_send: 2,
                kind: MsgFaultKind::Drop { count: 2 },
            },
            MsgFault {
                src: 3,
                nth_send: 0,
                kind: MsgFaultKind::Duplicate,
            },
            MsgFault {
                src: 2,
                nth_send: 4,
                kind: MsgFaultKind::Delay { extra_s: 2.5e-4 },
            },
        ],
        crashes: vec![],
        counters: vec![],
        monitor_deaths: vec![0],
        column_loss: Some(ColumnLoss {
            level: 2,
            column: 5,
        }),
    }
}

/// The document as committed: one trace event per line, so a drift
/// reviews as a line diff.
fn golden_text(doc: &Value) -> String {
    let lines: Vec<String> = trace_events(doc)
        .iter()
        .map(|e| serde_json::to_string(e).expect("serialise event"))
        .collect();
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        lines.join(",\n")
    )
}

/// Compare `doc` with `tests/golden/<name>`; `GREENLA_UPDATE_GOLDEN=1`
/// rewrites the file instead.
fn assert_golden(name: &str, doc: &Value) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let text = golden_text(doc);
    if std::env::var_os("GREENLA_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; run with GREENLA_UPDATE_GOLDEN=1 to create it");
    if text != golden {
        let (line, (got, want)) = text
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, pair)| (i + 1, pair))
            .unwrap_or((0, ("<length differs>", "")));
        panic!(
            "trace drifted from tests/golden/{name} at line {line}:\n  got  {got}\n  want {want}\n\
             if the change is intentional, regenerate with GREENLA_UPDATE_GOLDEN=1"
        );
    }
}

#[test]
fn export_is_deterministic_golden() {
    let traced = traced_solve(SolverChoice::ime_optimized(), GOLDEN_N, RANKS, SEED);
    assert_golden("trace_ime.json", &traced.trace);
}

#[test]
fn faulted_export_matches_golden() {
    let (traced, report) = traced_faulted_solve(
        SolverChoice::ime_optimized(),
        GOLDEN_N,
        RANKS,
        SEED,
        &golden_plan(),
    );
    assert!(
        report.injected.total() > 0,
        "the plan actually fired: {report:?}"
    );
    assert_golden("trace_ime_faulted.json", &traced.trace);
}

#[test]
fn per_track_timestamps_are_monotone() {
    let doc = export();
    let mut last: std::collections::HashMap<(u64, u64), f64> = Default::default();
    let mut span_events = 0usize;
    for e in trace_events(&doc) {
        let ph = e.get("ph").and_then(Value::as_str).unwrap();
        if !matches!(ph, "B" | "E" | "i") {
            continue;
        }
        span_events += 1;
        let key = (field_u64(e, "pid"), field_u64(e, "tid"));
        let ts = e.get("ts").and_then(Value::as_f64).unwrap();
        if let Some(&prev) = last.get(&key) {
            assert!(
                ts >= prev,
                "track {key:?}: ts went backwards ({prev} -> {ts})"
            );
        }
        last.insert(key, ts);
    }
    assert!(
        span_events > 50,
        "expected a rich trace, got {span_events} events"
    );
    assert_eq!(last.len(), RANKS, "one span track per rank");
}

#[test]
fn begin_end_pairs_match_per_track() {
    let doc = export();
    let mut stacks: std::collections::HashMap<(u64, u64), Vec<String>> = Default::default();
    for e in trace_events(&doc) {
        let ph = e.get("ph").and_then(Value::as_str).unwrap();
        let key = (
            e.get("pid").and_then(Value::as_u64).unwrap_or(0),
            e.get("tid").and_then(Value::as_u64).unwrap_or(0),
        );
        let name = e.get("name").and_then(Value::as_str).unwrap().to_string();
        match ph {
            "B" => stacks.entry(key).or_default().push(name),
            "E" => {
                let open = stacks
                    .entry(key)
                    .or_default()
                    .pop()
                    .unwrap_or_else(|| panic!("track {key:?}: E '{name}' with no open span"));
                assert_eq!(open, name, "track {key:?}: spans must nest (LIFO)");
            }
            _ => {}
        }
    }
    for (key, stack) in &stacks {
        assert!(stack.is_empty(), "track {key:?}: unclosed spans {stack:?}");
    }
}

#[test]
fn counter_tracks_are_present_and_energy_grows() {
    let doc = export();
    let energy: Vec<&Value> = trace_events(&doc)
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Value::as_str) == Some("C")
                && e.get("name").and_then(Value::as_str) == Some("energy (J)")
        })
        .collect();
    assert!(!energy.is_empty(), "energy counter track missing");
    let pkg: Vec<f64> = energy
        .iter()
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("pkg_j"))
                .and_then(Value::as_f64)
                .expect("pkg_j arg")
        })
        .collect();
    assert!(
        pkg.windows(2).all(|w| w[1] >= w[0]),
        "cumulative package energy must be non-decreasing"
    );
    assert!(*pkg.last().unwrap() > 0.0, "final energy must be positive");
    let tx = trace_events(&doc).iter().any(|e| {
        e.get("ph").and_then(Value::as_str) == Some("C")
            && e.get("name").and_then(Value::as_str) == Some("tx (bytes)")
    });
    assert!(tx, "traffic counter track missing");
}

#[test]
fn monitor_choreography_is_visible() {
    let doc = export();
    let events = trace_events(&doc);
    let count = |name: &str, ph: &str| {
        events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Value::as_str) == Some(name)
                    && e.get("ph").and_then(Value::as_str) == Some(ph)
            })
            .count()
    };
    // Every rank runs the protocol: begin / measured region / finish.
    assert_eq!(count("monitor_begin", "B"), RANKS);
    assert_eq!(count("measured_region", "B"), RANKS);
    assert_eq!(count("monitor_finish", "B"), RANKS);
    // One monitoring rank per node (4 ranks on one test node here).
    assert_eq!(count("start_monitoring", "i"), 1);
    assert_eq!(count("end_monitoring", "i"), 1);
    // Phase markers from the harness workload.
    assert_eq!(count("phase:allocation", "i"), RANKS);
    assert_eq!(count("phase:execution", "i"), RANKS);
    // Collectives show up as spans nested in the protocol.
    assert!(count("barrier", "B") >= 4 * RANKS, "barriers missing");
}

#[test]
fn overlapped_cg_trace_carries_the_halo_and_split_spmv_spans() {
    // The overlapped solver narrates each SpMV phase: post the halo,
    // compute interior rows while payloads fly, drain, finish boundary
    // rows. All four spans must reach the exporter on every rank, in
    // matched numbers — one quartet per halo exchange.
    let traced = traced_solve(SolverChoice::cg(), N, RANKS, SEED);
    let events = trace_events(&traced.trace);
    let begins = |name: &str| {
        events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Value::as_str) == Some(name)
                    && e.get("ph").and_then(Value::as_str) == Some("B")
            })
            .count()
    };
    let posts = begins("halo_post");
    assert!(
        posts >= RANKS,
        "one halo_post per rank per exchange: {posts}"
    );
    assert_eq!(begins("spmv_interior"), posts);
    assert_eq!(begins("halo_wait"), posts);
    assert_eq!(begins("spmv_boundary"), posts);
    assert_eq!(
        posts % RANKS,
        0,
        "every rank exchanges the same number of times"
    );
}

#[test]
fn tracing_does_not_change_virtual_time() {
    let traced = traced_solve(SolverChoice::ime_optimized(), N, RANKS, SEED);
    let baseline = untraced_makespan(SolverChoice::ime_optimized(), N, RANKS, SEED);
    assert_eq!(
        traced.makespan_s.to_bits(),
        baseline.to_bits(),
        "tracing must be a pure observer of the virtual clocks"
    );
    assert!(traced.event_count > 0);
}
