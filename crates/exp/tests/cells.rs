//! A kind's cell enumeration is what runs: for one tiny fixture per
//! simulated kind, the `experiment` events `run_spec` emits are
//! `plan().cells` in order, the report counts as many, and every file
//! written is a planned output. And `validate()` sees each cell's setting
//! as it will run — fault model and demand shift attached.

use std::path::{Path, PathBuf};

use impatience_exp::{run_spec, ExecContext, ExpError, Registry, Spec};
use impatience_obs::{Event, Progress, Recorder, Sink, TallySink};

/// Keeps the labels of the cells closed and drops the rest: a
/// `MemorySink` would hold every contact of a conference trace replayed
/// eighteen times (~300 MB in a debug build).
#[derive(Default)]
struct CellsClosed {
    spec: String,
    cells: Vec<String>,
}

impl Sink for CellsClosed {
    type Trial = TallySink;

    fn record(&mut self, event: &Event) {
        if let Event::ExperimentDone { spec, cell, .. } = event {
            assert_eq!(spec, &self.spec);
            self.cells.push(cell.clone());
        }
    }

    fn splice(&mut self, _trial: TallySink) {}
}

fn fixtures() -> Registry {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/cli/specs");
    Registry::load_dir(&dir).expect("the fixture specs load")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exp-cells-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `spec` and hold what happened to what `plan()` said would.
fn runs_its_plan(spec: &Spec) {
    let plan = spec.plan().expect("plan");
    spec.validate().expect("validate");
    let out_dir = scratch(&spec.name);
    let mut rec = Recorder::new(CellsClosed {
        spec: spec.name.clone(),
        cells: Vec::new(),
    });
    let mut ctx = ExecContext {
        out_dir: out_dir.clone(),
        checkpoint_dir: None,
        workers: Some(1),
        cli_args: Vec::new(),
        quiet: true,
        rec: &mut rec,
        progress: Progress::disabled(),
    };
    let report = run_spec(spec, &mut ctx).expect("run_spec");
    let _ = std::fs::remove_dir_all(&out_dir);

    let closed = &rec.sink().cells;
    assert_eq!(
        closed, &plan.cells,
        "{}: cells closed vs planned",
        spec.name
    );
    assert_eq!(report.cells, plan.cells.len(), "{}", spec.name);
    assert!(report.skipped.is_empty(), "{:?}", report.skipped);
    let written: Vec<String> = report
        .artifacts
        .iter()
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        written, plan.outputs,
        "{}: files written vs planned",
        spec.name
    );
}

#[test]
fn every_simulated_kind_runs_the_cells_it_lists() {
    let registry = fixtures();
    let mut kinds = Vec::new();
    for spec in registry.all().iter().filter(|s| s.name.starts_with("tiny")) {
        runs_its_plan(spec);
        kinds.push(spec.kind.name());
    }
    kinds.sort_unstable();
    assert_eq!(
        kinds,
        [
            "degraded",
            "dynamic_demand",
            "eviction",
            "loss_sweep",
            "mandate_routing",
            "qcr_ablation",
            "trace_suite"
        ]
    );
}

/// The simulator's own message, from a cell's setting as it would run.
fn refusal(spec: &Spec) -> String {
    match spec.validate() {
        Err(ExpError::Config { source, .. }) => source.to_string(),
        other => panic!("{}: expected a config error, got {other:?}", spec.name),
    }
}

#[test]
fn validate_sees_the_fault_model_a_cell_attaches() {
    let registry = fixtures();
    let bad = registry.by_names(&["bad_degraded".to_string()]).unwrap()[0];
    // It lists: the enumeration itself runs nothing and refuses nothing.
    assert_eq!(bad.plan().unwrap().cells[1], "drop_p=0.995");
    let message = refusal(bad);
    assert!(
        message.contains("drop probability 0.995 exceeds"),
        "{message}"
    );
}

#[test]
fn validate_sees_the_demand_shift_a_cell_attaches() {
    let registry = fixtures();
    let tiny = registry.by_names(&["tiny_dynamic".to_string()]).unwrap()[0];
    let text = tiny.raw.replace("duration = 300.0", "duration = -300.0");
    assert_ne!(text, tiny.raw);
    let spec = Spec::parse(&text, &tiny.path).expect("a negative duration still parses");
    let message = refusal(&spec);
    assert!(
        message.contains("shift times must be finite and ≥ 0"),
        "{message}"
    );
}

/// A committed spec under `experiments/`, with one replacement.
fn committed_with(file: &str, from: &str, to: &str) -> Spec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../experiments")
        .join(file);
    let committed = Spec::load(&path).expect("the committed spec loads");
    let text = committed.raw.replace(from, to);
    assert_ne!(text, committed.raw);
    Spec::parse(&text, &path).expect("the edited spec still parses")
}

/// ρ = 0 leaves nothing to place: refused at validate, not by a panic in
/// every trial.
#[test]
fn validate_refuses_a_zero_cache() {
    let spec = committed_with("fig4.toml", "\nrho = 5\n", "\nrho = 0\n");
    let message = refusal(&spec);
    assert!(message.contains("ρ must be at least 1"), "{message}");
}

/// An analytic kind's own message, from what its core constructors would
/// assert on. It still lists: the refusal is `validate`'s alone.
fn analytic_refusal(spec: &Spec) -> String {
    assert_eq!(spec.plan().expect("it still plans").cells.len(), 1);
    match spec.validate() {
        Err(ExpError::Spec { message, .. }) => message,
        other => panic!("{}: expected a spec error, got {other:?}", spec.name),
    }
}

#[test]
fn validate_refuses_a_mixed_catalog_without_contacts() {
    let spec = committed_with("ext_mixed_catalog.toml", "mu = 0.05", "mu = 0.0");
    let message = analytic_refusal(&spec);
    assert!(
        message.contains("mu must be positive and finite"),
        "{message}"
    );
}

#[test]
fn validate_refuses_an_empty_mixed_catalog() {
    let spec = committed_with("ext_mixed_catalog.toml", "items = 50", "items = 0");
    let message = analytic_refusal(&spec);
    assert!(message.contains("items must be at least 1"), "{message}");
}

#[test]
fn validate_refuses_an_alpha_the_power_family_has_not() {
    let spec = committed_with(
        "fig2.toml",
        "alpha_tenths_max = 18",
        "alpha_tenths_max = 20",
    );
    let message = analytic_refusal(&spec);
    assert!(
        message.contains("alpha_tenths_max must be below 20"),
        "{message}"
    );
}
