//! The contract of the parallel campaign driver: for any worker count,
//! every sweep produces **byte-identical** output to the serial path.
//!
//! Task-set seeds derive only from `(base seed, point, set)` and the
//! per-point aggregation folds evaluations in coordinate order, so the
//! acceptance ratios — and the rendered CSV bytes — cannot depend on
//! thread scheduling. These tests pin that property on reduced Figure 2(a)
//! grids and on one panel of every kind.

use rta_analysis::ScenarioSpace;
use rta_experiments::campaign::{
    self, generate_on_worker, generate_on_worker_with_count, PanelKind, PeriodFamily, SweepSpec,
};
use rta_experiments::csv::CsvSink;
use rta_experiments::exec::Jobs;
use rta_experiments::figure2::{self, SweepPoint, SweepResult};
use rta_experiments::validate::{self, ValidateOptions, ValidatePanel, ValidatePoint};
use rta_model::TaskSet;
use rta_taskgen::group1;

/// The Figure 2(a) platform and seed on a reduced grid: m = 4, 6 sets per
/// point.
fn reduced_fig2a<F>(xs: &[f64], make_set: F) -> SweepSpec<'_, F> {
    SweepSpec {
        cores: 4,
        xs,
        sets_per_point: 6,
        seed: 0xDA7E_2016,
        space: ScenarioSpace::PaperExact,
        make_set,
    }
}

/// Runs a sweep through `campaign::sweep_into`, collecting its points.
fn sweep<F>(spec: &SweepSpec<'_, F>, jobs: Jobs) -> SweepResult
where
    F: Fn(u64, f64) -> TaskSet + Sync,
{
    let mut points = Vec::new();
    campaign::sweep_into(spec, jobs, &mut |p: &SweepPoint| points.push(p.clone()));
    SweepResult {
        cores: spec.cores,
        points,
    }
}

/// The bytes the `repro` CLI writes for a sweep: every point's row
/// through a [`CsvSink`] under `header`.
fn sweep_csv(header: &[&str], points: &[SweepPoint]) -> Vec<u8> {
    let mut sink = CsvSink::new(Vec::new(), header).unwrap();
    for p in points {
        sink.row(&p.csv_cells()).unwrap();
    }
    sink.finish().unwrap()
}

/// Streams one validation panel through `run_into`, collecting its points
/// and the CSV bytes the `repro` CLI writes for them.
fn validate_panel(
    panel: ValidatePanel,
    options: &ValidateOptions,
    jobs: Jobs,
) -> (Vec<ValidatePoint>, Vec<u8>) {
    let mut sink = CsvSink::new(Vec::new(), &validate::csv_header(panel.x_label())).unwrap();
    let mut points = Vec::new();
    panel.run_into(options, jobs, &mut |p: &ValidatePoint| {
        sink.row(&p.csv_cells()).unwrap();
        points.push(p.clone());
    });
    (points, sink.finish().unwrap())
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let spec = reduced_fig2a(&[1.0, 2.0, 3.0, 4.0], |seed, u| {
        generate_on_worker(seed, &group1(u))
    });
    let header = figure2::csv_header("utilization");
    let serial = sweep(&spec, Jobs::serial());
    for jobs in [Jobs::Count(2), Jobs::Count(7), Jobs::Auto] {
        let parallel = sweep(&spec, jobs);
        assert_eq!(parallel, serial, "jobs = {jobs:?}");
        assert_eq!(
            sweep_csv(&header, &parallel.points),
            sweep_csv(&header, &serial.points),
            "CSV bytes must match for jobs = {jobs:?}"
        );
        assert_eq!(
            parallel.render("U"),
            serial.render("U"),
            "rendered table must match for jobs = {jobs:?}"
        );
    }
}

#[test]
fn task_count_variant_is_byte_identical_to_serial() {
    // 2, 4 and 6 tasks per set at the fixed total utilization m/2.
    let spec = reduced_fig2a(&[2.0, 4.0, 6.0], |seed, tasks: f64| {
        generate_on_worker_with_count(seed, &group1(2.0), tasks as usize)
    });
    let header = figure2::csv_header("tasks");
    let serial = sweep(&spec, Jobs::serial());
    let parallel = sweep(&spec, Jobs::Count(5));
    assert_eq!(parallel, serial);
    assert_eq!(
        sweep_csv(&header, &parallel.points),
        sweep_csv(&header, &serial.points)
    );
}

#[test]
fn campaign_panels_are_byte_identical_to_serial() {
    // Every sweep panel must emit the same CSV bytes for any worker count
    // — the property the golden-CSV CI gate also pins from the outside.
    // One panel of each kind: the `repro campaign` panels and the paper's.
    let build = |jobs: Jobs| {
        let mut panels = vec![(PanelKind::Deadline, 5), (PanelKind::Chains, 5)];
        panels.extend([2, 8, 16].map(|m| (PanelKind::Cores(m), 4)));
        panels.extend([
            (PanelKind::Cross(PeriodFamily::CommonScale), 4),
            (PanelKind::Figure2(8), 4),
            (PanelKind::TaskCount, 2),
            (PanelKind::Group2(4), 4),
            (PanelKind::Sensitivity(PeriodFamily::PerTaskUtilization), 4),
        ]);
        panels
            .into_iter()
            .map(|(kind, sets)| {
                let mut points = Vec::new();
                kind.run_into(sets, jobs, &mut |p: &SweepPoint| points.push(p.clone()));
                let csv = sweep_csv(&figure2::csv_header(kind.x_label()), &points);
                (kind.name(), csv)
            })
            .collect::<Vec<_>>()
    };
    let serial = build(Jobs::serial());
    for jobs in [Jobs::Count(3), Jobs::Auto] {
        let parallel = build(jobs);
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.0, s.0);
            assert_eq!(
                p.1, s.1,
                "panel {} must be byte-identical under {jobs:?}",
                p.0
            );
        }
    }
}

#[test]
fn validate_panels_are_byte_identical_to_serial() {
    // The validation campaign folds sim + analysis outcomes (including
    // floating tightness ratios) in coordinate order; any worker count
    // must emit the same CSV bytes.
    let options = ValidateOptions {
        sets_per_point: 4,
        ..ValidateOptions::default()
    };
    for panel in [ValidatePanel::Chains, ValidatePanel::Cores(2)] {
        let serial = validate_panel(panel, &options, Jobs::serial());
        for jobs in [Jobs::Count(2), Jobs::Count(3), Jobs::Auto] {
            let parallel = validate_panel(panel, &options, jobs);
            assert_eq!(parallel.0, serial.0, "{panel:?} under {jobs:?}");
            assert_eq!(parallel.1, serial.1, "{panel:?} CSV bytes under {jobs:?}");
        }
    }
}

#[test]
fn counterexample_trace_render_matches_the_committed_golden() {
    // The witness-schedule rendering of the frozen LP counterexample is a
    // pure function of frozen inputs (seeded simulation, no clocks, fixed
    // tie-breaks), so its bytes are pinned like the CSV goldens: a
    // simulator, policy or renderer change that moves the schedule must
    // show up as a reviewed golden update, never as silent drift.
    let rendered = rta_experiments::forensics::counterexample_trace(96).chart;
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../ci/golden/trace_counterexample.txt"
    );
    let golden = std::fs::read_to_string(golden_path)
        .unwrap_or_else(|e| panic!("read {golden_path}: {e} — regenerate with `repro trace`"));
    assert_eq!(
        rendered, golden,
        "trace render drifted from ci/golden/trace_counterexample.txt; \
         if the change is intended, regenerate the golden with `repro trace`"
    );
}
