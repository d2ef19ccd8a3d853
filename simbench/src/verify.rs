//! The `verify` workload: one round runs the default adversarial
//! `cdna-fuzz` campaign, a bounded `cdna-model` exploration and a
//! `cdna-check` scan of this tree, all on one worker.
//!
//! Each tool reaches a layer no other workload does: the fuzz campaign
//! drives the protection engine's reject and fault paths, the model
//! explorer rebuilds a world for every short schedule (so
//! `SystemWorld::build` dominates it), and the scan is the only
//! workload for the static checker.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cdna_check::rules::classify;
use cdna_check::{analyze_jobs, check_repo_jobs, SourceFile};
use cdna_fuzz::{run_campaign, CampaignConfig};
use cdna_model::{default_matrix, explore, ExploreConfig};
use cdna_sim::Simulation;
use cdna_system::SystemWorld;

use crate::spans::Spans;
use crate::{closed_loop, median, ms, p10, tail, Outcome};

/// Simulated window of every model schedule, in microseconds.
pub const MODEL_WINDOW_US: u64 = 1000;

/// Schedules explored per model cell.
pub const MODEL_SCHEDULES: u64 = 300;

/// The model cells: the standard 8-cell matrix at `seed`, bounded to
/// [`MODEL_SCHEDULES`] schedules each.
pub fn model_cells(seed: u64) -> Vec<ExploreConfig> {
    let mut cells = default_matrix(MODEL_WINDOW_US, MODEL_SCHEDULES, 64, 2000);
    for c in &mut cells {
        c.cfg.seed = seed;
    }
    cells
}

/// The default campaign at `seed`, on one worker.
pub fn fuzz_config(seed: u64) -> CampaignConfig {
    CampaignConfig::new(seed)
}

/// The tree the scan reads: the checkout this benchmark was built in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The scanned sources, loaded once so the analysis can be timed apart
/// from file I/O.
#[derive(Debug, Default)]
pub struct Sources {
    /// Classified `.rs` files.
    pub files: Vec<SourceFile>,
    /// `(relative path, text)` of every manifest.
    pub manifests: Vec<(String, String)>,
}

impl Sources {
    /// Reads the same files `check_repo_jobs` scans under `root`.
    pub fn load(root: &Path) -> std::io::Result<Sources> {
        let mut dirs = vec![root.to_path_buf()];
        let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crates.sort();
        dirs.extend(crates);
        let mut out = Sources::default();
        let mut rs = Vec::new();
        for d in &dirs {
            let manifest = d.join("Cargo.toml");
            if manifest.is_file() {
                out.manifests
                    .push((rel(root, &manifest), std::fs::read_to_string(&manifest)?));
            }
            for sub in ["src", "tests", "examples"] {
                collect_rs(&d.join(sub), &mut rs)?;
            }
        }
        rs.sort();
        for path in rs {
            let rel = rel(root, &path);
            if let Some(kind) = classify(&rel) {
                let text = std::fs::read_to_string(&path)?;
                out.files.push(SourceFile { rel, kind, text });
            }
        }
        Ok(out)
    }

    /// Thousands of source lines.
    pub fn kloc(&self) -> f64 {
        self.files
            .iter()
            .map(|f| f.text.lines().count())
            .sum::<usize>() as f64
            / 1e3
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect_rs(&p, out)?;
            }
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Host-time samples per tool call, in milliseconds.
#[derive(Debug, Default)]
struct Samples {
    fuzz: Vec<f64>,
    cells: Vec<Vec<f64>>,
    check: Vec<f64>,
}

impl Samples {
    fn new(cells: usize) -> Self {
        Samples {
            cells: vec![Vec::new(); cells],
            ..Samples::default()
        }
    }

    /// Sum over the cells of `stat` of each cell's exploration times.
    fn model_ms(&self, stat: fn(&[f64]) -> f64) -> f64 {
        self.cells.iter().map(|c| stat(c)).sum()
    }

    /// One round: `stat` of each tool call's times, summed.
    fn unit_ms(&self, stat: fn(&[f64]) -> f64) -> f64 {
        stat(&self.fuzz) + self.model_ms(stat) + stat(&self.check)
    }
}

/// Runs the workload for `budget`.
///
/// The closed loop steps through the round's tool calls one at a time —
/// the campaign, each model cell, the scan — and every figure is built
/// from per-call statistics (the 10th percentile end to end, the median
/// per layer), so a host hiccup during one call moves only that call's
/// samples.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut out = Outcome {
        traced: trace,
        ..Outcome::default()
    };
    let root_dir = repo_root();
    let sources = match Sources::load(&root_dir) {
        Ok(s) => s,
        Err(e) => {
            out.gate.record(vec![format!(
                "cannot read the tree at {}: {e}",
                root_dir.display()
            )]);
            return out;
        }
    };
    let kloc = sources.kloc();
    let cells = model_cells(seed);
    let fuzz_cfg = fuzz_config(seed);
    let cell_sim_s = MODEL_SCHEDULES as f64 * MODEL_WINDOW_US as f64 / 1e6;
    let steps = cells.len() as u64 + 2;

    let mut spans = Spans::new(100_000);
    let root = spans.open("verify", 0, Instant::now());
    let (mut untraced, mut traced) = (Samples::new(cells.len()), Samples::new(cells.len()));
    let mut setup: Vec<[Vec<f64>; 3]> = vec![Default::default(); cells.len()];
    let mut analysis = Vec::new();
    let mut fuzz_counts = [0.0f64; 4];
    let mut model_counts = vec![(0u64, 0u64); cells.len()];

    closed_loop(budget, if trace { 2 * steps } else { steps }, |i| {
        let traced_unit = trace && (i / steps) % 2 == 1;
        let mut problems = Vec::new();
        let step = (i % steps) as usize;
        let start = Instant::now();
        // (span name, host ms of the timed call, cell set-up timings)
        let (name, call_ms, cell_setup) = if step == 0 {
            let camp = run_campaign(&fuzz_cfg);
            let call_ms = ms(start.elapsed());
            if !camp.isolated() {
                problems.push("fuzz: the campaign broke isolation".to_string());
            }
            out.gate.pin(&mut problems, "fuzz", &camp.report_json());
            fuzz_counts = [
                camp.episodes_run as f64,
                camp.interactions as f64,
                camp.attacker_faults as f64,
                camp.coverage_points() as f64,
            ];
            ("fuzz", Some(call_ms), None)
        } else if step <= cells.len() {
            let c = step - 1;
            // Set-up alone first: host time to the cell's first simulated
            // event, which every explored schedule pays again.
            let mut sim = Simulation::new(SystemWorld::build(cells[c].cfg.clone()));
            let built = Instant::now();
            for (at, e) in sim.world_mut().prime() {
                sim.schedule(at, e);
            }
            let primed = Instant::now();
            drop(sim);
            let cell_setup = [
                (primed - start).as_secs_f64(),
                ms(built - start),
                ms(primed - built),
            ];
            let t = Instant::now();
            let e = explore(&cells[c]);
            let call_ms = ms(t.elapsed());
            if e.violations != 0 {
                problems.push(format!(
                    "model {}: {} violations: {:?}",
                    e.label, e.violations, e.sample
                ));
            }
            model_counts[c] = (e.schedules, e.events);
            out.gate.pin(
                &mut problems,
                &format!("model {}", e.label),
                &format!("{e:?}"),
            );
            ("model.cell", Some(call_ms), Some(cell_setup))
        } else {
            let mut call_ms = None;
            match check_repo_jobs(&root_dir, Some(1)) {
                Ok(report) => {
                    call_ms = Some(ms(start.elapsed()));
                    if report.files_scanned == 0 {
                        problems.push("check: scanned no files".to_string());
                    }
                    let summary =
                        format!("{} files, {:?}", report.files_scanned, report.diagnostics);
                    out.gate.pin(&mut problems, "check", &summary);
                }
                Err(e) => problems.push(format!("check: {e}")),
            }
            let t = Instant::now();
            let a = analyze_jobs(&sources.files, &sources.manifests, 1);
            if !traced_unit {
                analysis.push(ms(t.elapsed()));
            }
            out.gate
                .pin(&mut problems, "analysis", &format!("{:?}", a.diagnostics));
            ("check", call_ms, None)
        };
        if traced_unit {
            spans.record(name, root, start, Instant::now());
        }
        out.gate.record(problems);

        let samples = if traced_unit {
            &mut traced
        } else {
            &mut untraced
        };
        let series = match step {
            0 => &mut samples.fuzz,
            s if s <= cells.len() => &mut samples.cells[s - 1],
            _ => &mut samples.check,
        };
        series.extend(call_ms);
        if let (Some([total_s, build_ms, prime_ms]), false) = (cell_setup, traced_unit) {
            let c = step - 1;
            setup[c][0].push(total_s);
            setup[c][1].push(build_ms);
            setup[c][2].push(prime_ms);
        }
    });
    spans.close(root, Instant::now());

    let model_sim_s = cell_sim_s * cells.len() as f64;
    let model_ms = untraced.model_ms(median);
    let host_ms = untraced.model_ms(p10) / model_sim_s;
    // Slices are model cells; each is taken relative to its own cell's
    // 10th percentile so that the eight cells' different costs pool into
    // one distribution, and the tail scales the end-to-end figure by it.
    let ratios: Vec<f64> = untraced
        .cells
        .iter()
        .flat_map(|c| {
            let base = p10(c);
            c.iter().map(move |x| x / base)
        })
        .collect();
    let (tail_pct, tail_ratio) = tail(&ratios);
    out.notes.push(format!(
        "{} model-cell slices of {cell_sim_s} simulated s; tail is p{tail_pct}; {kloc:.1} kloc scanned",
        ratios.len()
    ));
    let v = &mut out.values;
    if !trace {
        let setup_s = setup.iter().map(|s| p10(&s[0])).sum::<f64>() / cells.len() as f64;
        v.insert("setup_s", setup_s);
        v.insert("host_ms_per_sim_s", host_ms);
        v.insert("unit_ms", untraced.unit_ms(p10));
        v.insert("peak_rss_mib", crate::peak_rss_mib());
        return out;
    }
    let [episodes, interactions, attacker_faults, coverage] = fuzz_counts;
    let schedules = model_counts.iter().map(|c| c.0).sum::<u64>() as f64;
    let events = model_counts.iter().map(|c| c.1).sum::<u64>() as f64;
    let mean_of_medians =
        |k: usize| setup.iter().map(|s| median(&s[k])).sum::<f64>() / cells.len() as f64;
    v.insert("sim.events_per_sim_s", events / model_sim_s);
    v.insert("sim.events_per_s", events / (model_ms / 1e3));
    v.insert("host_ms_per_sim_s_tail", host_ms * tail_ratio);
    v.insert("sim.slices", ratios.len() as f64);
    v.insert("sim.tail_pct", tail_pct);
    v.insert("system.build_ms", mean_of_medians(1));
    v.insert("system.prime_ms", mean_of_medians(2));
    v.insert(
        "fuzz_ms_per_episode",
        median(&untraced.fuzz) / episodes.max(1.0),
    );
    v.insert("fuzz.episodes", episodes);
    v.insert("fuzz.interactions", interactions);
    v.insert("fuzz.attacker_faults", attacker_faults);
    v.insert("fuzz.coverage_points", coverage);
    v.insert("model_us_per_schedule", model_ms * 1e3 / schedules.max(1.0));
    v.insert("model.schedules", schedules);
    v.insert("model.events", events);
    let static_ms = median(&untraced.check);
    v.insert("check_ms_per_kloc", static_ms / kloc.max(f64::MIN_POSITIVE));
    v.insert("check.kloc", kloc);
    v.insert("check.static_ms", static_ms);
    v.insert("check.analysis_ms", median(&analysis));
    v.insert(
        "trace.overhead_pct",
        100.0 * (traced.unit_ms(median) / untraced.unit_ms(median) - 1.0),
    );
    match spans.write("verify") {
        Ok(path) => out
            .notes
            .push(format!("trace: {path} ({} spans)", spans.spans().len())),
        Err(e) => out.notes.push(format!("trace not written: {e}")),
    }
    out
}
