//! Aggregations of the paper's Table 1 and Figures 6–8 over campaign
//! rows, plus their text renderings.
//!
//! Scenario *execution* lives in [`crate::campaign`]: the presets
//! build a [`crate::CampaignSpec`] and run it through the
//! engine-backed [`crate::CampaignRunner`]; this module turns the
//! resulting [`Row`]s into the paper's tables and scatter crosses. The
//! campaign set is whatever the registry marks as campaign members (the
//! paper's four heuristics in
//! [`treesched_core::SchedulerRegistry::standard`]) — a newly registered
//! campaign scheduler automatically joins every table and figure. Rows
//! carry the scheduler's canonical registry name.

use crate::campaign::{CampaignRunner, CampaignSpec};
use crate::stats::{cross, mean, Cross};
use std::fmt::Write as _;
use treesched_core::SchedError;
use treesched_gen::CorpusEntry;

/// The processor counts of the paper's campaign (§6.2).
pub const PAPER_PROCS: [u32; 5] = [2, 4, 8, 16, 32];

/// One measured scenario: a scheduler on a tree at one platform point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Corpus entry name.
    pub tree: String,
    /// Number of tasks of the tree.
    pub nodes: usize,
    /// Processor count of the point (total across classes).
    pub p: u32,
    /// Platform point label (`p4`, `2x2,2x1;…`, `p8/cap1.5`) — with `p`,
    /// part of the scenario key, so a heterogeneous point never merges
    /// with a flat point of the same processor count.
    pub point: String,
    /// Sequential sub-algorithm name of the scenario (`best|naive|liu`).
    pub seq: String,
    /// Canonical registry name of the scheduler measured.
    pub scheduler: String,
    /// Achieved makespan.
    pub makespan: f64,
    /// Achieved peak memory.
    pub memory: f64,
    /// Makespan lower bound `max(W/p, CP)`.
    pub ms_lb: f64,
    /// Sequential memory reference (optimal postorder peak).
    pub mem_ref: f64,
}

/// Runs the registry's campaign schedulers on every `(tree, p)` scenario
/// through the engine-backed [`CampaignRunner`], failing on the first
/// error record. Rows come back in corpus order, one consecutive group per
/// `(tree, p)` scenario.
pub fn run_corpus(corpus: &[CorpusEntry], ps: &[u32]) -> Result<Vec<Row>, SchedError> {
    let mut spec = CampaignSpec::new("corpus").with_procs(ps);
    spec.trees = corpus.to_vec();
    CampaignRunner::new(crate::campaign::default_workers())
        .run(&spec)?
        .strict_rows()
}

/// Distinct scheduler names in first-appearance order — the selection
/// order of the `run_corpus*` call that produced `rows`.
pub fn scheduler_names(rows: &[Row]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for r in rows {
        if !names.contains(&r.scheduler) {
            names.push(r.scheduler.clone());
        }
    }
    names
}

/// One line of the paper's Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Canonical scheduler name.
    pub scheduler: String,
    /// % of scenarios where the scheduler achieves the best memory of the
    /// compared set (ties count).
    pub best_mem_pct: f64,
    /// % of scenarios within 5% of the best memory.
    pub within5_mem_pct: f64,
    /// Average deviation from the sequential memory reference, in %
    /// (`(mem / mem_ref − 1) · 100`).
    pub avg_dev_mem_pct: f64,
    /// % of scenarios achieving the best makespan of the compared set.
    pub best_ms_pct: f64,
    /// % of scenarios within 5% of the best makespan.
    pub within5_ms_pct: f64,
    /// Average deviation from the best makespan, in %.
    pub avg_dev_ms_pct: f64,
}

/// Scenario key: rows are grouped by `(tree, point, seq)` before computing
/// best-of-set statistics, so heterogeneous platform points and `--seq`
/// grid entries form their own scenarios instead of merging with the flat
/// point of the same processor count.
fn scenario_groups(rows: &[Row]) -> Vec<&[Row]> {
    // rows come in cross-product order: each group is one consecutive run
    let mut groups = Vec::new();
    let mut start = 0;
    while start < rows.len() {
        let mut end = start + 1;
        while end < rows.len()
            && rows[end].tree == rows[start].tree
            && rows[end].point == rows[start].point
            && rows[end].seq == rows[start].seq
        {
            end += 1;
        }
        groups.push(&rows[start..end]);
        start = end;
    }
    groups
}

const REL_EPS: f64 = 1e-9;

/// Aggregates [`Row`]s into the paper's Table 1, one line per scheduler
/// present in `rows`.
pub fn table1(rows: &[Row]) -> Vec<Table1Row> {
    let groups = scenario_groups(rows);
    let names = scheduler_names(rows);
    let mut out = Vec::with_capacity(names.len());
    for name in names {
        let mut best_mem = 0usize;
        let mut within5_mem = 0usize;
        let mut dev_mem = Vec::new();
        let mut best_ms = 0usize;
        let mut within5_ms = 0usize;
        let mut dev_ms = Vec::new();
        let mut n = 0usize;
        for g in &groups {
            let Some(row) = g.iter().find(|r| r.scheduler == name) else {
                continue;
            };
            let gbest_mem = g.iter().map(|r| r.memory).fold(f64::INFINITY, f64::min);
            let gbest_ms = g.iter().map(|r| r.makespan).fold(f64::INFINITY, f64::min);
            n += 1;
            if row.memory <= gbest_mem * (1.0 + REL_EPS) {
                best_mem += 1;
            }
            if row.memory <= gbest_mem * 1.05 {
                within5_mem += 1;
            }
            dev_mem.push((row.memory / row.mem_ref - 1.0) * 100.0);
            if row.makespan <= gbest_ms * (1.0 + REL_EPS) {
                best_ms += 1;
            }
            if row.makespan <= gbest_ms * 1.05 {
                within5_ms += 1;
            }
            dev_ms.push((row.makespan / gbest_ms - 1.0) * 100.0);
        }
        let pct = |c: usize| 100.0 * c as f64 / n.max(1) as f64;
        out.push(Table1Row {
            scheduler: name,
            best_mem_pct: pct(best_mem),
            within5_mem_pct: pct(within5_mem),
            avg_dev_mem_pct: mean(&dev_mem),
            best_ms_pct: pct(best_ms),
            within5_ms_pct: pct(within5_ms),
            avg_dev_ms_pct: mean(&dev_ms),
        });
    }
    out
}

/// Renders Table 1 in the paper's layout.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<18} | {:>11} {:>12} {:>14} | {:>13} {:>14} {:>13}",
        "Scheduler",
        "Best memory",
        "Within 5% of",
        "Avg. dev. from",
        "Best makespan",
        "Within 5% of",
        "Avg. dev. from"
    );
    let _ = writeln!(
        s,
        "{:<18} | {:>11} {:>12} {:>14} | {:>13} {:>14} {:>13}",
        "", "", "best memory", "seq. memory", "", "best makespan", "best makespan"
    );
    let _ = writeln!(s, "{}", "-".repeat(112));
    for r in rows {
        let _ = writeln!(
            s,
            "{:<18} | {:>10.1}% {:>11.1}% {:>13.1}% | {:>12.1}% {:>13.1}% {:>12.1}%",
            r.scheduler,
            r.best_mem_pct,
            r.within5_mem_pct,
            r.avg_dev_mem_pct,
            r.best_ms_pct,
            r.within5_ms_pct,
            r.avg_dev_ms_pct
        );
    }
    s
}

/// One figure series: a scheduler name, its scatter points, and their
/// summary cross.
pub type FigSeries = (String, Vec<(f64, f64)>, Cross);

/// Figure 6 series: per scheduler, the scatter points
/// `(makespan / ms_lb, memory / mem_ref)` and their summary cross.
pub fn fig6(rows: &[Row]) -> Vec<FigSeries> {
    scheduler_names(rows)
        .into_iter()
        .map(|name| {
            let pts: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| r.scheduler == name)
                .map(|r| (r.makespan / r.ms_lb, r.memory / r.mem_ref))
                .collect();
            let c = cross(&pts);
            (name, pts, c)
        })
        .collect()
}

/// Figures 7/8: scatter points normalized by a baseline scheduler within
/// each `(tree, p)` scenario; the baseline itself is omitted (it would be
/// the constant point `(1, 1)`).
pub fn fig_normalized(rows: &[Row], baseline: &str) -> Vec<FigSeries> {
    let groups = scenario_groups(rows);
    let mut out = Vec::new();
    for name in scheduler_names(rows) {
        if name == baseline {
            continue;
        }
        let mut pts = Vec::new();
        for g in &groups {
            let (Some(b), Some(r)) = (
                g.iter().find(|r| r.scheduler == baseline),
                g.iter().find(|r| r.scheduler == name),
            ) else {
                continue;
            };
            if b.makespan > 0.0 && b.memory > 0.0 {
                pts.push((r.makespan / b.makespan, r.memory / b.memory));
            }
        }
        let c = cross(&pts);
        out.push((name, pts, c));
    }
    out
}

/// Renders a figure's crosses as the text series the paper's plots encode.
pub fn render_crosses(title: &str, xlabel: &str, ylabel: &str, series: &[FigSeries]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = writeln!(s, "  x = {xlabel}; y = {ylabel}");
    let _ = writeln!(
        s,
        "  {:<18} {:>7} {:>17} {:>9} {:>19} {:>7}",
        "scheduler", "x-mean", "x-[p10,p90]", "y-mean", "y-[p10,p90]", "points"
    );
    for (name, pts, c) in series {
        let _ = writeln!(
            s,
            "  {:<18} {:>7.3} [{:>6.3},{:>7.3}] {:>9.3} [{:>7.3},{:>8.3}] {:>7}",
            name,
            c.x_mean,
            c.x_p10,
            c.x_p90,
            c.y_mean,
            c.y_p10,
            c.y_p90,
            pts.len()
        );
    }
    s
}

/// One summary record per Table 1 line, through the shared builder —
/// appended after the scenario records in the `table1` preset's stream.
pub fn table1_json(campaign: &str, row: &Table1Row) -> String {
    treesched_serve::JsonRecord::new()
        .str("campaign", campaign)
        .str("scheduler", &row.scheduler)
        .num("best_mem_pct", row.best_mem_pct)
        .num("within5_mem_pct", row.within5_mem_pct)
        .num("avg_dev_mem_pct", row.avg_dev_mem_pct)
        .num("best_ms_pct", row.best_ms_pct)
        .num("within5_ms_pct", row.within5_ms_pct)
        .num("avg_dev_ms_pct", row.avg_dev_ms_pct)
        .line()
}

/// One summary record per figure series (the scatter cross), through the
/// shared builder — appended after the scenario records in the figure
/// presets' streams.
pub fn cross_json(campaign: &str, series: &FigSeries) -> String {
    let (name, pts, c) = series;
    treesched_serve::JsonRecord::new()
        .str("campaign", campaign)
        .str("series", name)
        .int("points", pts.len() as u64)
        .num("x_mean", c.x_mean)
        .num("x_p10", c.x_p10)
        .num("x_p90", c.x_p90)
        .num("y_mean", c.y_mean)
        .num("y_p10", c.y_p10)
        .num("y_p90", c.y_p90)
        .line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesched_gen::{assembly_corpus, Scale};

    fn tiny_rows() -> Vec<Row> {
        let corpus = assembly_corpus(Scale::Small);
        run_corpus(&corpus[..4], &[2, 4]).expect("campaign schedulers are total")
    }

    #[test]
    fn run_corpus_produces_every_scenario() {
        let rows = tiny_rows();
        assert_eq!(rows.len(), 4 * 2 * 4); // 4 trees × 2 p × 4 campaign schedulers
        for r in &rows {
            assert!(r.makespan >= r.ms_lb - 1e-9, "{} {}", r.tree, r.scheduler);
            assert!(r.memory > 0.0);
            assert!(r.mem_ref > 0.0);
        }
    }

    #[test]
    fn rows_record_campaign_names_in_registry_order() {
        let rows = tiny_rows();
        let registry = treesched_core::SchedulerRegistry::standard();
        let campaign: Vec<String> = registry.campaign().map(|e| e.name().to_string()).collect();
        assert_eq!(scheduler_names(&rows), campaign);
        // the name→scheduler→name round trip shared with the CLI suite
        for r in &rows {
            assert_eq!(registry.get(&r.scheduler).unwrap().name(), r.scheduler);
        }
    }

    #[test]
    fn rows_are_deterministic() {
        let a = tiny_rows();
        let b = tiny_rows();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tree, y.tree);
            assert_eq!(x.scheduler, y.scheduler);
            assert_eq!(x.makespan, y.makespan);
            assert_eq!(x.memory, y.memory);
        }
    }

    #[test]
    fn table1_percentages_consistent() {
        let rows = tiny_rows();
        let t1 = table1(&rows);
        assert_eq!(t1.len(), 4);
        // at least one scheduler achieves the best in every scenario, so the
        // best-% columns sum to at least 100
        let mem_sum: f64 = t1.iter().map(|r| r.best_mem_pct).sum();
        let ms_sum: f64 = t1.iter().map(|r| r.best_ms_pct).sum();
        assert!(mem_sum >= 100.0 - 1e-9);
        assert!(ms_sum >= 100.0 - 1e-9);
        for r in &t1 {
            assert!(r.within5_mem_pct >= r.best_mem_pct - 1e-9);
            assert!(r.within5_ms_pct >= r.best_ms_pct - 1e-9);
            assert!(r.avg_dev_mem_pct >= -1e-9, "{}", r.scheduler);
            assert!(r.avg_dev_ms_pct >= -1e-9);
        }
        let rendered = render_table1(&t1);
        assert!(rendered.contains("ParSubtrees"));
        assert!(rendered.contains("ParDeepestFirst"));
    }

    #[test]
    fn fig6_ratios_at_least_one() {
        let rows = tiny_rows();
        for (name, pts, c) in fig6(&rows) {
            assert!(!pts.is_empty(), "{name}");
            for (x, y) in &pts {
                assert!(*x >= 1.0 - 1e-9, "{name}: makespan below LB");
                assert!(*y >= 0.99, "{name}: memory below sequential reference");
            }
            assert!(c.x_mean >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn normalized_baseline_excluded() {
        let rows = tiny_rows();
        let f7 = fig_normalized(&rows, "ParSubtrees");
        assert_eq!(f7.len(), 3);
        assert!(f7.iter().all(|(name, _, _)| name != "ParSubtrees"));
        let rendered = render_crosses("fig7", "ms", "mem", &f7);
        assert!(rendered.contains("ParInnerFirst"));
    }

    /// The scenario key is `(tree, point, seq)`, not `(tree, p)`: a
    /// heterogeneous point with the same total processor count (or a
    /// second `--seq` grid entry) must form its own best-of-set group
    /// instead of merging with the flat point and corrupting the
    /// percentages.
    #[test]
    fn scenario_groups_split_points_and_seqs_of_equal_p() {
        let row = |point: &str, seq: &str, scheduler: &str, makespan: f64| Row {
            tree: "t".into(),
            nodes: 10,
            p: 4,
            point: point.into(),
            seq: seq.into(),
            scheduler: scheduler.into(),
            makespan,
            memory: 10.0,
            ms_lb: 1.0,
            mem_ref: 10.0,
        };
        // the hetero point is strictly faster (more total speed); under
        // (tree, p) grouping A's flat row would never be "best"
        let rows = vec![
            row("p4", "best", "A", 10.0),
            row("p4", "best", "B", 12.0),
            row("2x2,2x1", "best", "A", 5.0),
            row("2x2,2x1", "best", "B", 6.0),
            row("p4", "liu", "A", 9.0),
            row("p4", "liu", "B", 11.0),
        ];
        let t1 = table1(&rows);
        let a = t1.iter().find(|r| r.scheduler == "A").unwrap();
        let b = t1.iter().find(|r| r.scheduler == "B").unwrap();
        assert_eq!(a.best_ms_pct, 100.0, "A wins each of its 3 scenarios");
        assert_eq!(b.best_ms_pct, 0.0);
        // fig7-style normalization pairs rows within each scenario too
        let f = fig_normalized(&rows, "A");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].1.len(), 3, "one pair per (point, seq) scenario");
        assert!(f[0].1.iter().all(|(ms, _)| *ms > 1.0));
    }
}
