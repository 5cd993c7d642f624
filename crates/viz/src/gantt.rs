//! ASCII Gantt charts of parallel schedules.

use std::fmt::Write as _;
use treesched_core::Schedule;
use treesched_model::TaskTree;

/// Rendering options for [`gantt`].
#[derive(Clone, Copy, Debug)]
pub struct GanttOptions {
    /// Total character width of the time axis.
    pub width: usize,
    /// Print task ids inside their bars when they fit.
    pub label_tasks: bool,
}

impl Default for GanttOptions {
    fn default() -> Self {
        GanttOptions {
            width: 72,
            label_tasks: true,
        }
    }
}

/// Renders `schedule` as an ASCII Gantt chart: one row per processor, time
/// left to right, `#`-filled bars labeled with task ids where space
/// permits.
///
/// ```
/// use treesched_model::TaskTree;
/// use treesched_core::{Platform, Request, SchedulerRegistry};
/// use treesched_viz::{gantt, GanttOptions};
///
/// let tree = TaskTree::fork(4, 1.0, 1.0, 0.0);
/// let req = Request::new(&tree, Platform::new(2));
/// let registry = SchedulerRegistry::standard();
/// let out = registry.get("deepest").unwrap().schedule_once(&req).unwrap();
/// let chart = gantt(&tree, &out.schedule, GanttOptions::default());
/// assert!(chart.contains("p0 |"));
/// ```
pub fn gantt(tree: &TaskTree, schedule: &Schedule, opts: GanttOptions) -> String {
    let makespan = schedule.makespan();
    let width = opts.width.max(10);
    let scale = if makespan > 0.0 {
        width as f64 / makespan
    } else {
        1.0
    };
    let procs = schedule.processors as usize;
    let mut rows: Vec<Vec<char>> = vec![vec![' '; width]; procs];

    // draw bars per task, later tasks overwrite nothing (validated
    // schedules don't overlap per processor)
    let mut tasks: Vec<_> = tree.ids().collect();
    tasks.sort_by(|&a, &b| {
        schedule
            .placement(a)
            .start
            .total_cmp(&schedule.placement(b).start)
    });
    for id in tasks {
        let pl = schedule.placement(id);
        let c0 = ((pl.start * scale).floor() as usize).min(width - 1);
        let c1 = ((pl.finish * scale).ceil() as usize).clamp(c0 + 1, width);
        let row = &mut rows[pl.proc as usize];
        for cell in row.iter_mut().take(c1).skip(c0) {
            *cell = '#';
        }
        if opts.label_tasks {
            let label = id.index().to_string();
            if label.len() <= c1 - c0 {
                for (k, ch) in label.chars().enumerate() {
                    row[c0 + k] = ch;
                }
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Gantt chart: {} tasks, {} processors, makespan {:.3}",
        tree.len(),
        schedule.processors,
        makespan
    );
    for (p, row) in rows.iter().enumerate() {
        let line: String = row.iter().collect();
        let _ = writeln!(out, "p{p} |{}|", line);
    }
    // time axis
    let _ = writeln!(
        out,
        "   0{}{:.1}",
        " ".repeat(width.saturating_sub(6)),
        makespan
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesched_core::{Platform, Request, SchedulerRegistry};
    use treesched_model::TaskTree;

    /// The registry scheduler `name`'s schedule of `tree` on `p` processors.
    fn schedule(name: &str, tree: &TaskTree, p: u32) -> Schedule {
        let req = Request::new(tree, Platform::new(p));
        let registry = SchedulerRegistry::standard();
        registry
            .get(name)
            .unwrap()
            .schedule_once(&req)
            .unwrap()
            .schedule
    }

    #[test]
    fn rows_match_processors() {
        let t = TaskTree::fork(6, 1.0, 1.0, 0.0);
        let s = schedule("ParDeepestFirst", &t, 3);
        let g = gantt(&t, &s, GanttOptions::default());
        assert!(g.contains("p0 |"));
        assert!(g.contains("p1 |"));
        assert!(g.contains("p2 |"));
        assert!(!g.contains("p3 |"));
        assert!(g.contains("makespan 3.000"));
    }

    #[test]
    fn busy_processor_is_filled() {
        let t = TaskTree::chain(5, 1.0, 1.0, 0.0);
        let s = schedule("ParSubtrees", &t, 1);
        let g = gantt(
            &t,
            &s,
            GanttOptions {
                width: 20,
                label_tasks: false,
            },
        );
        let p0 = g.lines().find(|l| l.starts_with("p0 |")).unwrap();
        // a chain keeps the single processor fully busy
        let bar: String = p0.chars().skip(4).take(20).collect();
        assert!(bar.chars().all(|c| c == '#'), "{bar:?}");
    }

    #[test]
    fn labels_appear_when_requested() {
        let t = TaskTree::chain(3, 5.0, 1.0, 0.0);
        let s = schedule("ParSubtrees", &t, 1);
        let g = gantt(
            &t,
            &s,
            GanttOptions {
                width: 30,
                label_tasks: true,
            },
        );
        assert!(g.contains('2')); // leaf id drawn inside its bar
        let g2 = gantt(
            &t,
            &s,
            GanttOptions {
                width: 30,
                label_tasks: false,
            },
        );
        assert!(!g2.lines().any(|l| l.starts_with("p0") && l.contains('2')));
    }

    #[test]
    fn zero_width_is_clamped() {
        let t = TaskTree::chain(2, 1.0, 1.0, 0.0);
        let s = schedule("ParSubtrees", &t, 1);
        let g = gantt(
            &t,
            &s,
            GanttOptions {
                width: 0,
                label_tasks: false,
            },
        );
        assert!(g.contains("p0 |"));
    }
}
