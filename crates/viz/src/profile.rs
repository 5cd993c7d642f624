//! Text plots of memory profiles over time.

use std::fmt::Write as _;
use treesched_core::Schedule;
use treesched_model::TaskTree;

/// Rendering options for [`memory_profile_plot`].
#[derive(Clone, Copy, Debug)]
pub struct ProfileOptions {
    /// Character width of the time axis.
    pub width: usize,
    /// Number of rows of the plot.
    pub height: usize,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            width: 72,
            height: 12,
        }
    }
}

/// Renders the memory profile of `schedule` as a block plot: time left to
/// right, memory bottom to top, each column showing the maximum memory in
/// its time slice. A horizontal marker line can be read off the axis labels
/// (peak and zero).
pub fn memory_profile_plot(tree: &TaskTree, schedule: &Schedule, opts: ProfileOptions) -> String {
    let profile = schedule.memory_profile(tree);
    let makespan = schedule.makespan();
    let width = opts.width.max(10);
    let height = opts.height.max(3);
    let peak = profile.iter().map(|&(_, m)| m).fold(0.0, f64::max);

    // per-column maximum memory: the profile is a step function that
    // changes at event times; column c covers [c, c+1) / scale
    let mut cols = vec![0.0f64; width];
    if makespan > 0.0 && peak > 0.0 {
        let scale = width as f64 / makespan;
        for w in profile.windows(2) {
            let (t0, m) = w[0];
            let t1 = w[1].0;
            let c0 = ((t0 * scale).floor() as usize).min(width - 1);
            let c1 = ((t1 * scale).ceil() as usize).clamp(c0 + 1, width);
            for col in cols.iter_mut().take(c1).skip(c0) {
                *col = col.max(m);
            }
        }
        if let Some(&(t_last, m_last)) = profile.last() {
            let c0 = ((t_last * scale).floor() as usize).min(width - 1);
            for col in cols.iter_mut().skip(c0) {
                *col = col.max(m_last);
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Memory profile: peak {:.3} over makespan {:.3}",
        peak, makespan
    );
    for row in (0..height).rev() {
        let threshold = peak * (row as f64 + 0.5) / height as f64;
        let line: String = cols
            .iter()
            .map(|&m| if m >= threshold { '█' } else { ' ' })
            .collect();
        let label = if row == height - 1 {
            format!("{peak:>9.2}")
        } else if row == 0 {
            format!("{:>9.2}", 0.0)
        } else {
            " ".repeat(9)
        };
        let _ = writeln!(out, "{label} |{line}|");
    }
    let _ = writeln!(
        out,
        "{}0{}{makespan:.1}",
        " ".repeat(10),
        " ".repeat(width.saturating_sub(6))
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
    fn plot_mentions_peak() {
        let t = TaskTree::fork(5, 1.0, 1.0, 0.0);
        let s = schedule("ParDeepestFirst", &t, 2);
        let plot = memory_profile_plot(&t, &s, ProfileOptions::default());
        let peak = s.peak_memory(&t);
        assert!(plot.contains(&format!("peak {peak:.3}")));
        assert!(plot.contains('█'));
    }

    #[test]
    fn top_row_only_at_peak() {
        // chain: memory is flat at 2 after the first step; the top row of
        // the plot must be reached somewhere
        let t = TaskTree::chain(8, 1.0, 1.0, 0.0);
        let s = schedule("ParSubtrees", &t, 1);
        let plot = memory_profile_plot(
            &t,
            &s,
            ProfileOptions {
                width: 40,
                height: 8,
            },
        );
        let top_row = plot.lines().nth(1).unwrap();
        assert!(top_row.contains('█'));
    }

    #[test]
    fn axis_labels_present() {
        let t = TaskTree::fork(3, 1.0, 1.0, 0.0);
        let s = schedule("ParSubtrees", &t, 2);
        let plot = memory_profile_plot(
            &t,
            &s,
            ProfileOptions {
                width: 30,
                height: 5,
            },
        );
        assert!(plot.contains("0.00"));
        assert!(plot.lines().count() >= 7);
    }
}
