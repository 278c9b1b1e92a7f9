//! Execution traces and ASCII Gantt rendering.

use rta_model::Time;

/// What happened in a [`TraceEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A job of the task was released.
    Release,
    /// A node started (or resumed) on a core.
    Start,
    /// A node finished.
    Finish,
    /// A node was preempted (fully-preemptive policy only).
    Preempt,
    /// A whole job completed.
    JobComplete,
}

/// One scheduling event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time.
    pub time: Time,
    /// Task index (priority).
    pub task: usize,
    /// Job sequence number within the task.
    pub job: u64,
    /// Node index within the DAG (meaningless for `Release`/`JobComplete`).
    pub node: usize,
    /// Core the event concerns (`usize::MAX` for releases/completions).
    pub core: usize,
    /// Event kind.
    pub kind: TraceEventKind,
}

/// Options for [`Trace::chart`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChartOptions {
    /// Maximum chart width in columns; the time scale is derived from it
    /// (`1 column = ceil(span / width)` time units).
    pub width: usize,
    /// Time span to render, `0..span`. Defaults to one past the last
    /// event's time.
    pub span: Option<Time>,
    /// Relative deadline per task index — enables the `X` deadline-miss
    /// marker on completion lanes. Tasks past the end are not checked.
    pub deadlines: Vec<Time>,
}

impl Default for ChartOptions {
    fn default() -> Self {
        Self {
            width: 96,
            span: None,
            deadlines: Vec::new(),
        }
    }
}

/// A bounded execution trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Maximum number of events kept by default.
    pub const DEFAULT_CAPACITY: usize = 100_000;

    /// Creates an empty trace with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates an empty trace bounded at `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event (dropped silently once the capacity is reached,
    /// with the drop count reported by [`dropped`](Trace::dropped)).
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events discarded after the capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the trace as a deterministic ASCII Gantt chart — the
    /// counterexample-forensics view behind `repro trace`.
    ///
    /// Layout, top to bottom:
    ///
    /// * a header naming the span and the time-units-per-column scale;
    /// * one lane per core, each column showing the task that occupied the
    ///   core for the most time units within the column (ties go to the
    ///   lower task index; `.` = idle). Glyphs are the 1-based task index,
    ///   `+` past 9;
    /// * under a core lane, a marker row (only when non-empty) carrying
    ///   `^` wherever that core preempted a node in that column;
    /// * per task, a release/completion lane: `R` marks releases, `C`
    ///   completions, and `X` a completion past its absolute deadline
    ///   (release + the relative deadline supplied in
    ///   [`ChartOptions::deadlines`]). When both land in one column the
    ///   miss wins, then the release;
    /// * a footer with event totals — and, when the bounded trace dropped
    ///   events, an explicit truncation warning.
    ///
    /// The rendering depends only on the trace bytes and the options, so
    /// it is golden-pinnable: same run, same chart.
    pub fn chart(&self, cores: usize, options: &ChartOptions) -> String {
        let width = options.width.max(1);
        let span = options
            .span
            .unwrap_or_else(|| {
                self.events
                    .iter()
                    .map(|e| e.time)
                    .max()
                    .map_or(1, |t| t + 1)
            })
            .max(1);
        // 1 column = `scale` time units; the last column may be partial.
        let scale = span.div_ceil(width as Time).max(1);
        let columns = (span.div_ceil(scale) as usize).max(1);
        let col = |t: Time| ((t / scale) as usize).min(columns - 1);

        let tasks = self
            .events
            .iter()
            .map(|e| e.task + 1)
            .max()
            .unwrap_or(1)
            .max(options.deadlines.len());
        let glyph = |task: usize| match task {
            t if t < 9 => char::from_digit(t as u32 + 1, 10).unwrap_or('+'),
            _ => '+',
        };

        // Occupancy: time units each task ran per (core, column).
        let mut occupancy = vec![vec![vec![0u64; tasks]; columns]; cores];
        let mut preempts = vec![vec![false; columns]; cores];
        let mut running: Vec<Option<(Time, usize)>> = vec![None; cores];
        // Release times per (task, job) — for deadline checking — plus the
        // release/completion lanes themselves.
        let mut release_at: Vec<Vec<(u64, Time)>> = vec![Vec::new(); tasks];
        let mut lanes = vec![vec![' '; columns]; tasks];
        let mut releases = 0u64;
        let mut completions = 0u64;
        let mut preemptions = 0u64;
        let mut misses = 0u64;
        let mark = |lane: &mut [char], c: usize, ch: char| {
            // Precedence within one column: miss > release > completion.
            let rank = |ch: char| match ch {
                'X' => 3,
                'R' => 2,
                'C' => 1,
                _ => 0,
            };
            if rank(ch) > rank(lane[c]) {
                lane[c] = ch;
            }
        };

        for e in &self.events {
            match e.kind {
                TraceEventKind::Start if e.core < cores => {
                    running[e.core] = Some((e.time, e.task));
                }
                TraceEventKind::Finish | TraceEventKind::Preempt if e.core < cores => {
                    if let Some((from, task)) = running[e.core].take() {
                        let to = e.time.min(span);
                        if task < tasks && from < to {
                            // Distribute the interval over the columns it
                            // overlaps — O(columns), not O(time units).
                            let mut t = from;
                            let mut c = col(from);
                            while t < to && c < columns {
                                let col_end = ((c as Time + 1) * scale).min(to);
                                occupancy[e.core][c][task] += col_end - t;
                                t = col_end;
                                c += 1;
                            }
                        }
                    }
                    if e.kind == TraceEventKind::Preempt {
                        preemptions += 1;
                        if e.time < span {
                            preempts[e.core][col(e.time)] = true;
                        }
                    }
                }
                TraceEventKind::Release if e.task < tasks => {
                    releases += 1;
                    release_at[e.task].push((e.job, e.time));
                    if e.time < span {
                        mark(&mut lanes[e.task], col(e.time), 'R');
                    }
                }
                TraceEventKind::JobComplete if e.task < tasks => {
                    completions += 1;
                    let released = release_at[e.task]
                        .iter()
                        .find(|&&(job, _)| job == e.job)
                        .map(|&(_, t)| t);
                    let missed = match (released, options.deadlines.get(e.task)) {
                        (Some(r), Some(&d)) => e.time > r + d,
                        _ => false,
                    };
                    if missed {
                        misses += 1;
                    }
                    if e.time < span {
                        mark(
                            &mut lanes[e.task],
                            col(e.time),
                            if missed { 'X' } else { 'C' },
                        );
                    }
                }
                _ => {}
            }
        }

        let mut out = String::new();
        out.push_str(&format!(
            "span 0..{span} ({columns} cols x {scale} time units); '.' idle, '^' preemption, \
             R release, C completion, X deadline miss\n"
        ));
        for task in 0..tasks {
            out.push_str(&format!("  task {} = '{}'", task + 1, glyph(task)));
            if let Some(&d) = options.deadlines.get(task) {
                out.push_str(&format!(" (deadline {d})"));
            }
            out.push('\n');
        }
        for core in 0..cores {
            out.push_str(&format!("core {core} |"));
            for cell in occupancy[core].iter().take(columns) {
                let best = (0..tasks)
                    .filter(|&t| cell[t] > 0)
                    .max_by_key(|&t| (cell[t], std::cmp::Reverse(t)));
                out.push(best.map_or('.', glyph));
            }
            out.push_str("|\n");
            if preempts[core].iter().any(|&p| p) {
                out.push_str("       |");
                for &preempted in preempts[core].iter().take(columns) {
                    out.push(if preempted { '^' } else { ' ' });
                }
                out.push_str("|\n");
            }
        }
        for (task, lane) in lanes.iter().enumerate() {
            out.push_str(&format!("task {} |", task + 1));
            out.extend(lane.iter());
            out.push_str("|\n");
        }
        out.push_str(&format!(
            "releases={releases} completions={completions} preemptions={preemptions} \
             deadline_misses={misses}\n"
        ));
        if self.dropped > 0 {
            out.push_str(&format!(
                "WARNING: trace truncated, {} events dropped — the chart is missing the tail\n",
                self.dropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: Time, core: usize, task: usize, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            time,
            task,
            job: 0,
            node: 0,
            core,
            kind,
        }
    }

    #[test]
    fn capacity_enforced() {
        let mut t = Trace::with_capacity(2);
        for i in 0..5 {
            t.push(ev(i, 0, 0, TraceEventKind::Release));
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    /// One column per time unit over `0..span`.
    fn unit_columns(span: Time) -> ChartOptions {
        ChartOptions {
            width: span as usize,
            span: Some(span),
            deadlines: Vec::new(),
        }
    }

    #[test]
    fn chart_paints_intervals() {
        let mut t = Trace::new();
        t.push(ev(0, 0, 0, TraceEventKind::Start));
        t.push(ev(3, 0, 0, TraceEventKind::Finish));
        t.push(ev(4, 1, 1, TraceEventKind::Start));
        t.push(ev(6, 1, 1, TraceEventKind::Finish));
        let chart = t.chart(2, &unit_columns(8));
        let lanes: Vec<&str> = chart.lines().filter(|l| l.starts_with("core")).collect();
        assert_eq!(lanes, ["core 0 |111.....|", "core 1 |....22..|"]);
    }

    #[test]
    fn chart_marks_preemption() {
        let mut t = Trace::new();
        t.push(ev(0, 0, 2, TraceEventKind::Start));
        t.push(ev(2, 0, 2, TraceEventKind::Preempt));
        t.push(ev(2, 0, 0, TraceEventKind::Start));
        t.push(ev(5, 0, 0, TraceEventKind::Finish));
        let chart = t.chart(1, &unit_columns(6));
        assert!(
            chart.contains("core 0 |33111.|\n       |  ^   |\n"),
            "{chart}"
        );
        assert!(chart.contains("preemptions=1"), "{chart}");
    }
}
