//! # Declarative experiment batteries: axes × metrics × reporters as data
//!
//! A [`Battery`] is an experiment described as data instead of a bespoke
//! sweep module: a list of *cell points* (the cartesian product of the
//! experiment's axes, built with [`product2`]/[`product3`]), a declared
//! [`SeedPolicy`], one pure *runner* mapping `(point, seed)` to a cell
//! outcome, and a set of declared columns/metrics. The battery owns
//! everything the experiment modules used to hand-roll:
//!
//! * the cell grid and its deterministic [`par_map`] fan-out (point-major,
//!   seeds inner — results regroup in input order, so every aggregate is
//!   bit-identical to a serial sweep);
//! * seed selection, including scope-aware thinning — a declared policy
//!   that is surfaced in the rendered table's notes and in the JSON
//!   records instead of hiding inside a helper;
//! * `Option`-aware aggregation ([`Agg`]): cells where no run produced a
//!   statistic render `n/a`, never a fake `0` or a `NaN`;
//! * per-scope grid memoization (several tables can share one expensive
//!   sweep — see [`Battery::cached`]);
//! * reporters: a rendered Markdown [`Table`] and a structured JSON
//!   record per cell ([`Battery::json`]), BENCH-style, so sweeps are
//!   machine-readable without screen-scraping tables.
//!
//! ```no_run
//! use fba_bench::battery::{product2, Agg, Battery, SeedPolicy};
//! use fba_bench::Scope;
//!
//! let battery = Battery::new(
//!     "demo",
//!     "demo — decision time per (n, delay)",
//!     |&(n, delay): &(usize, u64), seed| (n + delay as usize + seed as usize) as f64,
//! )
//! .axes(&["n", "delay"], |&(n, d)| vec![n.to_string(), d.to_string()])
//! .points(product2(&[64, 128], &[1, 4]))
//! .point_n(|&(n, _)| n)
//! .seeds(SeedPolicy::ThinAt { threshold: 4096, max: 3 })
//! .col("score", Agg::Mean, |&o| Some(o));
//! let report = battery.report(Scope::Quick);
//! println!("{}", report.table.render());
//! println!("{}", report.cells_json);
//! ```

use std::any::Any;
// paperlint: allow(D2) grid-cache lock; cells are pure (point, seed) functions, lock order invisible
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::par::par_map;
use crate::scope::{mean_opt, opt_cell, Scope};
use crate::table::Table;

mod sealed {
    //! Boxed-callback aliases shared by the builder methods.
    use super::RowCtx;
    use std::sync::Arc;

    pub type LabelFn<P> = Arc<dyn Fn(&P) -> Vec<String> + Send + Sync>;
    pub type PointFn<P> = Arc<dyn Fn(&P) -> String + Send + Sync>;
    pub type MetricFn<O> = Arc<dyn Fn(&O) -> Option<f64> + Send + Sync>;
    pub type DerivedFn<P, O> = Arc<dyn Fn(&RowCtx<'_, P, O>) -> String + Send + Sync>;
    pub type RowsFn<P, O> = Arc<dyn Fn(&RowCtx<'_, P, O>) -> Vec<Vec<String>> + Send + Sync>;
    pub type RunnerFn<P, O> = Arc<dyn Fn(&P, u64) -> O + Send + Sync>;
    pub type NFn<P> = Arc<dyn Fn(&P) -> usize + Send + Sync>;
}
use sealed::{DerivedFn, LabelFn, MetricFn, NFn, PointFn, RowsFn, RunnerFn};

/// Cartesian product of two axes, first axis outermost — the canonical
/// cell order every battery table iterates in.
#[must_use]
pub fn product2<A: Clone, B: Clone>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    a.iter()
        .flat_map(|x| b.iter().map(move |y| (x.clone(), y.clone())))
        .collect()
}

/// Cartesian product of three axes, first axis outermost.
#[must_use]
pub fn product3<A: Clone, B: Clone, C: Clone>(a: &[A], b: &[B], c: &[C]) -> Vec<(A, B, C)> {
    a.iter()
        .flat_map(|x| {
            b.iter().flat_map(move |y| {
                let x = x.clone();
                c.iter().map(move |z| (x.clone(), y.clone(), z.clone()))
            })
        })
        .collect()
}

/// How many seeds a battery runs per cell — a *declared* policy, rendered
/// into the table notes and the JSON header, replacing the silent ad-hoc
/// `take(3)` thinning the hand-rolled sweeps used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeedPolicy {
    /// The scope's full seed set for every cell.
    Scope,
    /// The scope's seed set capped at `max` seeds for every cell.
    Capped {
        /// Maximum seeds per cell.
        max: usize,
    },
    /// The scope's seed set, thinned to `max` seeds for cells whose
    /// system size reaches `threshold` (requires [`Battery::point_n`]).
    ThinAt {
        /// System size at which thinning starts.
        threshold: usize,
        /// Seeds per cell at and above the threshold.
        max: usize,
    },
    /// A fixed explicit seed list, independent of scope.
    Fixed(Vec<u64>),
}

impl SeedPolicy {
    /// The seeds one cell runs under this policy. `n` is the cell's
    /// system size when the battery declared one.
    ///
    /// # Panics
    ///
    /// Panics if the policy is [`SeedPolicy::ThinAt`] but the battery
    /// declared no per-point system size — thinning must never silently
    /// not happen.
    #[must_use]
    pub fn seeds(&self, scope: Scope, n: Option<usize>) -> Vec<u64> {
        match self {
            SeedPolicy::Scope => scope.seeds(),
            SeedPolicy::Capped { max } => scope.seeds().into_iter().take(*max).collect(),
            SeedPolicy::ThinAt { threshold, max } => {
                let n = n.expect("SeedPolicy::ThinAt requires Battery::point_n");
                let seeds = scope.seeds();
                if n >= *threshold {
                    seeds.into_iter().take(*max).collect()
                } else {
                    seeds
                }
            }
            SeedPolicy::Fixed(seeds) => seeds.clone(),
        }
    }

    /// The policy as a table-note sentence, or `None` for the default
    /// full-scope policy (nothing surprising to surface).
    #[must_use]
    pub fn describe(&self) -> Option<String> {
        match self {
            SeedPolicy::Scope => None,
            SeedPolicy::Capped { max } => Some(format!(
                "Each cell runs the scope's first {max} seed(s) (declared seed policy)."
            )),
            SeedPolicy::ThinAt { threshold, max } => Some(format!(
                "n >= {threshold} cells run {max} seeds (others the scope's full seed set)."
            )),
            SeedPolicy::Fixed(seeds) => {
                let list: Vec<String> = seeds.iter().map(ToString::to_string).collect();
                Some(format!(
                    "Fixed seed(s) {} (declared seed policy).",
                    list.join(", ")
                ))
            }
        }
    }

    /// The policy line for the JSON header (always present).
    #[must_use]
    pub fn describe_json(&self) -> String {
        self.describe()
            .unwrap_or_else(|| "The scope's full seed set for every cell.".to_string())
    }
}

/// `Option`-aware aggregation of one metric's per-seed samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agg {
    /// Mean over the samples that exist; `n/a` when none do.
    Mean,
    /// Maximum over the samples that exist; `n/a` when none do.
    Max,
    /// Sum over the samples that exist, rendered as an integer (counts).
    Sum,
}

impl Agg {
    /// Aggregates the present samples; `None` means no sample existed.
    #[must_use]
    pub fn apply(self, samples: &[f64]) -> Option<f64> {
        match self {
            Agg::Mean => mean_opt(samples),
            Agg::Max => samples.iter().copied().reduce(f64::max),
            Agg::Sum => Some(samples.iter().sum()),
        }
    }

    /// Renders the aggregate as a table cell (`n/a` when no sample).
    /// Integral sums (counts) render as integers; a fractional sum keeps
    /// `fnum` precision so the table and the JSON reporter agree.
    #[must_use]
    pub fn cell(self, samples: &[f64]) -> String {
        match self {
            Agg::Sum => {
                // `+ 0.0` normalizes the empty sum's -0.0 identity.
                let sum: f64 = samples.iter().sum::<f64>() + 0.0;
                if sum.fract() == 0.0 {
                    format!("{sum}")
                } else {
                    crate::table::fnum(sum)
                }
            }
            _ => opt_cell(self.apply(samples)),
        }
    }
}

/// One cell's worth of sweep results: the point, its seeds, and one
/// outcome per seed, in seed order.
#[derive(Clone, Debug)]
pub struct Grid<P, O> {
    /// The cell points, in declared (product) order.
    pub points: Vec<P>,
    /// Seeds each point ran, parallel to `points`.
    pub seeds: Vec<Vec<u64>>,
    /// Per-point outcomes, parallel to `points`, seed order within.
    pub groups: Vec<Vec<O>>,
}

impl<P, O> Grid<P, O> {
    /// The single outcome of a single-point, single-seed battery.
    ///
    /// # Panics
    ///
    /// Panics if the grid holds no outcome.
    #[must_use]
    pub fn single(&self) -> &O {
        self.groups
            .first()
            .and_then(|g| g.first())
            .expect("battery produced at least one outcome")
    }

    /// The present samples `f` extracts from point `index`'s outcomes.
    pub fn samples(&self, index: usize, f: impl Fn(&O) -> Option<f64>) -> Vec<f64> {
        self.groups[index].iter().filter_map(f).collect()
    }
}

/// Row-rendering context handed to derived columns and custom row
/// builders: the row's index plus the whole grid, so growth columns can
/// reach neighbouring rows and ratio columns can aggregate freely.
pub struct RowCtx<'a, P, O> {
    /// Index of the row's point in the grid.
    pub index: usize,
    /// The full sweep grid.
    pub grid: &'a Grid<P, O>,
}

impl<P, O> RowCtx<'_, P, O> {
    /// This row's point.
    #[must_use]
    pub fn point(&self) -> &P {
        &self.grid.points[self.index]
    }

    /// This row's outcomes, in seed order.
    #[must_use]
    pub fn outcomes(&self) -> &[O] {
        &self.grid.groups[self.index]
    }

    /// Present samples of `f` over this row's outcomes.
    pub fn samples(&self, f: impl Fn(&O) -> Option<f64>) -> Vec<f64> {
        self.grid.samples(self.index, f)
    }

    /// Mean of the present samples of `f` over point `index`'s outcomes.
    pub fn mean_at(&self, index: usize, f: impl Fn(&O) -> Option<f64>) -> Option<f64> {
        mean_opt(&self.grid.samples(index, f))
    }
}

struct Column<P, O> {
    header: String,
    kind: ColumnKind<P, O>,
}

enum ColumnKind<P, O> {
    Point(PointFn<P>),
    SeedCount,
    Metric(Agg, MetricFn<O>),
    Derived(DerivedFn<P, O>),
}

/// A battery's two reporter outputs: the rendered Markdown table and the
/// per-cell JSON records.
#[derive(Clone, Debug)]
pub struct Report {
    /// The Markdown table (render with [`Table::render`]).
    pub table: Table,
    /// One structured JSON record per cell (see [`Battery::json`]).
    pub cells_json: String,
}

/// A declarative experiment battery. See the [module docs](self) for the
/// model and an example.
pub struct Battery<P, O> {
    id: String,
    title: String,
    axes: Vec<String>,
    label: LabelFn<P>,
    points: Vec<P>,
    point_n: Option<NFn<P>>,
    seed_policy: SeedPolicy,
    runner: RunnerFn<P, O>,
    columns: Vec<Column<P, O>>,
    custom_rows: Option<(Vec<String>, RowsFn<P, O>)>,
    json_metrics: Vec<(String, Agg, MetricFn<O>)>,
    notes: Vec<String>,
    cache_key: Option<String>,
}

impl<P, O> std::fmt::Debug for Battery<P, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Battery")
            .field("id", &self.id)
            .field("axes", &self.axes)
            .field("points", &self.points.len())
            .field("seed_policy", &self.seed_policy)
            .field("columns", &self.columns.len())
            .finish_non_exhaustive()
    }
}

type CacheSlot = (String, Scope, Arc<dyn Any + Send + Sync>);
// paperlint: allow(D2) cache of finished grids keyed by (key, scope); hits return identical data
static GRID_CACHE: OnceLock<Mutex<Vec<CacheSlot>>> = OnceLock::new();

impl<P, O> Battery<P, O>
where
    P: Send + Sync + 'static,
    O: Send + Sync + 'static,
{
    /// A new battery with the given experiment id, table title and cell
    /// runner. The runner must be a pure function of `(point, seed)` —
    /// the determinism contract the parallel fan-out relies on.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        runner: impl Fn(&P, u64) -> O + Send + Sync + 'static,
    ) -> Self {
        Battery {
            id: id.into(),
            title: title.into(),
            axes: Vec::new(),
            label: Arc::new(|_| Vec::new()),
            points: Vec::new(),
            point_n: None,
            seed_policy: SeedPolicy::Scope,
            runner: Arc::new(runner),
            columns: Vec::new(),
            custom_rows: None,
            json_metrics: Vec::new(),
            notes: Vec::new(),
            cache_key: None,
        }
    }

    /// Declares the battery's axes: their names (the leading table
    /// columns and the JSON coordinate keys) and the labeler producing
    /// one value per axis for a given point.
    #[must_use]
    pub fn axes(
        mut self,
        names: &[&str],
        label: impl Fn(&P) -> Vec<String> + Send + Sync + 'static,
    ) -> Self {
        self.axes = names.iter().map(ToString::to_string).collect();
        self.label = Arc::new(label);
        self
    }

    /// Sets the cell points (use [`product2`]/[`product3`] for the axis
    /// product; order is the table's row order).
    #[must_use]
    pub fn points(mut self, points: Vec<P>) -> Self {
        self.points = points;
        self
    }

    /// Declares how a point's system size is read — required by
    /// [`SeedPolicy::ThinAt`].
    #[must_use]
    pub fn point_n(mut self, f: impl Fn(&P) -> usize + Send + Sync + 'static) -> Self {
        self.point_n = Some(Arc::new(f));
        self
    }

    /// Sets the seed policy (default: the scope's full seed set).
    #[must_use]
    pub fn seeds(mut self, policy: SeedPolicy) -> Self {
        self.seed_policy = policy;
        self
    }

    /// Adds a metric column: per-seed extraction, `Option`-aware
    /// aggregation, `fnum` formatting. Also emitted into the JSON
    /// records under `header`.
    #[must_use]
    pub fn col(
        mut self,
        header: impl Into<String>,
        agg: Agg,
        extract: impl Fn(&O) -> Option<f64> + Send + Sync + 'static,
    ) -> Self {
        self.columns.push(Column {
            header: header.into(),
            kind: ColumnKind::Metric(agg, Arc::new(extract)),
        });
        self
    }

    /// Adds a column computed from the point alone (reference columns,
    /// derived parameters like `d`).
    #[must_use]
    pub fn col_point(
        mut self,
        header: impl Into<String>,
        f: impl Fn(&P) -> String + Send + Sync + 'static,
    ) -> Self {
        self.columns.push(Column {
            header: header.into(),
            kind: ColumnKind::Point(Arc::new(f)),
        });
        self
    }

    /// Adds a column showing how many seeds the cell ran (the declared
    /// policy applied to the cell).
    #[must_use]
    pub fn col_runs(mut self, header: impl Into<String>) -> Self {
        self.columns.push(Column {
            header: header.into(),
            kind: ColumnKind::SeedCount,
        });
        self
    }

    /// Adds a derived column with full-grid access (growth columns,
    /// ratios of sums). Prefer [`Battery::col`] when a metric fits.
    #[must_use]
    pub fn col_derived(
        mut self,
        header: impl Into<String>,
        f: impl Fn(&RowCtx<'_, P, O>) -> String + Send + Sync + 'static,
    ) -> Self {
        self.columns.push(Column {
            header: header.into(),
            kind: ColumnKind::Derived(Arc::new(f)),
        });
        self
    }

    /// Adds a JSON-only metric (emitted per cell, no table column) —
    /// used by batteries whose table is a custom breakdown.
    #[must_use]
    pub fn json_metric(
        mut self,
        name: impl Into<String>,
        agg: Agg,
        extract: impl Fn(&O) -> Option<f64> + Send + Sync + 'static,
    ) -> Self {
        self.json_metrics
            .push((name.into(), agg, Arc::new(extract)));
        self
    }

    /// Replaces the declarative column rendering with a custom per-point
    /// row builder (for breakdown tables whose rows are not one-per-cell,
    /// e.g. the Figure 2 dissections). The battery still owns the grid,
    /// seed policy and JSON reporting.
    #[must_use]
    pub fn rows(
        mut self,
        headers: &[&str],
        f: impl Fn(&RowCtx<'_, P, O>) -> Vec<Vec<String>> + Send + Sync + 'static,
    ) -> Self {
        self.custom_rows = Some((
            headers.iter().map(ToString::to_string).collect(),
            Arc::new(f),
        ));
        self
    }

    /// Appends a table note (the declared seed policy is appended after
    /// all notes automatically).
    #[must_use]
    pub fn note(mut self, text: impl Into<String>) -> Self {
        self.notes.push(text.into());
        self
    }

    /// Memoizes the computed grid per scope under the battery id —
    /// several tables built over one expensive sweep share the runs
    /// (replacing the hand-rolled `OnceLock` cache fig1a carried).
    ///
    /// Contract: every battery constructed under one cache key must
    /// declare the same points, runner and seed policy.
    #[must_use]
    pub fn cached(self) -> Self {
        let key = self.id.clone();
        self.cached_as(key)
    }

    /// Like [`Battery::cached`] but under an explicit key, for several
    /// experiment ids sharing one sweep (the three Figure 1a tables).
    #[must_use]
    pub fn cached_as(mut self, key: impl Into<String>) -> Self {
        self.cache_key = Some(key.into());
        self
    }

    /// The battery id.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    fn seeds_for(&self, scope: Scope, point: &P) -> Vec<u64> {
        let n = self.point_n.as_ref().map(|f| f(point));
        self.seed_policy.seeds(scope, n)
    }

    fn compute(&self, scope: Scope) -> Grid<P, O>
    where
        P: Clone,
    {
        let seeds: Vec<Vec<u64>> = self
            .points
            .iter()
            .map(|p| self.seeds_for(scope, p))
            .collect();
        let cells: Vec<(usize, u64)> = seeds
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.iter().map(move |&seed| (i, seed)))
            .collect();
        let outcomes = par_map(cells, |(i, seed)| (self.runner)(&self.points[i], seed));
        let mut groups: Vec<Vec<O>> = seeds.iter().map(|s| Vec::with_capacity(s.len())).collect();
        let mut it = outcomes.into_iter();
        for (i, s) in seeds.iter().enumerate() {
            for _ in 0..s.len() {
                groups[i].push(it.next().expect("one outcome per cell"));
            }
        }
        Grid {
            points: self.points.clone(),
            seeds,
            groups,
        }
    }

    /// Runs (or recalls) the sweep grid for `scope`.
    ///
    /// # Panics
    ///
    /// Panics if a memoization key is shared between batteries whose
    /// grids have different types (a misuse of [`Battery::cached_as`]).
    #[must_use]
    pub fn grid(&self, scope: Scope) -> Arc<Grid<P, O>>
    where
        P: Clone,
    {
        let Some(key) = &self.cache_key else {
            return Arc::new(self.compute(scope));
        };
        // paperlint: allow(D2) grid-cache initialisation; see GRID_CACHE
        let cache = GRID_CACHE.get_or_init(|| Mutex::new(Vec::new()));
        {
            let guard = cache.lock().expect("battery grid cache");
            if let Some((_, _, grid)) = guard.iter().find(|(k, s, _)| k == key && *s == scope) {
                return Arc::clone(grid)
                    .downcast::<Grid<P, O>>()
                    .expect("battery cache key reused for a different grid type");
            }
        }
        // Compute outside the lock (a concurrent duplicate run is
        // harmless — results are pure — and cheaper than serializing
        // unrelated batteries behind one global lock).
        let grid = Arc::new(self.compute(scope));
        cache.lock().expect("battery grid cache").push((
            key.clone(),
            scope,
            Arc::clone(&grid) as Arc<dyn Any + Send + Sync>,
        ));
        grid
    }

    /// Runs the sweep uncached and reports the fan-out wall-clock in
    /// seconds (the throughput batteries' timing hook).
    #[must_use]
    pub fn run_timed(&self, scope: Scope) -> (Grid<P, O>, f64)
    where
        P: Clone,
    {
        let started = Instant::now();
        let grid = self.compute(scope);
        (grid, started.elapsed().as_secs_f64().max(1e-9))
    }

    /// Renders the battery as a Markdown table for `scope`.
    ///
    /// # Panics
    ///
    /// Panics if the axis labeler returns a different number of values
    /// than there are declared axes.
    #[must_use]
    pub fn table(&self, scope: Scope) -> Table
    where
        P: Clone,
    {
        let grid = self.grid(scope);
        self.table_from(scope, &grid)
    }

    fn table_from(&self, scope: Scope, grid: &Grid<P, O>) -> Table {
        let mut table = if let Some((headers, rows_fn)) = &self.custom_rows {
            let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut table = Table::new(self.title.clone(), &headers);
            for index in 0..grid.points.len() {
                for row in rows_fn(&RowCtx { index, grid }) {
                    table.push_row(row);
                }
            }
            table
        } else {
            let mut headers: Vec<&str> = self.axes.iter().map(String::as_str).collect();
            let col_headers: Vec<&str> = self.columns.iter().map(|c| c.header.as_str()).collect();
            headers.extend(col_headers);
            let mut table = Table::new(self.title.clone(), &headers);
            for (index, point) in grid.points.iter().enumerate() {
                let mut row = (self.label)(point);
                assert_eq!(
                    row.len(),
                    self.axes.len(),
                    "battery `{}`: axis labeler produced {} values for {} axes",
                    self.id,
                    row.len(),
                    self.axes.len()
                );
                for column in &self.columns {
                    row.push(match &column.kind {
                        ColumnKind::Point(f) => f(point),
                        ColumnKind::SeedCount => grid.seeds[index].len().to_string(),
                        ColumnKind::Metric(agg, extract) => {
                            agg.cell(&grid.samples(index, |o| extract(o)))
                        }
                        ColumnKind::Derived(f) => f(&RowCtx { index, grid }),
                    });
                }
                table.push_row(row);
            }
            table
        };
        for note in &self.notes {
            table.note(note.clone());
        }
        if let Some(policy) = self.seed_policy.describe() {
            table.note(policy);
        }
        let _ = scope; // scope participates via grid(); kept for symmetry
        table
    }

    /// Emits one structured JSON record per cell: the cell's axis
    /// coordinates, the seeds it ran, and every declared metric's
    /// aggregate (`null` when no run produced the statistic).
    #[must_use]
    pub fn json(&self, scope: Scope) -> String
    where
        P: Clone,
    {
        let grid = self.grid(scope);
        self.json_from(scope, &grid)
    }

    fn json_metric_decls(&self) -> Vec<(&str, Agg, &MetricFn<O>)> {
        let mut decls: Vec<(&str, Agg, &MetricFn<O>)> = self
            .columns
            .iter()
            .filter_map(|c| match &c.kind {
                ColumnKind::Metric(agg, extract) => Some((c.header.as_str(), *agg, extract)),
                _ => None,
            })
            .collect();
        decls.extend(
            self.json_metrics
                .iter()
                .map(|(name, agg, extract)| (name.as_str(), *agg, extract)),
        );
        decls
    }

    fn json_from(&self, scope: Scope, grid: &Grid<P, O>) -> String {
        let decls = self.json_metric_decls();
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"battery\": {},\n", json_string(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_string(&self.title)));
        out.push_str(&format!("  \"scope\": {},\n", json_string(scope.name())));
        out.push_str(&format!(
            "  \"seed_policy\": {},\n",
            json_string(&self.seed_policy.describe_json())
        ));
        let axes: Vec<String> = self.axes.iter().map(|a| json_string(a)).collect();
        out.push_str(&format!("  \"axes\": [{}],\n", axes.join(", ")));
        out.push_str("  \"cells\": [\n");
        let cells: Vec<String> = grid
            .points
            .iter()
            .enumerate()
            .map(|(index, point)| {
                let labels = (self.label)(point);
                let coords: Vec<String> = self
                    .axes
                    .iter()
                    .zip(&labels)
                    .map(|(axis, value)| format!("{}: {}", json_string(axis), json_string(value)))
                    .collect();
                let seeds: Vec<String> =
                    grid.seeds[index].iter().map(ToString::to_string).collect();
                let metrics: Vec<String> = decls
                    .iter()
                    .map(|(name, agg, extract)| {
                        let samples = grid.samples(index, |o| extract(o));
                        format!(
                            "{}: {}",
                            json_string(name),
                            json_number(agg.apply(&samples))
                        )
                    })
                    .collect();
                format!(
                    "    {{\"axes\": {{{}}}, \"seeds\": [{}], \"metrics\": {{{}}}}}",
                    coords.join(", "),
                    seeds.join(", "),
                    metrics.join(", ")
                )
            })
            .collect();
        out.push_str(&cells.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Runs the battery and returns both reporters (table + JSON) over
    /// one grid computation.
    #[must_use]
    pub fn report(&self, scope: Scope) -> Report
    where
        P: Clone,
    {
        let grid = self.grid(scope);
        Report {
            table: self.table_from(scope, &grid),
            cells_json: self.json_from(scope, &grid),
        }
    }
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an optional aggregate as a JSON number or `null` (also `null`
/// for non-finite values, which JSON cannot carry).
fn json_number(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Battery<(usize, u64), (f64, Option<f64>)> {
        Battery::new(
            "demo",
            "demo — battery unit fixture",
            |&(n, delay): &(usize, u64), seed| {
                let decided = (n + delay as usize) as f64 + seed as f64;
                let rounds = if delay > 2 { None } else { Some(seed as f64) };
                (decided, rounds)
            },
        )
        .axes(&["n", "delay"], |&(n, d)| {
            vec![n.to_string(), d.to_string()]
        })
        .points(product2(&[64usize, 128], &[1u64, 4]))
        .point_n(|&(n, _)| n)
        .col("decided", Agg::Mean, |o| Some(o.0))
        .col("rounds p50", Agg::Mean, |o| o.1)
        .col("rounds max", Agg::Max, |o| o.1)
    }

    #[test]
    fn axis_product_order_is_first_axis_outermost() {
        assert_eq!(
            product2(&['a', 'b'], &[1, 2]),
            vec![('a', 1), ('a', 2), ('b', 1), ('b', 2)]
        );
        assert_eq!(
            product3(&['a'], &[1, 2], &["x", "y"]),
            vec![('a', 1, "x"), ('a', 1, "y"), ('a', 2, "x"), ('a', 2, "y")]
        );
        let t = demo().table(Scope::Quick);
        let key: Vec<(String, String)> = t
            .rows
            .iter()
            .map(|r| (r[0].clone(), r[1].clone()))
            .collect();
        assert_eq!(
            key,
            vec![
                ("64".into(), "1".into()),
                ("64".into(), "4".into()),
                ("128".into(), "1".into()),
                ("128".into(), "4".into()),
            ]
        );
    }

    #[test]
    fn option_aware_aggregation_renders_na_never_zero() {
        let t = demo().table(Scope::Quick);
        // delay=4 rows never produce `rounds`: n/a, not 0 or NaN.
        for row in t.rows.iter().filter(|r| r[1] == "4") {
            assert_eq!(row[3], "n/a", "row {row:?}");
            assert_eq!(row[4], "n/a", "row {row:?}");
        }
        for row in t.rows.iter().filter(|r| r[1] == "1") {
            assert_ne!(row[3], "n/a", "row {row:?}");
            assert!(!row[3].contains("NaN"), "row {row:?}");
        }
        assert_eq!(Agg::Mean.cell(&[]), "n/a");
        assert_eq!(Agg::Max.cell(&[]), "n/a");
        assert_eq!(Agg::Sum.cell(&[]), "0", "sums of nothing are a true 0");
        assert_eq!(Agg::Mean.cell(&[4.0, 6.0]), "5.00");
        assert_eq!(Agg::Max.cell(&[4.0, 6.0]), "6.00");
        assert_eq!(Agg::Sum.cell(&[4.0, 6.0]), "10");
        // A fractional sum keeps its precision instead of truncating,
        // matching the JSON reporter's value for the same cell.
        assert_eq!(Agg::Sum.cell(&[1.5, 2.25]), "3.75");
    }

    #[test]
    fn seed_policies_thin_as_declared_and_describe_themselves() {
        let scope = Scope::Default; // 5 seeds
        assert_eq!(SeedPolicy::Scope.seeds(scope, None).len(), 5);
        assert_eq!(SeedPolicy::Capped { max: 3 }.seeds(scope, None).len(), 3);
        let thin = SeedPolicy::ThinAt {
            threshold: 4096,
            max: 3,
        };
        assert_eq!(thin.seeds(scope, Some(1024)).len(), 5);
        assert_eq!(thin.seeds(scope, Some(4096)).len(), 3);
        assert_eq!(SeedPolicy::Fixed(vec![7, 9]).seeds(scope, None), vec![7, 9]);
        assert!(SeedPolicy::Scope.describe().is_none());
        assert!(thin.describe().unwrap().contains("n >= 4096"));
        assert!(SeedPolicy::Capped { max: 3 }
            .describe()
            .unwrap()
            .contains("first 3 seed"));
        // The declared policy surfaces in the table notes…
        let t = demo()
            .seeds(SeedPolicy::ThinAt {
                threshold: 128,
                max: 1,
            })
            .table(Scope::Quick);
        assert!(t.notes.iter().any(|n| n.contains("n >= 128")), "{t:?}");
        // …and thinning actually happened.
        let grid = demo()
            .seeds(SeedPolicy::ThinAt {
                threshold: 128,
                max: 1,
            })
            .grid(Scope::Quick);
        assert_eq!(grid.seeds[0].len(), Scope::Quick.seeds().len());
        assert_eq!(grid.seeds[3].len(), 1, "n=128 thinned to one seed");
    }

    #[test]
    #[should_panic(expected = "ThinAt requires Battery::point_n")]
    fn thinning_without_a_declared_n_is_a_hard_error() {
        let _ = SeedPolicy::ThinAt {
            threshold: 10,
            max: 1,
        }
        .seeds(Scope::Quick, None);
    }

    #[test]
    fn cached_grids_are_shared_per_scope() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let build = || {
            Battery::new("cache-demo", "cache-demo", |&n: &usize, seed| {
                RUNS.fetch_add(1, Ordering::SeqCst);
                n as f64 + seed as f64
            })
            .axes(&["n"], |n| vec![n.to_string()])
            .points(vec![1usize, 2])
            .seeds(SeedPolicy::Fixed(vec![1]))
            .col("v", Agg::Mean, |&v| Some(v))
            .cached()
        };
        let a = build().table(Scope::Quick);
        let runs_after_first = RUNS.load(Ordering::SeqCst);
        assert_eq!(runs_after_first, 2);
        let b = build().table(Scope::Quick);
        assert_eq!(
            RUNS.load(Ordering::SeqCst),
            runs_after_first,
            "second table reuses the memoized grid"
        );
        assert_eq!(a, b);
        // A different scope is a different grid.
        let _ = build().table(Scope::Default);
        assert!(RUNS.load(Ordering::SeqCst) > runs_after_first);
    }

    #[test]
    fn derived_columns_see_the_whole_grid() {
        let t = Battery::new("growth", "growth", |&n: &usize, _seed| n as f64)
            .axes(&["n"], |n| vec![n.to_string()])
            .points(vec![64usize, 128])
            .seeds(SeedPolicy::Fixed(vec![1]))
            .col_derived("growth", |ctx| {
                if ctx.index == 0 {
                    "-".to_string()
                } else {
                    let prev = ctx.mean_at(ctx.index - 1, |&v| Some(v)).unwrap();
                    let cur = ctx.mean_at(ctx.index, |&v| Some(v)).unwrap();
                    format!("x{}", cur / prev)
                }
            })
            .table(Scope::Quick);
        assert_eq!(t.rows[0][1], "-");
        assert_eq!(t.rows[1][1], "x2");
    }

    #[test]
    fn custom_rows_replace_columns_but_keep_policy_notes() {
        let t = demo()
            .seeds(SeedPolicy::Fixed(vec![7]))
            .rows(&["k", "v"], |ctx| {
                vec![vec![
                    format!("n={}", ctx.point().0),
                    format!("{}", ctx.outcomes().len()),
                ]]
            })
            .table(Scope::Quick);
        assert_eq!(t.columns, vec!["k".to_string(), "v".to_string()]);
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.rows[0], vec!["n=64".to_string(), "1".to_string()]);
        assert!(t.notes.iter().any(|n| n.contains("Fixed seed(s) 7")));
    }

    #[test]
    fn json_records_round_trip_the_schema() {
        use crate::json::Value;
        let json = demo().json(Scope::Quick);
        let v = Value::parse(&json).expect("battery JSON parses");
        assert_eq!(v.get("battery").and_then(Value::as_str), Some("demo"));
        assert_eq!(v.get("scope").and_then(Value::as_str), Some("quick"));
        assert!(v.get("seed_policy").and_then(Value::as_str).is_some());
        let axes: Vec<&str> = v
            .get("axes")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(axes, vec!["n", "delay"]);
        let cells = v.get("cells").and_then(Value::as_array).unwrap();
        assert_eq!(cells.len(), 4, "one record per cell");
        for cell in cells {
            let coords = cell.get("axes").and_then(Value::as_object).unwrap();
            assert!(coords.contains_key("n") && coords.contains_key("delay"));
            let seeds = cell.get("seeds").and_then(Value::as_array).unwrap();
            assert_eq!(seeds.len(), Scope::Quick.seeds().len());
            let metrics = cell.get("metrics").and_then(Value::as_object).unwrap();
            assert!(metrics.contains_key("decided"));
            assert!(metrics["decided"].as_f64().is_some());
            // delay=4 cells never produced `rounds`: null, not 0.
            if coords["delay"].as_str() == Some("4") {
                assert_eq!(metrics["rounds p50"], Value::Null);
                assert_eq!(metrics["rounds max"], Value::Null);
            } else {
                assert!(metrics["rounds p50"].as_f64().is_some());
            }
        }
    }

    #[test]
    fn json_escaping_and_numbers() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_number(Some(1.5)), "1.5");
        assert_eq!(json_number(None), "null");
        assert_eq!(json_number(Some(f64::NAN)), "null");
    }
}
