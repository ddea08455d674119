//! One module per experiment in the EXPERIMENTS.md index, and the
//! registry of the six paper-figure experiments that the `figures`
//! binary runs and writes to `results/<name>.{csv,json}`.

pub mod ablation_select;
pub mod baseline;
pub mod datasets;
pub mod delta_sweep;
pub mod fig4;
pub mod phase_profile;
pub mod stepping;

use graphdata::suite::{weighted_suite, Dataset};
use graphdata::{paper_suite, SuiteScale};

use crate::measure::Reps;
use crate::report::Cell;

/// One figure experiment: the name of its `results/` artifacts (and of
/// its `figures` argument), the title printed above its table, and its
/// run.
pub struct Experiment {
    /// Artifact stem and command-line name.
    pub name: &'static str,
    /// What the table shows and the paper's number, printed above it.
    pub title: &'static str,
    /// The suite whose graphs name the rows.
    pub suite: Suite,
    /// Produce the rows and the headline.
    pub run: fn(&mut Session) -> Figure,
}

/// An experiment's output: its rows (each the one definition of its
/// columns) and the headline lines printed under the table.
pub struct Figure {
    /// Result rows, all with the same columns.
    pub rows: Vec<Vec<Cell>>,
    /// Summary lines (geomeans, ranges) printed under the table.
    pub headline: Vec<String>,
}

/// Which benchmark suite an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// [`paper_suite`]: unit weights, the graphs of Figs. 3–4.
    Paper,
    /// [`weighted_suite`]: the same topologies with real weights.
    Weighted,
}

/// The six paper-figure experiments, in the order `figures` runs them.
pub const REGISTRY: [Experiment; 6] = [
    Experiment {
        name: "datasets",
        title: "TAB-SETUP: benchmark suite (symmetric, unit weights, ascending |V|)",
        suite: Suite::Paper,
        run: datasets::figure,
    },
    Experiment {
        name: "fig3",
        title: "FIG3: fused direct vs unfused GraphBLAS (delta = 1, unit weights; paper: ~3.7x \
                average improvement from fusion)",
        suite: Suite::Paper,
        run: ablation_select::fig3,
    },
    Experiment {
        name: "ablation_select",
        title: "ABL-SELECT: two-apply GraphBLAS vs select-based GraphBLAS vs fused direct \
                (how much of Fig. 3's fusion win a better library already captures)",
        suite: Suite::Paper,
        run: ablation_select::figure,
    },
    Experiment {
        name: "fig4",
        title: "FIG4: task-parallel speedup over fused sequential (delta = 1; paper: avg 1.44x \
                at 2 threads, 1.5x at 4, paper scheme)",
        suite: Suite::Paper,
        run: fig4::figure,
    },
    Experiment {
        name: "delta_sweep",
        title: "ABL-DELTA: fused delta-stepping across bucket widths (weighted suite)",
        suite: Suite::Weighted,
        run: delta_sweep::figure,
    },
    Experiment {
        name: "phase_profile",
        title: "ABL-OPS: per-phase time of the sequential solve (delta = 1; paper: matrix \
                filtering takes 35-40% of sequential runtime)",
        suite: Suite::Paper,
        run: phase_profile::figure,
    },
];

/// What one `figures` invocation shares between experiments: the scale,
/// the repetition policy, fig4's `--wallclock`, each suite generated
/// once, and the ABL-SELECT rows FIG3 is projected from.
pub struct Session {
    scale: SuiteScale,
    reps: Reps,
    /// FIG4 times the threaded implementations instead of simulating.
    wallclock: bool,
    paper: Option<Vec<Dataset>>,
    weighted: Option<Vec<Dataset>>,
    select: Option<Vec<ablation_select::AblationRow>>,
}

impl Session {
    /// A session with nothing generated or measured yet.
    pub fn new(scale: SuiteScale, reps: Reps, wallclock: bool) -> Self {
        Session { scale, reps, wallclock, paper: None, weighted: None, select: None }
    }

    /// The graphs of `suite` at this session's scale, generated once.
    pub fn suite(&mut self, suite: Suite) -> &[Dataset] {
        let scale = self.scale;
        match suite {
            Suite::Paper => self.paper.get_or_insert_with(|| paper_suite(scale)),
            Suite::Weighted => self.weighted.get_or_insert_with(|| weighted_suite(scale)),
        }
    }

    /// The ABL-SELECT rows, timed once however many figures read them.
    fn select_rows(&mut self) -> &[ablation_select::AblationRow] {
        if self.select.is_none() {
            let reps = self.reps;
            self.select = Some(ablation_select::run(self.suite(Suite::Paper), reps));
        }
        self.select.as_deref().expect("set above")
    }
}

/// Parse the `figures` command line: experiment names (none means all),
/// `--scale smoke|default|large` and `--wallclock`.
pub fn parse_args(
    args: &[String],
) -> Result<(Vec<&'static Experiment>, SuiteScale, bool), String> {
    let mut chosen = Vec::new();
    let (mut scale, mut wallclock) = (SuiteScale::Default, false);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--wallclock" => wallclock = true,
            "--scale" => {
                scale = match args.next().map(String::as_str) {
                    Some("smoke") => SuiteScale::Smoke,
                    Some("default") => SuiteScale::Default,
                    Some("large") => SuiteScale::Large,
                    other => return Err(format!("unknown --scale {other:?} (smoke|default|large)")),
                }
            }
            name => match REGISTRY.iter().find(|e| e.name == name) {
                Some(e) => chosen.push(e),
                None => return Err(format!("unknown experiment '{name}'")),
            },
        }
    }
    if chosen.is_empty() {
        chosen = REGISTRY.iter().collect();
    }
    Ok((chosen, scale, wallclock))
}

/// Geometric mean of a slice of positive ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Json;

    #[test]
    fn parse_args_variants() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let (all, scale, wallclock) = parse_args(&[]).unwrap();
        assert_eq!((all.len(), scale, wallclock), (REGISTRY.len(), SuiteScale::Default, false));
        let (one, scale, wallclock) = parse_args(&args("fig4 --scale smoke --wallclock")).unwrap();
        assert_eq!(one.iter().map(|e| e.name).collect::<Vec<_>>(), ["fig4"]);
        assert_eq!((scale, wallclock), (SuiteScale::Smoke, true));
        assert_eq!(parse_args(&args("--scale large")).unwrap().1, SuiteScale::Large);
        assert!(parse_args(&args("fig5")).is_err());
        assert!(parse_args(&args("--scale huge")).is_err());
        assert!(parse_args(&args("--scale")).is_err());
        assert!(parse_args(&args("--refresh-results")).is_err());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.7]) - 3.7).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    /// The committed `results/*` pairs are what the registry emits today:
    /// every entry runs at smoke scale, and its columns must be the
    /// committed CSV header and JSON keys, and the committed rows must
    /// name the default-scale suite's graphs, in order. A renamed column,
    /// a dropped graph or a stale artifact fails here.
    #[test]
    fn committed_results_match_what_the_registry_emits() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut smoke = Session::new(SuiteScale::Smoke, Reps { warmup: 0, samples: 1 }, false);
        let mut default = Session::new(SuiteScale::Default, Reps::default(), false);
        for e in &REGISTRY {
            let fig = (e.run)(&mut smoke);
            assert!(!fig.rows.is_empty() && !fig.headline.is_empty(), "{}", e.name);
            let columns: Vec<&str> = fig.rows[0].iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(columns[0], "graph", "{}: rows are named by their graph", e.name);

            let read = |ext: &str| {
                let path = results.join(format!("{}.{ext}", e.name));
                std::fs::read_to_string(&path).unwrap_or_else(|err| panic!("{path:?}: {err}"))
            };
            let csv = read("csv");
            assert_eq!(csv.lines().next(), Some(columns.join(",").as_str()), "{}.csv", e.name);
            let json = Json::parse(&read("json")).unwrap();
            let objects = json.as_arr().unwrap_or_else(|| panic!("{}.json", e.name));
            for object in objects {
                let Json::Obj(fields) = object else { panic!("{}.json: not rows", e.name) };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, columns, "{}.json", e.name);
            }

            // One row per graph, or per graph and Δ for the sweep.
            let graphs: Vec<&str> =
                objects.iter().map(|o| o.get("graph").and_then(Json::as_str).unwrap()).collect();
            let mut named: Vec<&str> = graphs.clone();
            named.dedup();
            let suite: Vec<&str> =
                default.suite(e.suite).iter().map(|d| d.name.as_str()).collect();
            assert_eq!(named, suite, "{}: committed rows vs the default suite", e.name);
            assert_eq!(graphs.len() % suite.len(), 0, "{}", e.name);
            assert_eq!(
                csv.lines().skip(1).map(|l| l.split(',').next().unwrap()).collect::<Vec<_>>(),
                graphs,
                "{}: the CSV and the JSON hold the same rows",
                e.name
            );
        }
    }
}
