//! TAB-SETUP — the dataset inventory implicit in Sec. VI-A: which graphs
//! the evaluation runs on, with their sizes and shapes.

use graphdata::suite::Dataset;
use sssp_core::dijkstra::dijkstra;

use super::{Figure, Session, Suite};
use crate::bench_source;
use crate::report::{count, real, text, Cell};

/// One suite entry's vital statistics.
#[derive(Debug, Clone)]
pub struct DatasetRow {
    /// Dataset name.
    pub name: String,
    /// Topology family.
    pub family: String,
    /// Vertex count.
    pub nv: usize,
    /// Directed edge count.
    pub ne: usize,
    /// Mean out-degree.
    pub mean_degree: f64,
    /// Benchmark source vertex (maximum degree).
    pub source: usize,
    /// Vertices reachable from the source.
    pub reachable: usize,
    /// Largest finite distance from the source (hops, since unit weights).
    pub eccentricity: f64,
}

impl DatasetRow {
    /// The inventory's columns.
    pub fn columns(&self) -> Vec<Cell> {
        vec![
            text("graph", &self.name),
            text("family", &self.family),
            count("nv", self.nv as u64),
            count("ne", self.ne as u64),
            real("mean_degree", self.mean_degree, 2),
            count("source", self.source as u64),
            count("reachable", self.reachable as u64),
            real("eccentricity", self.eccentricity, 0),
        ]
    }
}

/// Compute the inventory of `suite`.
pub fn run(suite: &[Dataset]) -> Vec<DatasetRow> {
    suite
        .iter()
        .map(|d| {
            let g = &d.graph;
            let src = bench_source(g);
            let r = dijkstra(g, src);
            DatasetRow {
                name: d.name.clone(),
                family: d.family.to_string(),
                nv: g.num_vertices(),
                ne: g.num_edges(),
                mean_degree: g.mean_degree(),
                source: src,
                reachable: r.reachable_count(),
                eccentricity: r.eccentricity().unwrap_or(0.0),
            }
        })
        .collect()
}

/// The TAB-SETUP table.
pub fn figure(session: &mut Session) -> Figure {
    let rows = run(session.suite(Suite::Paper));
    let edges: usize = rows.iter().map(|r| r.ne).sum();
    Figure {
        headline: vec![format!("{} graphs, {edges} directed edges in all", rows.len())],
        rows: rows.iter().map(DatasetRow::columns).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::{paper_suite, SuiteScale};

    #[test]
    fn smoke_inventory() {
        let rows = run(&paper_suite(SuiteScale::Smoke));
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.reachable > 1, "{}: source reaches nothing", r.name);
            assert!(r.eccentricity >= 1.0);
            assert!(r.mean_degree > 0.0);
        }
        // The grid has a much larger diameter than the RMAT graph of
        // comparable size — the topology contrast the suite exists for.
        let grid = rows.iter().find(|r| r.family == "grid").unwrap();
        let rmat = rows.iter().find(|r| r.family == "rmat").unwrap();
        assert!(grid.eccentricity > rmat.eccentricity);
    }
}
