//! Tables I, II and III of the paper, regenerated from the Figure 1 DAGs.
//!
//! Both µ-dependent tables are read off one [`TaskSetCache`] over the
//! Figure 1 example set — the same precomputation layer the full analysis
//! runs on — so the tables exercise exactly the code path of `analyze`.
//! [`table1_ilp`] and [`table3_ilp`] recompute them from the paper's ILP
//! formulations alone, the reference `repro table1`/`table3` assert
//! against; [`run_all`] regenerates all of them.

use crate::ascii;
use rta_analysis::blocking::paper_ilp::{blocking_from_mu_ilp, mu_array_ilp, rho_ilp};
use rta_analysis::blocking::scenarios::rho;
use rta_analysis::blocking::BlockingBounds;
use rta_analysis::cache::TaskSetCache;
use rta_analysis::ScenarioSpace;
use rta_combinatorics::{partition_count, partitions, Partition};
use rta_model::examples::figure1_task_set;
use rta_model::Time;

/// Table I: the worst-case workloads `µ_i[c]` of the Figure 1 tasks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table1 {
    /// `mu[i][c − 1]` = `µ_{i+1}[c]` for the four Figure 1 tasks.
    pub mu: Vec<Vec<Time>>,
}

/// Computes Table I with the analysis cache's clique solver.
pub fn table1() -> Table1 {
    let ts = figure1_task_set();
    let cache = TaskSetCache::new(&ts, 4);
    Table1 {
        mu: figure1_mu(&cache),
    }
}

/// Computes Table I with the paper's ILP formulation (Section V-A2).
pub fn table1_ilp() -> Table1 {
    let ts = figure1_task_set();
    Table1 {
        mu: ts.tasks()[1..]
            .iter()
            .map(|t| mu_array_ilp(t.dag(), 4))
            .collect(),
    }
}

/// `µ_i[1..=4]` of the four Figure 1 tasks, read off `cache`: tasks 1..=4
/// of the example set are the Figure 1 DAGs (task 0 is the task under
/// analysis, which Table I does not cover).
fn figure1_mu(cache: &TaskSetCache<'_>) -> Vec<Vec<Time>> {
    (1..cache.task_set().len())
        .map(|i| cache.mu(i).to_vec())
        .collect()
}

impl Table1 {
    /// ASCII rendering in the paper's layout (rows = core counts).
    pub fn render(&self) -> String {
        let header = ["c", "µ1[c]", "µ2[c]", "µ3[c]", "µ4[c]"];
        ascii::table(&header, &self.rows())
    }

    /// CSV rendering (the golden-output CI gate diffs these bytes).
    pub fn to_csv(&self) -> String {
        crate::csv::to_string(&["c", "mu1", "mu2", "mu3", "mu4"], self.rows())
    }

    fn rows(&self) -> Vec<Vec<String>> {
        (1..=4usize)
            .map(|c| {
                let mut row = vec![c.to_string()];
                row.extend(self.mu.iter().map(|m| m[c - 1].to_string()));
                row
            })
            .collect()
    }
}

/// Table II: the execution scenarios `e_4` (integer partitions of 4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table2 {
    /// The scenarios, in enumeration order.
    pub scenarios: Vec<Partition>,
    /// `p(4)` from the pentagonal-number recurrence (must equal
    /// `scenarios.len()`).
    pub pentagonal_count: u64,
}

/// Computes Table II.
pub fn table2() -> Table2 {
    Table2 {
        scenarios: partitions(4).collect(),
        pentagonal_count: partition_count(4),
    }
}

impl Table2 {
    /// ASCII rendering: scenario, cardinality, description.
    pub fn render(&self) -> String {
        let header = ["scenario", "|s|", "total cores"];
        let rows: Vec<Vec<String>> = self
            .scenarios
            .iter()
            .map(|s| {
                vec![
                    s.to_string(),
                    s.cardinality().to_string(),
                    s.total().to_string(),
                ]
            })
            .collect();
        ascii::table(&header, &rows)
    }
}

/// Table III plus the resulting blocking bounds: `ρ_k[s_l]` per scenario,
/// `Δ⁴` / `Δ³` for LP-ILP, and the LP-max values they improve on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table3 {
    /// `(scenario, ρ)` pairs in enumeration order.
    pub rho: Vec<(Partition, Time)>,
    /// `Δ⁴` via LP-ILP (paper: 19).
    pub delta_4_ilp: Time,
    /// `Δ³` via LP-ILP (paper: 15).
    pub delta_3_ilp: Time,
    /// `Δ⁴` via LP-max (paper: 20).
    pub delta_4_max: Time,
    /// `Δ³` via LP-max (paper: 16).
    pub delta_3_max: Time,
}

/// Computes Table III with the Hungarian `ρ` solver; the Δ values are read
/// off the analysis cache.
pub fn table3() -> Table3 {
    let ts = figure1_task_set();
    let cache = TaskSetCache::new(&ts, 4);
    // The four Figure 1 tasks are exactly `lp(0)` of the example set, so
    // task 0's cached blocking bounds are the paper's Δ⁴ / Δ³.
    let ilp = cache.lp_ilp_blocking(0, 4, ScenarioSpace::PaperExact);
    Table3::from_parts(&figure1_mu(&cache), rho, ilp, cache.lp_max_blocking(0, 4))
}

/// Computes Table III with every `ρ`, and both LP-ILP Δ values, solved by
/// the paper's ILP formulation (Section V-B) over the same µ.
pub fn table3_ilp() -> Table3 {
    let ts = figure1_task_set();
    let cache = TaskSetCache::new(&ts, 4);
    let mu = figure1_mu(&cache);
    let ilp = blocking_from_mu_ilp(&mu, 4, ScenarioSpace::PaperExact);
    Table3::from_parts(&mu, rho_ilp, ilp, cache.lp_max_blocking(0, 4))
}

impl Table3 {
    /// Assembles the table from the Figure 1 µ-arrays, a `ρ` solver and
    /// the two blocking pairs.
    fn from_parts(
        mu: &[Vec<Time>],
        rho: fn(&[Vec<Time>], &Partition) -> Option<Time>,
        ilp: BlockingBounds,
        max: BlockingBounds,
    ) -> Self {
        Table3 {
            rho: partitions(4)
                .map(|s| {
                    let v = rho(mu, &s).expect("four tasks fill every scenario");
                    (s, v)
                })
                .collect(),
            delta_4_ilp: ilp.delta_m,
            delta_3_ilp: ilp.delta_m_minus_one,
            delta_4_max: max.delta_m,
            delta_3_max: max.delta_m_minus_one,
        }
    }

    /// ASCII rendering with the Δ summary row.
    pub fn render(&self) -> String {
        let header = ["scenario", "rho"];
        let rows: Vec<Vec<String>> = self
            .rho
            .iter()
            .map(|(s, v)| vec![s.to_string(), v.to_string()])
            .collect();
        let mut out = ascii::table(&header, &rows);
        out.push_str(&format!(
            "Δ⁴: LP-ILP = {} (LP-max = {}); Δ³: LP-ILP = {} (LP-max = {})\n",
            self.delta_4_ilp, self.delta_4_max, self.delta_3_ilp, self.delta_3_max
        ));
        out
    }
}

/// Every table of the paper plus the ILP references of Tables I and III,
/// regenerated in one pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tables {
    /// Table I via the clique solver.
    pub table1: Table1,
    /// Table I via the paper's ILP formulation (must equal `table1`).
    pub table1_ilp: Table1,
    /// Table II.
    pub table2: Table2,
    /// Table III via the Hungarian solver.
    pub table3: Table3,
    /// Table III via the paper's ILP formulation (must equal `table3`).
    pub table3_ilp: Table3,
}

/// Regenerates every table and both ILP references, in order. The whole
/// `repro table1` process takes milliseconds, so there is nothing to
/// spread over workers.
pub fn run_all() -> Tables {
    Tables {
        table1: table1(),
        table1_ilp: table1_ilp(),
        table2: table2(),
        table3: table3(),
        table3_ilp: table3_ilp(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_model::examples::TABLE_I;

    #[test]
    fn table1_matches_paper_both_solvers() {
        for (solver, t) in [("clique", table1()), ("ILP", table1_ilp())] {
            for (i, row) in t.mu.iter().enumerate() {
                assert_eq!(row.as_slice(), &TABLE_I[i], "{solver} µ_{}", i + 1);
            }
        }
    }

    #[test]
    fn table2_has_five_scenarios() {
        let t = table2();
        assert_eq!(t.scenarios.len(), 5);
        assert_eq!(t.pentagonal_count, 5);
        assert!(t.render().contains("{2,1,1}"));
    }

    #[test]
    fn table3_matches_paper_both_solvers() {
        for t in [table3(), table3_ilp()] {
            let by_scenario: std::collections::BTreeMap<String, Time> =
                t.rho.iter().map(|(s, v)| (s.to_string(), *v)).collect();
            assert_eq!(by_scenario["{1,1,1,1}"], 18);
            assert_eq!(by_scenario["{2,2}"], 16);
            assert_eq!(by_scenario["{2,1,1}"], 19);
            assert_eq!(by_scenario["{3,1}"], 18);
            assert_eq!(by_scenario["{4}"], 11);
            assert_eq!(t.delta_4_ilp, 19);
            assert_eq!(t.delta_3_ilp, 15);
            assert_eq!(t.delta_4_max, 20);
            assert_eq!(t.delta_3_max, 16);
        }
    }

    #[test]
    fn renders_are_nonempty() {
        assert!(table1().render().contains("µ3[c]"));
        assert!(table3().render().contains("Δ⁴"));
    }

    #[test]
    fn table1_csv_is_table_i() {
        let csv = table1().to_csv();
        assert!(csv.starts_with("c,mu1,mu2,mu3,mu4\n"));
        assert_eq!(csv.lines().count(), 5);
        // Row c = 4 of Table I: µ1[4] = 5, µ2[4] = 0, µ3[4] = 11, µ4[4] = 0.
        assert!(csv.contains("4,5,0,11,0"), "{csv}");
    }

    #[test]
    fn run_all_matches_individual_tables() {
        let all = run_all();
        assert_eq!(all.table1, table1());
        assert_eq!(all.table1, all.table1_ilp);
        assert_eq!(all.table2, table2());
        assert_eq!(all.table3, table3());
        assert_eq!(all.table3, all.table3_ilp);
    }
}
