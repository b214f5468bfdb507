//! Text-table rendering for the figure harness.
//!
//! Each figure prints a table whose rows are workloads and whose
//! columns are prefetcher configurations, mirroring the bar groups of
//! the paper's plots, with a geometric-mean column where the paper has
//! one.

use triangel_types::stats::geomean;

/// A figure-style table: workloads x configurations.
#[derive(Debug, Clone)]
pub struct FigureTable {
    title: String,
    metric: String,
    configs: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
    geomean_row: bool,
}

impl FigureTable {
    /// Creates a table with the given configuration columns.
    pub fn new(title: impl Into<String>, metric: impl Into<String>, configs: Vec<String>) -> Self {
        FigureTable {
            title: title.into(),
            metric: metric.into(),
            configs,
            rows: Vec::new(),
            geomean_row: true,
        }
    }

    /// Disables the geomean row (e.g. Fig. 17 has only two inputs).
    #[must_use]
    pub fn without_geomean(mut self) -> Self {
        self.geomean_row = false;
        self
    }

    /// Adds one workload row.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the configuration count.
    pub fn push_row(&mut self, workload: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.configs.len(), "row width mismatch");
        self.rows.push((workload.into(), values));
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The metric description.
    pub fn metric(&self) -> &str {
        &self.metric
    }

    /// The configuration (column) labels.
    pub fn configs(&self) -> &[String] {
        &self.configs
    }

    /// The workload rows: `(label, per-configuration values)`.
    pub fn rows(&self) -> &[(String, Vec<f64>)] {
        &self.rows
    }

    /// Whether a geomean row is rendered (and meaningful).
    pub fn has_geomean(&self) -> bool {
        self.geomean_row && self.rows.len() > 1
    }

    /// Returns the per-configuration geometric means over workloads.
    pub fn geomeans(&self) -> Vec<f64> {
        (0..self.configs.len())
            .map(|c| {
                let col: Vec<f64> = self.rows.iter().map(|(_, v)| v[c]).collect();
                geomean(&col).unwrap_or(f64::NAN)
            })
            .collect()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {}\n({})\n\n", self.title, self.metric));
        let w0 = self
            .rows
            .iter()
            .map(|(n, _)| n.len())
            .chain(["Geomean".len(), "Workload".len()])
            .max()
            .unwrap_or(8);
        let wc: Vec<usize> = self.configs.iter().map(|c| c.len().max(7)).collect();

        out.push_str(&format!("{:w0$}", "Workload"));
        for (c, w) in self.configs.iter().zip(&wc) {
            out.push_str(&format!("  {c:>w$}"));
        }
        out.push('\n');
        out.push_str(&"-".repeat(w0 + wc.iter().map(|w| w + 2).sum::<usize>()));
        out.push('\n');
        for (name, vals) in &self.rows {
            out.push_str(&format!("{name:w0$}"));
            for (v, w) in vals.iter().zip(&wc) {
                out.push_str(&format!("  {v:>w$.3}"));
            }
            out.push('\n');
        }
        if self.geomean_row && self.rows.len() > 1 {
            out.push_str(&format!("{:w0$}", "Geomean"));
            for (v, w) in self.geomeans().iter().zip(&wc) {
                out.push_str(&format!("  {v:>w$.3}"));
            }
            out.push('\n');
        }
        out
    }

    /// Convenience: render to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_with_geomean() {
        let mut t = FigureTable::new("Fig. 10", "Speedup", vec!["A".into(), "B".into()]);
        t.push_row("w1", vec![1.0, 2.0]);
        t.push_row("w2", vec![4.0, 8.0]);
        let s = t.render();
        assert!(s.contains("Fig. 10"));
        assert!(s.contains("Geomean"));
        let g = t.geomeans();
        assert!((g[0] - 2.0).abs() < 1e-12);
        assert!((g[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = FigureTable::new("t", "m", vec!["A".into()]);
        t.push_row("w", vec![1.0, 2.0]);
    }
}
