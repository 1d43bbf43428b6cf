//! Minimal aligned-column text tables for experiment output.

/// A plain-text table with a title, headers, and rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            ..Default::default()
        }
    }

    /// Sets the column headers.
    pub fn headers<I, S>(mut self, headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.headers = headers.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a row.
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let measure = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        measure(&mut widths, &self.headers);
        for r in &self.rows {
            measure(&mut widths, r);
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        if !self.headers.is_empty() {
            out.push_str(&fmt_row(&self.headers, &widths));
            out.push('\n');
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
            out.push('\n');
        }
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a speed-up like `3.2x`.
pub fn speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats seconds adaptively (s / ms / µs).
pub fn secs(x: f64) -> String {
    if x >= 1.0 {
        format!("{x:.2}s")
    } else if x >= 1e-3 {
        format!("{:.1}ms", x * 1e3)
    } else {
        format!("{:.0}µs", x * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo").headers(["name", "value"]);
        t.row(["short", "1"]);
        t.row(["a-much-longer-name", "2"]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, two rows.
        assert_eq!(lines.len(), 5);
        // The value column starts at the same offset in both rows.
        let off3 = lines[3].find('1').unwrap();
        let off4 = lines[4].find('2').unwrap();
        assert_eq!(off3, off4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(speedup(3.204), "3.20x");
        assert_eq!(secs(2.5), "2.50s");
        assert_eq!(secs(0.0021), "2.1ms");
        assert_eq!(secs(1e-5), "10µs");
    }

    #[test]
    fn empty_table() {
        assert_eq!(Table::new("").render(), "");
    }
}
