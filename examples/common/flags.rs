//! Strict command-line flags for the examples: every argument must be a
//! known flag, and a valued flag must be followed by a value that parses.
//! Anything else prints the problem and exits with status 2 — a typo never
//! silently falls back to a default.

use std::collections::BTreeMap;

/// Parsed `--flag value` pairs and bare switches.
pub struct Flags {
    values: BTreeMap<String, String>,
}

impl Flags {
    /// Parses the process arguments: each of `valued` takes one value, each
    /// of `switches` takes none.
    pub fn parse(valued: &[&str], switches: &[&str]) -> Flags {
        let mut values = BTreeMap::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let value = if switches.contains(&arg.as_str()) {
                String::new()
            } else if valued.contains(&arg.as_str()) {
                match args.next() {
                    Some(value) if !value.starts_with("--") => value,
                    _ => fail(&format!("`{arg}` needs a value")),
                }
            } else {
                fail(&format!("unknown flag `{arg}`"))
            };
            values.insert(arg, value);
        }
        Flags { values }
    }

    /// The numeric value of `name`, or `default` when it was not given.
    pub fn number(&self, name: &str, default: usize) -> usize {
        match self.values.get(name) {
            Some(value) => value
                .parse()
                .unwrap_or_else(|_| fail(&format!("`{name}` expects a number, got `{value}`"))),
            None => default,
        }
    }

    /// The value of `name`, if it was given.
    #[allow(dead_code)]
    pub fn string(&self, name: &str) -> Option<String> {
        self.values.get(name).cloned()
    }

    /// Whether the switch `name` was given.
    #[allow(dead_code)]
    pub fn switch(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}
