//! Strict command-line flags: every argument must be a known flag, and a
//! valued flag must be followed by a value that is not itself a flag.
//! Anything else is an error — a typo never silently falls back to a
//! default.  Every command-line surface of the workspace (the `gauntlet`
//! binary and the benchmark trajectory) parses through this one type.

use std::collections::BTreeMap;

/// Parsed `--flag value` pairs and bare switches.
pub struct Flags {
    /// Every value given for each flag, in command-line order; a switch
    /// maps to an empty list.
    values: BTreeMap<String, Vec<String>>,
}

impl Flags {
    /// Parses `args`: each of `valued` takes one value (and may repeat),
    /// each of `switches` takes none.
    pub fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut values: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let given = values.entry(arg.clone()).or_default();
            if valued.contains(&arg.as_str()) {
                match args.next() {
                    Some(value) if !value.starts_with("--") => given.push(value.clone()),
                    _ => return Err(format!("`{arg}` needs a value")),
                }
            } else if !switches.contains(&arg.as_str()) {
                return Err(format!("unknown flag `{arg}`"));
            }
        }
        Ok(Flags { values })
    }

    /// The last value of `name`, if it was given.
    pub fn string(&self, name: &str) -> Option<String> {
        self.all(name).last().cloned()
    }

    /// Every value of the repeatable flag `name`, in order.
    pub fn all(&self, name: &str) -> &[String] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    /// The last value of `name` parsed as a number, if it was given.
    pub fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.string(name)
            .map(|value| {
                value
                    .parse()
                    .map_err(|_| format!("`{name}` expects a number, got `{value}`"))
            })
            .transpose()
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_repeat_in_order_and_only_flags_are_accepted() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|arg| arg.to_string()).collect();
            Flags::parse(&args, &["--seeds", "--target"], &["--quiet"])
        };
        let flags = parse(&[
            "--target", "a", "--seeds", "5", "--target", "b", "--seeds", "7", "--quiet",
        ])
        .expect("parses");
        assert_eq!(flags.all("--target"), ["a", "b"]);
        assert_eq!(flags.number::<usize>("--seeds"), Ok(Some(7)));
        assert_eq!(flags.number::<usize>("--absent"), Ok(None));
        assert!(flags.switch("--quiet"));
        // The command-line suite covers the other malformed inputs through
        // the binary; a bare positional argument is rejected too.
        assert!(parse(&["stray"]).is_err());
    }
}
