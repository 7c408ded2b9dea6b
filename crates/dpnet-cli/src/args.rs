//! Minimal flag parsing for the CLI (no external dependencies).
//!
//! Grammar: `dpnet <command> [positional ...] [--flag value ...]`. A flag
//! followed by another flag (or by nothing) is a bare boolean and parses
//! as the value `"true"` — so `dpnet explain fig1 --analyze` works without
//! an explicit `--analyze true`. Each command names the flags it reads
//! ([`Args::only_flags`]); any other flag is an error.

use std::collections::HashMap;

/// Parsed invocation: a command, positional arguments, and `--key value`
/// flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The subcommand name.
    pub command: String,
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// `--key value` flags.
    pub flags: HashMap<String, String>,
}

/// Errors from argument parsing.
#[derive(Debug, PartialEq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no command given"),
        }
    }
}

impl Args {
    /// Parse an argument vector (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, ArgError> {
        let mut it = argv.into_iter().peekable();
        let command = it.next().ok_or(ArgError::MissingCommand)?;
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                // A flag trailed by another flag or by nothing is a bare
                // boolean: `--analyze` parses as `--analyze true`.
                let value = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().expect("peeked"),
                    _ => "true".to_string(),
                };
                flags.insert(name.to_string(), value);
            } else {
                positional.push(tok);
            }
        }
        Ok(Args {
            command,
            positional,
            flags,
        })
    }

    /// Fail naming the first flag (in name order) that is not in `known`,
    /// the flags the command reads: a mistyped or retired flag must not be
    /// silently ignored.
    pub fn only_flags(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .keys()
            .filter(|f| !known.contains(&f.as_str()))
            .min()
        {
            Some(flag) => Err(format!("unknown flag --{flag} for '{}'", self.command)),
            None => Ok(()),
        }
    }

    /// A flag parsed to some type, with a default.
    pub fn flag_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value '{raw}' for --{name}")),
        }
    }

    /// A required positional argument.
    pub fn positional(&self, index: usize, name: &str) -> Result<&str, String> {
        self.positional
            .get(index)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing <{name}> argument"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn commands_positionals_and_flags() {
        let a = parse(&["analyze", "trace.dpnt", "--budget", "1.5", "--seed", "7"]).unwrap();
        assert_eq!(a.command, "analyze");
        assert_eq!(a.positional, vec!["trace.dpnt"]);
        assert_eq!(a.flags["budget"], "1.5");
        assert_eq!(a.flag_or("budget", 0.0f64).unwrap(), 1.5);
        assert_eq!(a.flag_or("seed", 0u64).unwrap(), 7);
        assert_eq!(a.flag_or("missing", 42u64).unwrap(), 42);
    }

    #[test]
    fn missing_command_is_an_error() {
        assert_eq!(parse(&[]), Err(ArgError::MissingCommand));
    }

    #[test]
    fn bare_flags_parse_as_booleans() {
        // Trailing flag, flag before another flag, and the explicit form.
        let a = parse(&["explain", "fig1", "--analyze"]).unwrap();
        assert_eq!(a.flags["analyze"], "true");
        assert!(a.flag_or("analyze", false).unwrap());
        let a = parse(&["explain", "fig1", "--analyze", "--format", "json"]).unwrap();
        assert_eq!(a.flags["analyze"], "true");
        assert_eq!(a.flags["format"], "json");
        let a = parse(&["explain", "fig1", "--analyze", "false"]).unwrap();
        assert!(!a.flag_or("analyze", true).unwrap());
        // A value-taking flag left bare now fails at typed access, not
        // at the parser: the token "true" is not a number.
        let a = parse(&["generate", "--seed"]).unwrap();
        assert!(a.flag_or("seed", 0u64).is_err());
    }

    #[test]
    fn bad_flag_values_surface_cleanly() {
        let a = parse(&["x", "--n", "abc"]).unwrap();
        assert!(a.flag_or("n", 1u32).is_err());
    }

    #[test]
    fn flags_outside_the_known_set_are_named() {
        let a = parse(&["profile", "fig1", "--workers", "4", "--zz", "1", "--bogus"]).unwrap();
        let err = a.only_flags(&["workers"]).unwrap_err();
        assert_eq!(err, "unknown flag --bogus for 'profile'");
        assert!(a.only_flags(&["workers", "zz", "bogus"]).is_ok());
        assert!(parse(&["inspect", "f"]).unwrap().only_flags(&[]).is_ok());
    }

    #[test]
    fn positional_access_is_checked() {
        let a = parse(&["inspect"]).unwrap();
        assert!(a.positional(0, "file").is_err());
    }
}
