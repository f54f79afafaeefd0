//! A minimal `--flag value` argument parser (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: a subcommand, positional arguments, and
/// `--key value` / `--switch` options.
#[derive(Debug, Default)]
pub struct Args {
    pub command: Option<String>,
    pub positional: Vec<String>,
    options: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `argv[1..]`: the first non-flag token is the subcommand,
    /// later non-flag tokens are positional. A `--key` followed by a
    /// non-flag token consumes it as the value; a trailing or
    /// flag-followed `--key` is a boolean switch.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut iter = argv.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = iter.next().expect("peeked");
                        out.options.insert(key.to_owned(), value);
                    }
                    _ => out.switches.push(key.to_owned()),
                }
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else {
                out.positional.push(tok);
            }
        }
        out
    }

    /// A typed option with a default.
    ///
    /// Exits with status 2 on a malformed value, printing the type's own
    /// parse error (e.g. an unknown `--scan-kernel` name lists the valid
    /// set). Use [`Args::try_get`] where the caller wants the error
    /// instead of the exit.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        self.try_get(key, default).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// [`Args::get`] that surfaces the parse failure instead of exiting:
    /// `Err` carries `--key value: <the type's parse error>`.
    pub fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.options.get(key) {
            Some(raw) => raw.parse().map_err(|e| format!("--{key} {raw}: {e}")),
            None => Ok(default),
        }
    }

    /// A string option.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a boolean switch was passed.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_command_and_positionals() {
        let a = parse("cluster input.txt more.txt");
        assert_eq!(a.command.as_deref(), Some("cluster"));
        assert_eq!(a.positional, vec!["input.txt", "more.txt"]);
    }

    #[test]
    fn parses_typed_options() {
        let a = parse("generate --sequences 500 --avg-len 120");
        assert_eq!(a.get("sequences", 0usize), 500);
        assert_eq!(a.get("avg-len", 0usize), 120);
        assert_eq!(a.get("missing", 7u32), 7);
    }

    #[test]
    fn parses_switches() {
        let a = parse("cluster --verbose --seed 3 --quiet");
        assert!(a.has("verbose"));
        assert!(a.has("quiet"));
        assert!(!a.has("seed"));
        assert_eq!(a.get("seed", 0u64), 3);
    }

    #[test]
    fn empty_argv() {
        let a = parse("");
        assert!(a.command.is_none());
        assert!(a.positional.is_empty());
    }

    #[test]
    fn try_get_surfaces_parse_errors_with_flag_context() {
        let a = parse("cluster --sequences banana");
        let err = a.try_get("sequences", 0usize).unwrap_err();
        assert!(err.starts_with("--sequences banana:"), "{err}");
        assert_eq!(a.try_get("missing", 7u32), Ok(7));
    }

    #[test]
    fn unknown_scan_kernel_error_lists_the_valid_set() {
        use cluseq_core::ScanKernel;
        let a = parse("cluster data.txt --scan-kernel warp");
        let err = a.try_get("scan-kernel", ScanKernel::Compiled).unwrap_err();
        assert!(err.starts_with("--scan-kernel warp:"), "{err}");
        for name in ["interpreted", "compiled"] {
            assert!(err.contains(name), "{err} should list {name}");
        }
        // The retired kernel names are rejected the same way, and the
        // error says where lane batching went.
        for retired in ["batched", "quantized"] {
            let a = parse(&format!("cluster data.txt --scan-kernel {retired}"));
            let err = a.try_get("scan-kernel", ScanKernel::Compiled).unwrap_err();
            assert!(err.contains("interpreted|compiled"), "{err}");
            assert!(err.contains("lane batching is now automatic"), "{err}");
        }
        // Both valid names parse.
        for kernel in ScanKernel::ALL {
            let a = parse(&format!("cluster data.txt --scan-kernel {kernel}"));
            assert_eq!(a.try_get("scan-kernel", ScanKernel::Compiled), Ok(kernel));
        }
    }
}
