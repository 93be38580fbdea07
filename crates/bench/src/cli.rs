//! The one flag parser behind every `figures` subcommand.
//!
//! Before this module, the `figures` binary hand-parsed flags three
//! different ways (the default targets command and two subcommands),
//! each with its own error handling and its own chance to drift from the
//! `--help` text. Here, each subcommand declares its flags once as a
//! [`SubcommandSpec`]; [`parse`] validates any argument vector against a
//! spec, and [`render_help`] generates the usage text from the same table
//! — so the parser and the help can't disagree.
//!
//! The grammar is deliberately small (it is a benchmark harness, not a
//! general CLI framework): long flags only, every flag either boolean or
//! taking exactly one value, values as the following argument, repeated
//! flags keep the last value, and anything not starting with `--` is a
//! positional.

/// One flag of a subcommand.
#[derive(Clone, Copy, Debug)]
pub struct FlagDef {
    /// The flag, with leading dashes (e.g. `"--threads"`).
    pub name: &'static str,
    /// The value's metavariable (e.g. `"N"` or `"a,b,c"`); `None` makes
    /// this a boolean flag.
    pub value: Option<&'static str>,
    /// One-line description for the help text.
    pub help: &'static str,
}

/// One subcommand: its name, what it does, and every flag it accepts.
#[derive(Clone, Copy, Debug)]
pub struct SubcommandSpec {
    /// Subcommand word (`"torture"`), or `""` for the default command.
    pub name: &'static str,
    /// Positional-argument metavariable (e.g. `"targets..."`), if any.
    pub positional: Option<&'static str>,
    /// One-line summary for the help text.
    pub summary: &'static str,
    /// Every flag the subcommand accepts.
    pub flags: &'static [FlagDef],
}

/// The result of parsing an argument vector against a [`SubcommandSpec`].
#[derive(Clone, Debug, Default)]
pub struct ParsedArgs {
    /// `(flag name, value)` pairs; boolean flags store an empty value.
    flags: Vec<(String, String)>,
    /// Non-flag arguments, in order.
    positionals: Vec<String>,
}

/// Parses `args` (without the program or subcommand name) against `spec`.
///
/// # Errors
///
/// A human-readable message on an unknown flag, a value flag at the end of
/// the line, or a positional where the spec allows none.
pub fn parse(spec: &SubcommandSpec, args: &[String]) -> Result<ParsedArgs, String> {
    let mut out = ParsedArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(def) = spec.flags.iter().find(|d| d.name == arg.as_str()) {
            let value = if def.value.is_some() {
                it.next()
                    .ok_or_else(|| format!("{} needs a value", def.name))?
                    .clone()
            } else {
                String::new()
            };
            out.flags.push((arg.clone(), value));
        } else if arg.starts_with("--") {
            let ctx = if spec.name.is_empty() {
                "figures".to_string()
            } else {
                format!("figures {}", spec.name)
            };
            return Err(format!("unknown flag {arg} for `{ctx}` (see --help)"));
        } else if spec.positional.is_some() {
            out.positionals.push(arg.clone());
        } else {
            return Err(format!(
                "`figures {}` takes no positional arguments, got `{arg}`",
                spec.name
            ));
        }
    }
    Ok(out)
}

impl ParsedArgs {
    /// Whether the flag appeared at all.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The flag's value (last occurrence wins), if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The flag's value parsed as `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// A message naming the flag when the value does not parse.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} needs a valid value, got `{v}`")),
        }
    }

    /// The flag's value split on commas and parsed element-wise, or
    /// `default` when absent.
    ///
    /// # Errors
    ///
    /// A message naming the flag when any element does not parse.
    pub fn parsed_list<T: std::str::FromStr>(
        &self,
        name: &str,
        default: Vec<T>,
    ) -> Result<Vec<T>, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| format!("{name}: invalid element `{s}`"))
                })
                .collect(),
        }
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

/// Renders the complete usage text from the subcommand table — every
/// subcommand, every flag, one source of truth.
pub fn render_help(title: &str, specs: &[SubcommandSpec]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push_str("\n\nUSAGE:\n");
    for spec in specs {
        let mut line = String::from("  figures");
        if !spec.name.is_empty() {
            line.push(' ');
            line.push_str(spec.name);
        }
        if let Some(pos) = spec.positional {
            line.push_str(" [");
            line.push_str(pos);
            line.push(']');
        }
        if !spec.flags.is_empty() {
            line.push_str(" [flags]");
        }
        out.push_str(&line);
        out.push('\n');
    }
    for spec in specs {
        out.push('\n');
        if spec.name.is_empty() {
            out.push_str(&format!("FIGURES (default command) — {}\n", spec.summary));
        } else {
            out.push_str(&format!(
                "{} — {}\n",
                spec.name.to_uppercase(),
                spec.summary
            ));
        }
        for def in spec.flags {
            let left = match def.value {
                Some(meta) => format!("{} {meta}", def.name),
                None => def.name.to_string(),
            };
            out.push_str(&format!("  {left:<26} {}\n", def.help));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[FlagDef] = &[
        FlagDef {
            name: "--threads",
            value: Some("a,b,c"),
            help: "thread counts",
        },
        FlagDef {
            name: "--paper",
            value: None,
            help: "paper scale",
        },
        FlagDef {
            name: "--scale",
            value: Some("F"),
            help: "scale factor",
        },
    ];

    const SPEC: SubcommandSpec = SubcommandSpec {
        name: "",
        positional: Some("targets..."),
        summary: "regenerate figures",
        flags: FLAGS,
    };

    const NO_POS: SubcommandSpec = SubcommandSpec {
        name: "trace",
        positional: None,
        summary: "event dump",
        flags: FLAGS,
    };

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_values_and_positionals_parse() {
        let p = parse(
            &SPEC,
            &argv(&["fig6", "--threads", "1,2,4", "--paper", "kv"]),
        )
        .expect("parse");
        assert!(p.has("--paper"));
        assert!(!p.has("--scale"));
        assert_eq!(p.value("--threads"), Some("1,2,4"));
        assert_eq!(p.positionals(), &["fig6".to_string(), "kv".to_string()]);
        assert_eq!(
            p.parsed_list::<usize>("--threads", vec![]).unwrap(),
            vec![1, 2, 4]
        );
        assert_eq!(p.parsed::<f64>("--scale", 0.4).unwrap(), 0.4);
    }

    #[test]
    fn last_occurrence_of_a_repeated_flag_wins() {
        let p = parse(&SPEC, &argv(&["--scale", "0.1", "--scale", "0.2"])).expect("parse");
        assert_eq!(p.parsed::<f64>("--scale", 0.0).unwrap(), 0.2);
    }

    #[test]
    fn errors_name_the_problem() {
        assert!(parse(&SPEC, &argv(&["--bogus"]))
            .unwrap_err()
            .contains("--bogus"));
        assert!(parse(&SPEC, &argv(&["--threads"]))
            .unwrap_err()
            .contains("--threads"));
        assert!(parse(&NO_POS, &argv(&["stray"]))
            .unwrap_err()
            .contains("positional"));
        let p = parse(&SPEC, &argv(&["--scale", "abc"])).expect("parse");
        assert!(p.parsed::<f64>("--scale", 0.0).is_err());
        assert!(p.parsed_list::<u64>("--scale", vec![]).is_err());
    }

    #[test]
    fn help_lists_every_subcommand_and_flag() {
        let help = render_help("figures — harness", &[SPEC, NO_POS]);
        assert!(help.contains("figures [targets...]"));
        assert!(help.contains("figures trace"));
        assert!(help.contains("TRACE — event dump"));
        assert!(help.contains("--threads a,b,c"));
        assert!(help.contains("--paper"));
        assert!(help.contains("scale factor"));
    }
}
