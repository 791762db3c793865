//! The command-line grammar: one declarative row per verb ([`Verb`]),
//! one parser ([`parse`]) that checks a command line against its row,
//! and the renderers that turn the same rows into the `--help` text and
//! the usage errors — so what the help shows, what the parser accepts
//! and what the verbs read cannot drift apart.

use faircrowd::model::FaircrowdError;

/// One flag a verb accepts. `help` may hold `\n` continuation lines.
pub struct Flag {
    pub name: &'static str,
    /// The value's placeholder; `None` makes the flag a switch.
    pub metavar: Option<&'static str>,
    /// Whether the flag may be given more than once (`--enforce` only).
    pub repeatable: bool,
    pub help: &'static str,
}

pub const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        metavar: None,
        ..value(name, "", help)
    }
}

pub const fn value(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        metavar: Some(metavar),
        repeatable: false,
        help,
    }
}

impl Flag {
    /// `--name METAVAR`, or `--name` for a switch.
    pub fn spelled(&self) -> String {
        match self.metavar {
            Some(m) => format!("{} {m}", self.name),
            None => self.name.to_owned(),
        }
    }
}

/// One verb's row in the command table. `summary` may hold `\n`
/// continuation lines.
pub struct Verb {
    pub name: &'static str,
    pub summary: &'static str,
    /// Positional arguments as the help shows them; a last name ending
    /// in `...` takes one or more.
    pub positionals: &'static [&'static str],
    /// The market flags several verbs share, listed once in the help
    /// as `OPTS`; empty for every other verb.
    pub shared: &'static [Flag],
    pub flags: &'static [Flag],
    pub run: fn(&Args) -> Result<(), FaircrowdError>,
}

impl Verb {
    pub fn all_flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.shared.iter().chain(self.flags)
    }

    pub fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.all_flags().find(|f| f.name == name)
    }

    /// `faircrowd <verb> <positionals>`.
    fn invocation(&self) -> String {
        let words = std::iter::once(self.name).chain(self.positionals.iter().copied());
        format!("faircrowd {}", words.collect::<Vec<_>>().join(" "))
    }

    /// `faircrowd <verb> <positionals> [--flag M]...` with every flag
    /// spelled out: the usage line the parser's errors quote.
    fn synopsis(&self) -> String {
        let mut line = self.invocation();
        for flag in self.all_flags() {
            let dots = if flag.repeatable { "..." } else { "" };
            line.push_str(&format!(" [{}]{dots}", flag.spelled()));
        }
        line
    }

    fn usage_error(&self, head: String) -> FaircrowdError {
        FaircrowdError::usage(format!("{head}; usage: {}", self.synopsis()))
    }
}

/// A command line that fits its verb's row.
pub struct Args {
    verb: &'static Verb,
    /// As many as the row's positionals allow.
    pub positionals: Vec<String>,
    given: Vec<(&'static str, Option<String>)>,
}

/// Check `argv` (the words after the verb) against `verb`'s row.
/// `Ok(None)` means `-h`/`--help` appeared somewhere: show the usage.
pub fn parse(verb: &'static Verb, argv: &[String]) -> Result<Option<Args>, FaircrowdError> {
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        return Ok(None);
    }
    let (mut positionals, mut given) = (Vec::new(), Vec::new());
    let mut words = argv.iter();
    while let Some(word) = words.next() {
        if !word.starts_with("--") {
            positionals.push(word.clone());
            continue;
        }
        let flag = verb.flag(word).ok_or_else(|| unknown_flag(verb, word))?;
        if !flag.repeatable && given.iter().any(|(name, _)| *name == flag.name) {
            return Err(verb.usage_error(format!("{word} given more than once")));
        }
        let value = match flag.metavar {
            None => None,
            // A `--flag` in the value's place means the value is
            // missing; single-dash words such as `-1` are values.
            Some(m) => match words.next() {
                Some(v) if !v.starts_with("--") => Some(v.clone()),
                _ => return Err(verb.usage_error(format!("{word} requires a value ({m})"))),
            },
        };
        given.push((flag.name, value));
    }
    let min = verb.positionals.len();
    let list = verb.positionals.last().is_some_and(|p| p.ends_with("..."));
    if let Some(extra) = positionals.get(min).filter(|_| !list) {
        return Err(verb.usage_error(format!("unexpected argument `{extra}`")));
    }
    if positionals.len() < min {
        return Err(verb.usage_error("missing arguments".to_owned()));
    }
    Ok(Some(Args {
        verb,
        positionals,
        given,
    }))
}

/// The error for a flag `verb` does not declare, naming the verbs that
/// do — read off the table, like the usage line it ends with.
fn unknown_flag(verb: &Verb, word: &str) -> FaircrowdError {
    let owners: Vec<String> = crate::VERBS
        .iter()
        .filter(|v| v.flag(word).is_some())
        .map(|v| format!("`faircrowd {}`", v.name))
        .collect();
    let name = verb.name;
    verb.usage_error(if owners.is_empty() {
        format!("unknown flag `{word}` for `faircrowd {name}`")
    } else {
        let owners = owners.join(", ");
        format!("`faircrowd {name}` does not take `{word}` (accepted by {owners})")
    })
}

impl Args {
    /// The name of `name`'s row entry. Reading a flag the row does not
    /// declare is a bug: the help would not show it, and the parser
    /// would reject it, so in release builds it reads as never given.
    fn declared(&self, name: &str, takes_value: bool) -> &'static str {
        let flag = self.verb.flag(name);
        debug_assert!(
            flag.is_some_and(|f| f.metavar.is_some() == takes_value),
            "`{name}` is not declared as a {} of `faircrowd {}`",
            if takes_value { "value flag" } else { "switch" },
            self.verb.name
        );
        flag.map_or("", |f| f.name)
    }

    /// The flags given, in command-line order.
    pub fn given(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.given.iter().map(|(name, _)| *name)
    }

    pub fn switch(&self, name: &str) -> bool {
        let name = self.declared(name, false);
        self.given().any(|n| n == name)
    }

    pub fn value(&self, name: &str) -> Option<&str> {
        self.all(name).next()
    }

    /// Every value of a repeatable flag, in order.
    pub fn all(&self, name: &str) -> impl Iterator<Item = &str> {
        let name = self.declared(name, true);
        self.given
            .iter()
            .filter(move |(n, _)| *n == name)
            .filter_map(|(_, v)| v.as_deref())
    }

    pub fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, FaircrowdError> {
        match self.value(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| FaircrowdError::usage(format!("invalid value `{raw}` for {name}"))),
        }
    }

    /// A count-like flag (`--jobs`, `--idle-ms`, …): zero and
    /// non-numeric values get one wording on every verb.
    pub fn positive(&self, name: &str, default: u64) -> Result<u64, FaircrowdError> {
        match self.value(name).map(|raw| (raw, raw.parse::<u64>())) {
            None => Ok(default),
            Some((_, Ok(n))) if n > 0 => Ok(n),
            Some((raw, _)) => Err(FaircrowdError::usage(format!(
                "invalid value `{raw}` for {name}: expected a positive integer"
            ))),
        }
    }
}

/// The `USAGE:` block: one row per verb with its own flags beneath it,
/// then the shared market flags once, as `OPTS`.
pub fn render(verbs: &[Verb]) -> String {
    let mut out = String::from("USAGE:\n");
    for verb in verbs {
        let opts = (!verb.shared.is_empty()).then_some(" [OPTS]");
        let left = format!("{}{}", verb.invocation(), opts.unwrap_or(""));
        row(&mut out, 2, &left, 39, verb.summary);
        for flag in verb.flags {
            row(&mut out, 6, &flag.spelled(), 21, flag.help);
        }
    }
    let users: Vec<&Verb> = verbs.iter().filter(|v| !v.shared.is_empty()).collect();
    let names: Vec<&str> = users.iter().map(|v| v.name).collect();
    out.push_str(&format!("\nOPTS ({}):\n", names.join(", ")));
    for flag in users.first().map_or(&[][..], |v| v.shared) {
        row(&mut out, 2, &flag.spelled(), 21, flag.help);
    }
    out
}

/// `left` after `indent` spaces, padded to `width`, then `text` with its
/// continuation lines aligned under its first.
fn row(out: &mut String, indent: usize, left: &str, width: usize, text: &str) {
    let pad = width.saturating_sub(left.chars().count()).max(2);
    for (i, line) in text.lines().enumerate() {
        match i {
            0 => out.push_str(&format!("{:indent$}{left}{:pad$}{line}\n", "", "")),
            _ => out.push_str(&format!("{:hang$}{line}\n", "", hang = indent + width)),
        }
    }
}
