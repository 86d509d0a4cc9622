//! The one flag parser of the `rcv-bench` binaries: take what you know by
//! name, then [`Flags::finish`] rejects whatever is left. Errors are
//! strings; every binary's [`main`] prints them above its usage text and
//! exits 2.

use std::process::ExitCode;
use std::str::FromStr;

/// The `main` of every binary: `run`'s exit code, or on an error the error
/// above `usage` and exit code 2.
pub fn main(name: &str, usage: &str, run: impl FnOnce() -> Result<ExitCode, String>) -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("{name}: {e}\n{usage}");
        ExitCode::from(2)
    })
}

/// A command line, consumed flag by flag.
pub struct Flags(Vec<String>);

impl Flags {
    /// The process's own arguments.
    pub fn from_env() -> Self {
        Flags(std::env::args().skip(1).collect())
    }

    /// Takes the boolean flag `name`; whether it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    /// Takes `name VALUE` if given (the last occurrence wins).
    pub fn opt<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let mut found = None;
        while let Some(i) = self.0.iter().position(|a| a == name) {
            if i + 1 == self.0.len() {
                return Err(format!("{name} needs a value"));
            }
            let v = self.0.remove(i + 1);
            self.0.remove(i);
            found = Some(
                v.parse()
                    .map_err(|_| format!("bad value {v:?} for {name}"))?,
            );
        }
        Ok(found)
    }

    /// Takes `name VALUE`, or `default` when the flag is absent.
    pub fn value<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// Takes every remaining argument that is not a flag. Call after the
    /// valued flags, whose values would otherwise look positional.
    pub fn positionals(&mut self) -> Vec<String> {
        let (flags, positionals) = std::mem::take(&mut self.0)
            .into_iter()
            .partition(|a| a.starts_with('-'));
        self.0 = flags;
        positionals
    }

    /// Everything must have been taken by now.
    pub fn finish(self) -> Result<(), String> {
        match self.0.first() {
            Some(arg) => Err(format!("unknown argument {arg}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn takes_by_name_and_rejects_the_rest() {
        let mut f = flags(&["--n", "3", "--list", "a.json", "--n", "4", "--typo"]);
        assert_eq!(f.value("--n", 1usize), Ok(4), "last occurrence wins");
        assert_eq!(f.value("--rounds", 2u32), Ok(2), "absent: the default");
        assert!(f.flag("--list") && !f.flag("--list"));
        assert_eq!(f.positionals(), ["a.json"]);
        assert_eq!(f.finish(), Err("unknown argument --typo".into()));

        assert!(flags(&[]).finish().is_ok());
        assert_eq!(
            flags(&["--n"]).opt::<usize>("--n"),
            Err("--n needs a value".into())
        );
        assert_eq!(
            flags(&["--n", "x"]).opt::<usize>("--n"),
            Err("bad value \"x\" for --n".into())
        );
    }
}
