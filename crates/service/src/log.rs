//! Diagnostic lines on stderr that can never take a thread down.
//!
//! `eprintln!` panics when stderr is gone — for instance when a worker's
//! stderr is piped into a `head` that has exited. In a session, relay or
//! accept thread that panic kills the thread mid-protocol and can leave
//! its peers waiting forever, so every log line in the service and the
//! broker goes through [`log_line!`](crate::log_line), which drops write
//! errors instead.

use std::fmt;
use std::io::Write;

/// Writes `args` and a newline to `w`, ignoring any write error.
pub fn write_line(w: &mut dyn Write, args: fmt::Arguments<'_>) {
    let _ = writeln!(w, "{args}");
}

/// `eprintln!` that ignores write errors (see [`log`](crate::log)).
#[macro_export]
macro_rules! log_line {
    ($($arg:tt)*) => {
        $crate::log::write_line(&mut ::std::io::stderr().lock(), format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    /// A writer whose every write fails, like stderr after its reader
    /// has exited.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn a_failing_writer_does_not_panic() {
        write_line(&mut ClosedPipe, format_args!("serve: job {:016x}", 7));
    }

    #[test]
    fn a_line_is_written_with_a_newline() {
        let mut out = Vec::new();
        write_line(&mut out, format_args!("broker: {} campaign(s)", 2));
        assert_eq!(out, b"broker: 2 campaign(s)\n");
    }
}
