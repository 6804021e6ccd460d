//! A002 fixture: a guard acquired as the value of an `if` branch that
//! initializes a `let` is bound by that `let`, and lives to the end of the
//! `let`'s block — not to the branch's closing brace. Blocking under it is
//! a finding (line 23); blocking after an explicit drop of it is none.

use cool_telemetry::lockorder::{rank, Locked, OrderedMutex, Unlocked};

pub struct Stack {
    writer: OrderedMutex<u32, rank::StackWriter>,
}

impl Stack {
    /// Flags: recv under `writer`, acquired in the `if` branch. Line 23.
    pub fn flush(&self, held: &mut Locked<Unlocked>, wait: bool) {
        let (g, _) = if wait {
            self.writer.lock(held)
        } else {
            match self.writer.try_lock(held) {
                Some(locked) => locked,
                None => return,
            }
        };
        let _ = self.rx.recv();
        touch(g);
    }

    /// Clean: the guard is dropped before the wait.
    pub fn flush_then_wait(&self, held: &mut Locked<Unlocked>, wait: bool) {
        let (g, _) = if wait { self.writer.lock(held) } else { return };
        drop(g);
        let _ = self.rx.recv();
    }
}
