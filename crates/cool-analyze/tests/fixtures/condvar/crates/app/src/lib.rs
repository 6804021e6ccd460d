//! A006 fixture: condvar wait-graph — a wait nobody notifies, a bare
//! wait outside any predicate loop, a wait under a foreign ordered lock
//! (A002's), and the legal patterns (predicate loop, `*_while`, allow).

use cool_telemetry::lockorder::{rank, Locked, OrderedMutex, Unlocked};

/// `foreign` is a ranked lock: taking it takes a lock-order token.

pub struct S {
    done: Mutex<bool>,
    cv: Condvar,
    lonely: Condvar,
    bare: Condvar,
    foreign: OrderedMutex<u32, rank::Foreign>,
}

pub fn mk() -> S {
    S {
        done: Mutex::new(false),
        cv: Condvar::new(),
        lonely: Condvar::new(),
        bare: Condvar::new(),
        foreign: OrderedMutex::new(0),
    }
}

impl S {
    /// Clean: predicate loop, and `wake` notifies this condvar.
    pub fn wait_good(&self) {
        let mut g = self.done.lock().unwrap();
        while !*g {
            g = self.cv.wait(g).unwrap();
        }
    }

    pub fn wake(&self) {
        self.cv.notify_all();
    }

    /// No notify for `lonely` anywhere in the crate. Line 44.
    pub fn wait_lonely(&self) {
        let mut g = self.done.lock().unwrap();
        while !*g {
            g = self.lonely.wait(g).unwrap();
        }
    }

    /// Bare wait: no predicate loop, not a `*_while`. Line 51.
    pub fn wait_bare(&self) {
        let g = self.done.lock().unwrap();
        let _ = self.bare.wait(g);
    }

    pub fn wake_bare(&self) {
        self.bare.notify_one();
    }

    /// Waits while a foreign ordered lock stays held. Line 63.
    pub fn wait_under_foreign(&self, held: &mut Locked<Unlocked>) {
        let (f, _) = self.foreign.lock(held);
        let mut g = self.done.lock().unwrap();
        while !*g {
            g = self.cv.wait(g).unwrap();
        }
        touch(f);
    }

    /// Clean: the `*_while` variant re-checks its predicate internally.
    pub fn wait_while_ok(&self) {
        let g = self.done.lock().unwrap();
        let _ = self.cv.wait_while(g, |d| !*d);
    }

    /// Suppressed: the inline exemption covers exactly this site.
    pub fn allowed_bare(&self) {
        let g = self.done.lock().unwrap();
        // lint: allow(A006, fixture demonstrates the inline exemption)
        let _ = self.bare.wait(g);
    }
}

#[cfg(test)]
mod tests {
    /// Test code may wait bare; A006 must not look here.
    fn bare_in_test(s: &super::S) {
        let g = s.done.lock().unwrap();
        let _ = s.bare.wait(g);
    }
}
