//! A006 fixture: condvar wait-graph — a wait on a condvar nobody
//! notifies, the legal pattern, and the inline allow.

use cool_telemetry::blocking;
use cool_telemetry::lockorder::{Locked, Unlocked};

pub struct S {
    done: Mutex<bool>,
    cv: Condvar,
    lonely: Condvar,
}

pub fn mk() -> S {
    S {
        done: Mutex::new(false),
        cv: Condvar::new(),
        lonely: Condvar::new(),
    }
}

impl S {
    /// Clean: `wake` notifies this condvar.
    pub fn wait_good(&self, held: &mut Locked<Unlocked>) {
        let mut g = self.done.lock();
        blocking::wait_while(held, &self.cv, &mut g, |done| !*done);
    }

    pub fn wake(&self) {
        self.cv.notify_all();
    }

    /// No notify for `lonely` anywhere in the crate. Line 35.
    pub fn wait_lonely(&self, held: &mut Locked<Unlocked>, deadline: Instant) {
        let mut g = self.done.lock();
        blocking::wait_while_until(held, &self.lonely, &mut g, deadline, |done| !*done);
    }

    /// Suppressed: the inline exemption covers exactly this site.
    pub fn allowed_lonely(&self, held: &mut Locked<Unlocked>) {
        let mut g = self.done.lock();
        // lint: allow(A006, fixture demonstrates the inline exemption)
        blocking::wait_while(held, &self.lonely, &mut g, |done| !*done);
    }
}

#[cfg(test)]
mod tests {
    /// Test code may wait on anything; A006 must not look here.
    fn lonely_in_test(s: &super::S) {
        let mut g = s.done.lock();
        blocking::wait_while(Locked::root(), &s.lonely, &mut g, |done| !*done);
    }
}
