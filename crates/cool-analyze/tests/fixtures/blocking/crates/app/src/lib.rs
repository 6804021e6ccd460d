//! A002 fixture: blocking operations under live guards, the fixed
//! take-then-join pattern (`OrbServer::close` once joined its threads
//! under its lock), and the inline exemption. A guard is a ranked one:
//! taken with a lock-order token.

use cool_telemetry::lockorder::{rank, Locked, OrderedMutex, Unlocked};

pub struct Q {
    handle: OrderedMutex<u32, rank::QHandle>,
}

pub fn mk() -> Q {
    Q {
        handle: OrderedMutex::new(0),
    }
}

impl Q {
    /// Flags: channel recv while the guard is live. Line 22.
    pub fn bad_recv(&self, held: &mut Locked<Unlocked>) {
        let (g, _) = self.handle.lock(held);
        let _ = self.rx.recv();
        touch(g);
    }

    /// Flags: join under an if-let scrutinee guard (the temporary lives
    /// through the whole construct). Line 30.
    pub fn bad_join(&self, held: &mut Locked<Unlocked>) {
        if let Some(h) = self.handle.lock(held).0.take() {
            let _ = h.join();
        }
    }

    fn waits(&self) {
        let _ = self.rx.recv();
    }

    /// Flags: the blocking happens one call down. Line 41.
    pub fn bad_via_call(&self, held: &mut Locked<Unlocked>) {
        let (g, _) = self.handle.lock(held);
        self.waits();
        touch(g);
    }

    /// Clean: the fixed pattern — take the handle under the lock, join
    /// with the lock released (the guard is a statement temporary).
    pub fn good_join(&self, held: &mut Locked<Unlocked>) {
        let h = self.handle.lock(held).0.take();
        if let Some(h) = h {
            let _ = h.join();
        }
    }

    /// Clean: explicit drop releases the guard before blocking.
    pub fn good_recv(&self, held: &mut Locked<Unlocked>) {
        let (g, _) = self.handle.lock(held);
        drop(g);
        let _ = self.rx.recv();
    }

    /// Suppressed: the inline exemption covers exactly this site.
    pub fn allowed_recv(&self, held: &mut Locked<Unlocked>) {
        let (g, _) = self.handle.lock(held);
        // lint: allow(A002, fixture demonstrates the inline exemption)
        let _ = self.rx.recv();
        touch(g);
    }
}
