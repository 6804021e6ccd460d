//! A002 fixture: blocking operations under live guards, the fixed
//! take-then-join pattern, and the inline exemption.

pub mod rank {
    pub const HANDLE: Rank = Rank::new(10, "q.handle");
}

pub struct Q {
    handle: OrderedMutex<u32>,
}

pub fn mk() -> Q {
    Q {
        handle: OrderedMutex::new(rank::HANDLE, 0),
    }
}

impl Q {
    /// Flags: channel recv while the guard is live. Line 22.
    pub fn bad_recv(&self) {
        let g = self.handle.lock();
        let _ = self.rx.recv();
        touch(g);
    }

    /// Flags: join under an if-let scrutinee guard (the temporary lives
    /// through the whole construct). Line 30.
    pub fn bad_join(&self) {
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
    }

    fn waits(&self) {
        let _ = self.rx.recv();
    }

    /// Flags: the blocking happens one call down. Line 41.
    pub fn bad_via_call(&self) {
        let g = self.handle.lock();
        self.waits();
        touch(g);
    }

    /// Clean: the fixed pattern — take the handle under the lock, join
    /// with the lock released (the guard is a statement temporary).
    pub fn good_join(&self) {
        let h = self.handle.lock().take();
        if let Some(h) = h {
            let _ = h.join();
        }
    }

    /// Clean: explicit drop releases the guard before blocking.
    pub fn good_recv(&self) {
        let g = self.handle.lock();
        drop(g);
        let _ = self.rx.recv();
    }

    /// Suppressed: the inline exemption covers exactly this site.
    pub fn allowed_recv(&self) {
        let g = self.handle.lock();
        // lint: allow(A002, fixture demonstrates the inline exemption)
        let _ = self.rx.recv();
        touch(g);
    }
}
