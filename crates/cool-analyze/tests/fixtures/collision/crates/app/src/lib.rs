//! A002 fixture: a ranked guard is known by the token its acquisition
//! takes, not by its field's name. `Plain::state` is a plain mutex named
//! like the two ranked `state` locks below it: blocking under it is no
//! finding. `Stack::state` and `Conn::state` are ranked locks sharing one
//! name: blocking under each is a finding (lines 34 and 43).

use cool_telemetry::lockorder::{rank, Locked, OrderedMutex, Unlocked};

pub struct Plain {
    state: Mutex<u32>,
}

pub struct Stack {
    state: OrderedMutex<u32, rank::StackChain>,
}

pub struct Conn {
    state: OrderedMutex<u32, rank::ConnectionState>,
}

impl Plain {
    /// Clean: a `lock()` that takes no token is no ranked guard.
    pub fn waits(&self) {
        let g = self.state.lock();
        let _ = self.rx.recv();
        touch(g);
    }
}

impl Stack {
    /// Flags: recv under `stack.chain`. Line 34.
    pub fn waits(&self, held: &mut Locked<Unlocked>) {
        let (g, _) = self.state.lock(held);
        let _ = self.rx.recv();
        touch(g);
    }
}

impl Conn {
    /// Flags: recv under `connection.state`. Line 43.
    pub fn waits(&self, held: &mut Locked<Unlocked>) {
        let (g, _) = self.state.lock(held);
        let _ = self.rx.recv();
        touch(g);
    }
}
