//! A007 fixture, the owned pattern: the spawn's file joins the thread in
//! `close()` — a shutdown root — so the spawn is reaped at teardown.

pub struct Worker {
    handle: Mutex<Option<JoinSlot>>,
}

impl Worker {
    pub fn start(&self) {
        std::thread::Builder::new()
            .name("fixture-worker".into())
            .spawn(run)
            .ok();
    }

    pub fn close(&self) {
        let h = self.handle.lock().take();
        if let Some(h) = h {
            let _ = blocking::join(held, h);
        }
    }
}

fn run() {}
