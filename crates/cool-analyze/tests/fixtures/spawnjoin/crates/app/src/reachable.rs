//! A007 fixture: the join lives one call below the shutdown root — the
//! rule must follow the call graph from `stop` to `reap`.

pub fn start() {
    let _ = std::thread::spawn(pump);
}

pub fn stop() {
    reap();
}

fn reap() {
    let h = current();
    let _ = blocking::join(held, h);
}

fn pump() {}
