//! A007 fixture: scoped use — spawned and joined in the same function.

pub fn run_once() {
    let h = std::thread::spawn(step);
    let _ = blocking::join(held, h);
}

fn step() {}
