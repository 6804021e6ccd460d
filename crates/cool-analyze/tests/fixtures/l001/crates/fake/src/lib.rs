// Fixture for L001: sleep-based polling.

fn polls() {
    loop {
        std::thread::sleep(std::time::Duration::from_millis(5)); // line 5: flagged
    }
}

fn waits_legitimately() {
    // lint: allow(L001, fixture: modelled hardware delay, not a poll)
    std::thread::sleep(std::time::Duration::from_millis(5));
}

fn condvar_wait_is_fine(pair: &(std::sync::Mutex<bool>, std::sync::Condvar)) {
    let (m, cv) = pair;
    let mut done = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    while !*done {
        done = cv.wait(done).unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn sleeps_in_tests_are_exempt() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
