//! Stale-allow fixture: one allow still exempts a finding, one outlived
//! the loop it excused, one names a rule the analyzer does not have.

fn pump(chan: &Chan, frame: Frame) {
    // lint: allow(L006, fixture: wire pump drains a queue; terminates on channel close)
    loop {
        if chan.send(frame.clone()).is_err() {
            return;
        }
    }
}

fn bounded(chan: &Chan, frame: Frame, policy: &RetryPolicy) {
    // lint: allow(L006, fixture: written before the loop took a RetryPolicy)
    loop {
        if chan.send(frame.clone()).is_ok() || policy.exhausted() {
            return;
        }
    }
}

fn copy(frame: &[u8]) -> Vec<u8> {
    // lint: allow(L007, fixture: the rule was retired)
    frame.to_vec()
}
