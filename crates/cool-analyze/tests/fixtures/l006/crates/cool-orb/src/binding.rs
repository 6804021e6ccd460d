// Fixture for L006: unbounded retry loops on the invocation path.

fn hangs_forever(binding: &Binding, req: Request) {
    loop {
        // line 4: flagged — bare retry-forever around .call(
        if binding.call(req.clone()).is_ok() {
            return;
        }
    }
}

fn magic_bound_is_not_a_policy(chan: &Chan, frame: Frame) {
    let mut tries = 0;
    while tries < 100_000 {
        // line 14: flagged — a magic counter is not a RetryPolicy
        let _ = chan.send_frame(frame.clone());
        tries += 1;
    }
}

fn governed(binding: &Binding, req: Request, policy: &RetryPolicy) {
    let mut attempt = 0;
    loop {
        if binding.invoke(req.clone()).is_ok() {
            return;
        }
        let Some(delay) = policy.next_delay(attempt) else { return };
        attempt += 1;
        wait_backoff(delay);
    }
}

fn helper_names_do_not_trip(stub: &Stub) {
    loop {
        // exact ident match: `.invoke_once(` is not `.invoke(`
        if stub.invoke_once().is_ok() {
            return;
        }
    }
}

fn non_invocation_loops_are_clean(items: &[u32]) -> u32 {
    let mut total = 0;
    let mut i = 0;
    while i < items.len() {
        total += items[i];
        i += 1;
    }
    total
}

fn annotated(chan: &Chan, frame: Frame) {
    // lint: allow(L006, fixture: wire pump drains a queue; terminates on channel close)
    loop {
        if chan.send(frame.clone()).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    fn retry_in_tests_is_exempt(binding: &Binding, req: Request) {
        loop {
            if binding.call(req.clone()).is_ok() {
                return;
            }
        }
    }
}
