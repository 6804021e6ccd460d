//! A009 fixture: state-machine constructions vs the §8.4 tables — rows
//! backed by code, a stale row, a phantom source state, emission
//! vocabulary/reference drift, an undocumented transition, and machines
//! pointing at missing or construction-free files.

pub enum Health {
    Healthy,
    Evicted,
    Suspect,
    Probing,
}

/// Backs the `— -> Healthy` row (and the `Ghost -> Healthy` one, whose
/// *from* state is the drift).
pub fn admit() -> Health {
    inc(names::EVICTIONS);
    Health::Healthy
}

/// Backs every `Healthy -> Evicted` row.
pub fn evict() -> Health {
    inc(names::EVICTIONS);
    flight(flight::EVICTED);
    Health::Evicted
}

/// Undocumented transition: no §8.4 row names `Suspect` via `relapse`.
pub fn relapse() -> Health {
    Health::Suspect
}

/// Patterns are not transitions: matching must not demand a row.
pub fn is_dead(h: &Health) -> bool {
    match h {
        Health::Evicted => true,
        _ => false,
    }
}

/// Another undocumented transition, with an inline exemption: suppressed.
pub fn relapse_quietly() -> Health {
    // lint: allow(A009, fixture demonstrates the inline exemption)
    Health::Suspect
}

#[cfg(test)]
mod tests {
    /// Test constructions don't count as transitions.
    fn probe_harness() -> super::Health {
        super::Health::Probing
    }
}
