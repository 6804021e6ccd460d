//! A001 fixture: deliberate lock-rank inversions, direct and
//! interprocedural, next to a legal increasing path.

pub mod rank {
    pub const OUTER: Rank = Rank::new(10, "app.outer");
    pub const INNER: Rank = Rank::new(20, "app.inner");
}

pub struct Locks {
    outer: OrderedMutex<u32>,
    inner: OrderedMutex<u32>,
}

pub fn mk() -> Locks {
    Locks {
        outer: OrderedMutex::new(rank::OUTER, 0),
        inner: OrderedMutex::new(rank::INNER, 0),
    }
}

impl Locks {
    /// Clean: outer before inner, ranks strictly increase.
    pub fn legal(&self) {
        let a = self.outer.lock();
        let b = self.inner.lock();
        consume(a, b);
    }

    /// Direct inversion: inner held, outer acquired. Line 32.
    pub fn inverted(&self) {
        let b = self.inner.lock();
        let a = self.outer.lock();
        consume(a, b);
    }

    fn grab_outer(&self) {
        let a = self.outer.lock();
        touch(a);
    }

    /// Interprocedural inversion: holds inner, calls into outer. Line 44.
    pub fn inverted_via_call(&self) {
        let b = self.inner.lock();
        self.grab_outer();
        touch(b);
    }

    /// Same-rank reacquisition is equally illegal. Line 51.
    pub fn same_rank(&self) {
        let a = self.outer.lock();
        let b = self.outer.lock();
        consume(a, b);
    }

    /// Clean: the first guard is dropped before the lower rank is taken.
    pub fn sequential(&self) {
        let b = self.inner.lock();
        drop(b);
        let a = self.outer.lock();
        touch(a);
    }

    /// An inversion with an inline exemption: suppressed.
    pub fn inverted_but_allowed(&self) {
        let b = self.inner.lock();
        // lint: allow(A001, fixture demonstrates the inline exemption)
        let a = self.outer.lock();
        consume(a, b);
    }
}

#[cfg(test)]
mod tests {
    /// Test code may invert on purpose (the runtime checker's own suite
    /// does); A001 must not look here.
    fn provoke(l: &super::Locks) {
        let b = l.inner.lock();
        let a = l.outer.lock();
        consume(a, b);
    }
}
