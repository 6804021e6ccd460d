// Fixture for L007: buffer copies on the zero-copy data path.

fn copies_a_frame(frame: Bytes) {
    let _v = frame.to_vec(); // line 4: flagged on the buffer path
}

fn clones_a_packet(pkt: Packet) {
    let _c = pkt.clone(); // line 8: flagged on the buffer path
}

fn annotated_retransmit(pkt: Packet) {
    // lint: allow(L007, fixture: retransmit window must own its copy)
    let _c = pkt.clone();
}

fn non_buffer_receivers_are_fine(config: Config, name: String) {
    let _a = config.clone();
    let _b = name.clone();
}

fn views_are_fine(frame: Bytes) {
    let _head = frame.slice(..12);
    let _rest = frame.split_to(12);
}

#[cfg(test)]
mod tests {
    fn test_code_may_copy(body: Bytes) {
        let _v = body.to_vec();
    }
}
