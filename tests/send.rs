//! Compile-time proof that a whole simulation can cross a thread boundary.
//!
//! A whole `Network<P>` can be handed to a worker thread, so `Send` is
//! part of the kernel's public contract — not an accident of today's field
//! choices. These assertions fail to *compile*
//! (rather than fail at runtime) if anyone reintroduces an `Rc`, `RefCell`,
//! or raw pointer into the kernel's state.

use mnp::Mnp;
use mnp_baselines::{Deluge, Rlnc};
use mnp_net::Network;

fn assert_send<T: Send>() {}

#[test]
fn network_of_mnp_is_send() {
    assert_send::<Network<Mnp>>();
}

#[test]
fn network_of_a_baseline_protocol_is_send() {
    assert_send::<Network<Deluge>>();
}

#[test]
fn network_of_a_coded_protocol_is_send() {
    // The coded plane's decoder state and the shared image handle both
    // travel with the network.
    assert_send::<Network<Rlnc>>();
}
