//! Property tests of the simulated MPI layer: matching order, payload
//! integrity, and eventual delivery under arbitrary interleavings.

use proptest::prelude::*;
use sw_mpi::MpiWorld;
use sw_sim::{Machine, MachineConfig, MachineEvent, SimTime};

/// Pump all pending machine events into the world.
fn drain(m: &mut Machine, w: &mut MpiWorld) {
    while let Some((_, ev)) = m.pop() {
        if let MachineEvent::NetDeliver { token, .. } = ev {
            w.on_wire(token);
        }
    }
}

/// Progress every rank until nothing changes and no events remain.
fn settle(m: &mut Machine, w: &mut MpiWorld, n: usize) {
    loop {
        drain(m, w);
        let now = m.now();
        let acted: usize = (0..n).map(|r| w.progress(r, &mut m.ctx(r), now)).sum();
        if acted == 0 && m.peek_time().is_none() {
            break;
        }
    }
}

/// SplitMix64 step: the test's own scheduling choices, from one sample.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A channel: `(src, dst, tag)`.
type Chan = (usize, usize, u64);

proptest! {
    /// Receives and messages retire in random order across 4 ranks while
    /// later rounds of traffic keep arriving: wire events land one at a
    /// time, a random rank progresses, and a random completed receive is
    /// taken and retired. Each channel still delivers FIFO, and the world
    /// ends quiescent with empty tables.
    #[test]
    fn random_retirement_order_keeps_channel_fifo(
        rounds in prop::collection::vec(
            prop::collection::vec((0usize..4, 0usize..3, 0u64..3, 1u64..40_000), 1..12),
            1..5,
        ),
        seed in any::<u64>(),
    ) {
        use std::collections::BTreeMap;
        let n = 4;
        let mut m = Machine::new(MachineConfig::sw26010(), n);
        let mut w = MpiWorld::new(n);
        let mut rng = seed;
        let mut sent: BTreeMap<Chan, Vec<f64>> = BTreeMap::new();
        let mut got: BTreeMap<Chan, Vec<Option<f64>>> = BTreeMap::new();
        // Posted, not yet retired: (channel, posting slot on it, handle).
        let mut open = Vec::new();
        let mut stamp = 0.0;
        for (round, spec) in rounds.iter().enumerate() {
            let mut chans: Vec<Chan> = Vec::new();
            for &(src, dst_off, tag, bytes) in spec {
                let dst = (src + 1 + dst_off) % n;
                let now = m.now();
                w.isend(&mut m.ctx(src), src, dst, tag, bytes, Some(vec![stamp]), now);
                sent.entry((src, dst, tag)).or_default().push(stamp);
                stamp += 1.0;
                chans.push((src, dst, tag));
            }
            // One receive per send, posted in a shuffled cross-channel order.
            for i in (1..chans.len()).rev() {
                chans.swap(i, (next(&mut rng) % (i as u64 + 1)) as usize);
            }
            for ch in chans {
                let slots = got.entry(ch).or_default();
                open.push((ch, slots.len(), w.irecv(ch.1, ch.0, ch.2)));
                slots.push(None);
            }
            // Earlier rounds interleave with later ones: only the last round
            // runs until everything has retired.
            let last = round + 1 == rounds.len();
            let budget = if last { 1_000_000 } else { next(&mut rng) % 64 };
            let mut steps = 0u64;
            while steps < budget && !(open.is_empty() && m.peek_time().is_none()) {
                steps += 1;
                if next(&mut rng) & 1 == 0 {
                    if let Some((_, MachineEvent::NetDeliver { token, .. })) = m.pop() {
                        w.on_wire(token);
                    }
                }
                let r = (next(&mut rng) % n as u64) as usize;
                let now = m.now();
                w.progress(r, &mut m.ctx(r), now);
                if !open.is_empty() {
                    let k = (next(&mut rng) % open.len() as u64) as usize;
                    let (ch, slot, h) = open[k];
                    if w.recv_done(h) {
                        let payload = w.take_payload(h).expect("payload travels");
                        got.get_mut(&ch).unwrap()[slot] = Some(payload[0]);
                        w.retire_recv(h);
                        open.swap_remove(k);
                    }
                }
            }
            prop_assert!(!last || steps < budget, "traffic failed to settle");
        }
        prop_assert!(w.quiescent(), "all traffic must finish");
        prop_assert_eq!(w.handle_map_sizes(), (0, 0));
        prop_assert!(w.leaked().is_empty());
        for (ch, stamps) in sent {
            let delivered: Vec<f64> = got[&ch].iter().map(|s| s.unwrap()).collect();
            prop_assert_eq!(delivered, stamps, "channel {:?}", ch);
        }
    }

    /// Any batch of sends with matching receives completes, with payloads
    /// delivered FIFO per (src, dst, tag) channel — for eager and rendezvous
    /// sizes alike.
    #[test]
    fn all_messages_deliver_in_channel_order(
        spec in prop::collection::vec((0usize..3, 0usize..3, 0u64..3, 1u64..40_000), 1..25)
    ) {
        let n = 4;
        let mut m = Machine::new(MachineConfig::sw26010(), n);
        let mut w = MpiWorld::new(n);
        // Post all sends with sequence-stamped payloads.
        let mut per_channel: std::collections::BTreeMap<(usize, usize, u64), Vec<f64>> =
            Default::default();
        for (i, &(src_raw, dst_raw, tag, bytes)) in spec.iter().enumerate() {
            let src = src_raw;
            let dst = if dst_raw == src { (dst_raw + 1) % n } else { dst_raw };
            let stamp = i as f64;
            w.isend(&mut m.ctx(src), src, dst, tag, bytes, Some(vec![stamp]), SimTime::ZERO);
            per_channel.entry((src, dst, tag)).or_default().push(stamp);
        }
        // Post matching receives (channel by channel, FIFO) and settle.
        let mut handles = Vec::new();
        for (&(src, dst, tag), stamps) in &per_channel {
            for _ in stamps {
                handles.push(((src, dst, tag), w.irecv(dst, src, tag)));
            }
        }
        settle(&mut m, &mut w, n);
        prop_assert!(w.quiescent(), "all traffic must finish");
        // Payloads must arrive in the exact order sent per channel.
        let mut got: std::collections::BTreeMap<(usize, usize, u64), Vec<f64>> = Default::default();
        for (ch, h) in handles {
            prop_assert!(w.recv_done(h));
            got.entry(ch).or_default().push(w.take_payload(h).unwrap()[0]);
        }
        for (ch, stamps) in per_channel {
            prop_assert_eq!(&got[&ch], &stamps, "channel {:?}", ch);
        }
    }

    /// Receives posted *after* arrival still match (the unexpected-message
    /// queue), in send order.
    #[test]
    fn late_receives_match_the_unexpected_queue(
        count in 1usize..8,
        bytes in 1u64..50_000,
    ) {
        let mut m = Machine::new(MachineConfig::sw26010(), 2);
        let mut w = MpiWorld::new(2);
        for i in 0..count {
            w.isend(&mut m.ctx(0), 0, 1, 9, bytes, Some(vec![i as f64]), SimTime::ZERO);
        }
        // Let everything that can move without receives move.
        settle(&mut m, &mut w, 2);
        prop_assert!(!w.quiescent());
        let handles: Vec<_> = (0..count).map(|_| w.irecv(1, 0, 9)).collect();
        settle(&mut m, &mut w, 2);
        for (i, h) in handles.into_iter().enumerate() {
            prop_assert!(w.recv_done(h));
            prop_assert_eq!(w.take_payload(h).unwrap(), vec![i as f64]);
        }
        prop_assert!(w.quiescent());
    }

    /// A send is never reported complete before it legally can be: for
    /// rendezvous sizes, only after the receiver posted and both sides
    /// progressed.
    #[test]
    fn rendezvous_send_completion_requires_handshake(bytes in 20_000u64..1_000_000) {
        let mut m = Machine::new(MachineConfig::sw26010(), 2);
        let mut w = MpiWorld::new(2);
        let s = w.isend(&mut m.ctx(0), 0, 1, 1, bytes, None, SimTime::ZERO);
        prop_assert!(!w.send_done(s));
        // Sender progressing alone can never complete it.
        for _ in 0..3 {
            drain(&mut m, &mut w);
            let now = m.now();
            w.progress(0, &mut m.ctx(0), now);
        }
        prop_assert!(!w.send_done(s));
        let r = w.irecv(1, 0, 1);
        settle(&mut m, &mut w, 2);
        prop_assert!(w.send_done(s));
        prop_assert!(w.recv_done(r));
    }
}
