//! Property-based tests of mqueues and dispatch.

use proptest::prelude::*;

use lynx_core::{DispatchPolicy, Dispatcher, Mqueue, MqueueConfig, MqueueKind, ReturnAddr};
use lynx_fabric::{MemRegion, NodeId};
use lynx_net::{HostId, SockAddr};
use lynx_sim::Sim;

fn mq(slots: usize, slot_size: usize) -> Mqueue {
    let cfg = MqueueConfig {
        slots,
        slot_size,
        ..MqueueConfig::default()
    };
    let mem = MemRegion::new(NodeId::host(), cfg.required_bytes(), "pq");
    Mqueue::new(MqueueKind::Server, mem, 0, cfg)
}

fn land(q: &Mqueue, seq: u64, payload: &[u8]) {
    let slot = q.encode_slot(seq, payload);
    q.mem().write(q.rx_slot_offset(seq), &slot);
}

proptest! {
    /// Arbitrary payloads survive the full request/response slot pipeline
    /// byte-for-byte, across ring wraparound.
    #[test]
    fn mqueue_payload_integrity(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..120), 1..60),
        slots in 1usize..8,
    ) {
        let mut sim = Sim::new(0);
        let q = mq(slots, 128);
        for payload in &payloads {
            let seq = q.try_reserve(ReturnAddr::Fixed).unwrap();
            land(&q, seq, payload);
            let (s, got) = q.acc_pop_request().unwrap();
            prop_assert_eq!(s, seq);
            prop_assert_eq!(&got, payload);
            // Echo it back.
            q.acc_push_response(&mut sim, seq, &got);
            let (s2, _, len) = q.begin_pull().unwrap();
            let resp = q.mem().read(q.tx_slot_offset(s2) + 8, len);
            prop_assert_eq!(&resp, payload);
            q.complete_n(s2, 1, drop);
        }
        prop_assert_eq!(q.drops(), 0);
        prop_assert_eq!(q.in_flight(), 0);
    }

    /// Flow control: the mqueue never admits more than `slots` requests
    /// in flight, and recovers exactly as responses complete.
    #[test]
    fn mqueue_flow_control(slots in 1usize..16, extra in 1usize..16) {
        let mut sim = Sim::new(0);
        let q = mq(slots, 64);
        let mut reserved = Vec::new();
        for _ in 0..slots {
            reserved.push(q.try_reserve(ReturnAddr::Fixed).unwrap());
        }
        for _ in 0..extra {
            prop_assert!(q.try_reserve(ReturnAddr::Fixed).is_err());
        }
        prop_assert_eq!(q.drops() as usize, extra);
        // Drain one request: exactly one new slot opens.
        let seq = reserved[0];
        land(&q, seq, b"x");
        q.acc_pop_request().unwrap();
        q.acc_push_response(&mut sim, seq, b"y");
        let (s, _, _) = q.begin_pull().unwrap();
        q.complete_n(s, 1, drop);
        prop_assert!(q.try_reserve(ReturnAddr::Fixed).is_ok());
        prop_assert!(q.try_reserve(ReturnAddr::Fixed).is_err());
    }

    /// Reply routing: responses return the exact client address of their
    /// request, in order, for any interleaving of clients.
    #[test]
    fn mqueue_reply_routing(clients in proptest::collection::vec(0u32..64, 1..32)) {
        let mut sim = Sim::new(0);
        let q = mq(64, 64);
        for (i, &c) in clients.iter().enumerate() {
            let ret = ReturnAddr::Udp(SockAddr::new(HostId(c), c as u16));
            let seq = q.try_reserve(ret).unwrap();
            land(&q, seq, &[i as u8]);
        }
        for (i, &c) in clients.iter().enumerate() {
            let (seq, payload) = q.acc_pop_request().unwrap();
            prop_assert_eq!(payload, vec![i as u8]);
            q.acc_push_response(&mut sim, seq, &[i as u8]);
            let (s, ret, _) = q.begin_pull().unwrap();
            prop_assert_eq!(ret, ReturnAddr::Udp(SockAddr::new(HostId(c), c as u16)));
            q.complete_n(s, 1, drop);
        }
    }

    /// Every dispatcher policy picks only valid, non-full queues, and
    /// round-robin visits all queues fairly.
    #[test]
    fn dispatcher_picks_are_valid(
        n in 1usize..12,
        picks in 1usize..100,
        policy_idx in 0usize..3,
    ) {
        let policy = [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastLoaded,
            DispatchPolicy::Steering,
        ][policy_idx];
        let qs: Vec<Mqueue> = (0..n).map(|_| mq(4, 64)).collect();
        let mut d = Dispatcher::new(policy);
        let mut counts = vec![0usize; n];
        for key in 0..picks as u64 {
            if let Some(i) = d.pick(&qs, key) {
                prop_assert!(i < n);
                prop_assert!(qs[i].in_flight() < qs[i].config().slots);
                counts[i] += 1;
                // Occupy the slot so load accumulates.
                if qs[i].in_flight() < qs[i].config().slots {
                    let _ = qs[i].try_reserve(ReturnAddr::Fixed);
                }
            }
        }
        if policy == DispatchPolicy::RoundRobin && picks >= 4 * n {
            // All queues fill up under sustained round-robin.
            prop_assert!(counts.iter().all(|&c| c > 0));
        }
    }

    /// Steering always maps the same key to the same queue.
    #[test]
    fn steering_is_deterministic(n in 1usize..12, keys in proptest::collection::vec(any::<u64>(), 1..40)) {
        let qs: Vec<Mqueue> = (0..n).map(|_| mq(1024, 64)).collect();
        let mut d1 = Dispatcher::new(DispatchPolicy::Steering);
        let mut d2 = Dispatcher::new(DispatchPolicy::Steering);
        for &k in &keys {
            prop_assert_eq!(d1.pick(&qs, k), d2.pick(&qs, k));
        }
    }
}
