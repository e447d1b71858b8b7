//! Lynx on the Innova Flex FPGA SmartNIC (§5.2).
//!
//! The paper's second prototype implements the network server as a NICA
//! accelerated function unit (AFU) on the bump-in-the-wire FPGA: every
//! packet is processed by the on-FPGA UDP stack, gets its metadata
//! appended, and is placed onto a *custom ring* (used as an mqueue)
//! through an InfiniBand **Unreliable Connection** QP. Two limitations of
//! that prototype are modelled faithfully:
//!
//! 1. **Receive path only** — "it does not yet support the send path";
//!    workers consume requests and release the ring credit without
//!    replying ([`Mqueue::release_request`]).
//! 2. **A host CPU helper thread** must refill the UC QP receive ring and
//!    handle flow control; its per-message cost is charged on a host core.
//!
//! Because packets hit the FPGA *before* any processor, there is no
//! CPU-side protocol stack at all — which is what buys the 15× receive
//! throughput over BlueField (7.4 M vs 0.5 M pkt/s, §6.2).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use lynx_device::FpgaNic;
use lynx_fabric::{QpKind, QueuePair, RdmaNic, WireProfile};
use lynx_net::{HostId, Network};
use lynx_sim::{Server, Sim};

use crate::{Mqueue, ReturnAddr};

#[derive(Debug, Default)]
struct Stats {
    ingested: u64,
    delivered: u64,
    dropped: u64,
}

struct Inner {
    fpga: FpgaNic,
    qp: QueuePair,
    helper: Server,
    mqs: Vec<Mqueue>,
    cursor: usize,
    stats: Stats,
}

/// The receive-only Innova deployment: FPGA AFU frontend feeding mqueues
/// in accelerator memory through a UC QP custom ring.
#[derive(Clone)]
pub struct InnovaReceiver {
    inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for InnovaReceiver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("InnovaReceiver")
            .field("mqueues", &inner.mqs.len())
            .field("ingested", &inner.stats.ingested)
            .field("delivered", &inner.stats.delivered)
            .field("dropped", &inner.stats.dropped)
            .finish()
    }
}

impl InnovaReceiver {
    /// Installs the AFU as the bump-in-the-wire handler for `host` on
    /// `net`: every datagram addressed to the host enters the FPGA
    /// pipeline directly (no CPU stack). `helper` is the host core running
    /// the NICA custom-ring refill thread; `rdma` is the NIC ASIC behind
    /// the FPGA, used to create the UC QP.
    ///
    /// The receiver starts with no mqueues; add them with
    /// [`InnovaReceiver::add_mqueue`].
    pub fn install(net: &Network, host: HostId, rdma: &RdmaNic, helper: Server) -> InnovaReceiver {
        // NICA implements the custom ring over a UC QP (§5.2), looped back
        // through the ConnectX ASIC to the accelerator's memory.
        let qp = rdma.create_qp(
            QpKind::UnreliableConnection,
            WireProfile::loopback(),
            rdma.fabric(),
            rdma.node(),
        );
        let receiver = InnovaReceiver {
            inner: Rc::new(RefCell::new(Inner {
                fpga: FpgaNic::new(),
                qp,
                helper,
                mqs: Vec::new(),
                cursor: 0,
                stats: Stats::default(),
            })),
        };
        let this = receiver.clone();
        net.set_handler(host, move |sim, dgram| {
            this.on_packet(sim, dgram.src, dgram.payload);
        });
        receiver
    }

    /// Registers a receive mqueue (round-robin fed).
    pub fn add_mqueue(&self, mq: Mqueue) {
        self.inner.borrow_mut().mqs.push(mq);
    }

    /// `(ingested, delivered, dropped)` packet counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        let inner = self.inner.borrow();
        (
            inner.stats.ingested,
            inner.stats.delivered,
            inner.stats.dropped,
        )
    }

    fn on_packet(&self, sim: &mut Sim, src: lynx_net::SockAddr, payload: lynx_sim::Payload) {
        let fpga = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.ingested += 1;
            inner.fpga.clone()
        };
        let this = self.clone();
        // The packet streams through the AFU pipeline (initiation-interval
        // limited), then lands on a custom ring.
        fpga.ingest(sim, move |sim| {
            this.deliver(sim, src, payload);
        });
    }

    fn deliver(&self, sim: &mut Sim, src: lynx_net::SockAddr, payload: lynx_sim::Payload) {
        let (mq, seq, helper, helper_cost, qp) = {
            let mut inner = self.inner.borrow_mut();
            if inner.mqs.is_empty() {
                inner.stats.dropped += 1;
                return;
            }
            let n = inner.mqs.len();
            // Round-robin over the custom rings, skipping full ones.
            let mut picked = None;
            for i in 0..n {
                let idx = (inner.cursor + i) % n;
                if let Ok(seq) = inner.mqs[idx].try_reserve(ReturnAddr::Udp(src)) {
                    picked = Some((idx, seq));
                    break;
                }
            }
            inner.cursor = (inner.cursor + 1) % n;
            let Some((idx, seq)) = picked else {
                inner.stats.dropped += 1;
                return;
            };
            inner.stats.delivered += 1;
            (
                inner.mqs[idx].clone(),
                seq,
                inner.helper.clone(),
                inner.fpga.helper_cost(),
                inner.qp.clone(),
            )
        };
        // The host helper thread refills the UC receive ring (§5.2) — a
        // per-message cost on a host core, off the FPGA's fast path.
        helper.submit(sim, helper_cost, |_| {});
        // The AFU writes metadata + payload onto the ring via the UC QP.
        let slot = vec![(mq.rx_slot_offset(seq), mq.encode_slot(seq, &payload).into())];
        qp.post_write(sim, slot, &mq.mem(), move |sim, landed| {
            // A write struck by an injected CQE error never rings the ring.
            if landed[0].is_ok() {
                mq.notify_rx(sim);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MqueueConfig, MqueueKind};
    use lynx_fabric::{MemRegion, PcieFabric, PcieLink};
    use lynx_net::{Datagram, LinkSpec, SockAddr};
    use std::time::Duration;

    fn rig(mqueues: usize, slots: usize) -> (Sim, Network, HostId, InnovaReceiver, Vec<Mqueue>) {
        let sim = Sim::new(0);
        let net = Network::new();
        let server = net.add_host("innova-host", LinkSpec::gbps40());
        let fabric = PcieFabric::new();
        let host_node = fabric.add_node("host");
        let nic_node = fabric.add_node("innova");
        let gpu_node = fabric.add_node("gpu");
        fabric.link(host_node, nic_node, PcieLink::gen3_x8());
        fabric.link(host_node, gpu_node, PcieLink::gen3_x16());
        let rdma = RdmaNic::new(fabric, nic_node, "innova-asic");
        let rx = InnovaReceiver::install(&net, server, &rdma, Server::new(1.0));
        let cfg = MqueueConfig {
            slots,
            slot_size: 256,
            ..MqueueConfig::default()
        };
        let mut mqs = Vec::new();
        for i in 0..mqueues {
            let mem = MemRegion::new(gpu_node, cfg.required_bytes(), format!("ring{i}"));
            let mq = Mqueue::new(MqueueKind::Server, mem, 0, cfg);
            rx.add_mqueue(mq.clone());
            mqs.push(mq);
        }
        (sim, net, server, rx, mqs)
    }

    fn send(sim: &mut Sim, net: &Network, dst: HostId, payload: Vec<u8>) {
        let client = SockAddr::new(HostId(99), 1);
        // Direct wire injection: clients are irrelevant to the RX path.
        let mut d = Datagram::udp(client, SockAddr::new(dst, 7777), payload);
        d.src = SockAddr::new(dst, 1); // reuse the host as its own peer
        net.send(sim, d);
    }

    #[test]
    fn packets_land_in_mqueues_with_payload() {
        let (mut sim, net, host, rx, mqs) = rig(2, 8);
        for i in 0..4u8 {
            send(&mut sim, &net, host, vec![i; 32]);
        }
        sim.run();
        assert_eq!(rx.stats(), (4, 4, 0));
        // Round-robin across the two rings.
        let (s0, p0) = mqs[0].acc_pop_request().unwrap();
        assert_eq!((s0, p0[0]), (0, 0));
        let (_, p1) = mqs[1].acc_pop_request().unwrap();
        assert_eq!(p1[0], 1);
        let (_, p2) = mqs[0].acc_pop_request().unwrap();
        assert_eq!(p2[0], 2);
    }

    #[test]
    fn receive_only_release_recycles_ring_credits() {
        // The ring must cover the UC-write landing latency (~1.5us) at the
        // FPGA's 135ns arrival spacing: ~11 slots in flight; use 16.
        let (mut sim, net, host, rx, mqs) = rig(1, 16);
        // Drain continuously: consume + release as packets arrive.
        let mq = mqs[0].clone();
        mqs[0].set_rx_watcher(move |_sim| {
            while let Some((seq, _payload)) = mq.acc_pop_request() {
                mq.release_request(seq);
            }
        });
        for i in 0..50u8 {
            send(&mut sim, &net, host, vec![i]);
        }
        sim.run();
        let (ingested, delivered, dropped) = rx.stats();
        assert_eq!(ingested, 50);
        assert_eq!(delivered + dropped, 50);
        // With prompt draining, the 2-slot ring absorbs the full stream.
        assert_eq!(dropped, 0, "delivered {delivered}");
    }

    #[test]
    fn full_rings_drop_packets() {
        let (mut sim, net, host, rx, _mqs) = rig(1, 2);
        // Nobody consumes: only 2 slots can ever be filled.
        for i in 0..10u8 {
            send(&mut sim, &net, host, vec![i]);
        }
        sim.run();
        let (_, delivered, dropped) = rx.stats();
        assert_eq!(delivered, 2);
        assert_eq!(dropped, 8);
    }

    #[test]
    fn pipeline_sustains_millions_of_packets_per_second() {
        let (mut sim, net, host, rx, mqs) = rig(4, 64);
        for mq in &mqs {
            let mq2 = mq.clone();
            mq.set_rx_watcher(move |_sim| {
                while let Some((seq, _)) = mq2.acc_pop_request() {
                    mq2.release_request(seq);
                }
            });
        }
        // Offer far more packets than the pipeline can absorb inside the
        // window, so the initiation interval is the binding constraint.
        let n = 400_000u32;
        for _ in 0..n {
            send(&mut sim, &net, host, vec![0x42; 18]); // 64B on the wire
        }
        let window = Duration::from_millis(20);
        sim.run_until(lynx_sim::Time::ZERO + window);
        let (_, delivered, _) = rx.stats();
        let rate = delivered as f64 / window.as_secs_f64();
        // The 135ns initiation interval caps the AFU at ~7.4 Mpps.
        assert!((5.0e6..7.6e6).contains(&rate), "rate {rate}");
    }
}
