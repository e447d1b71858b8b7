//! The four request streams and their response checks.

use std::rc::Rc;

use lynx_apps::kv;
use lynx_workload::ZipfKeyGen;

use crate::gen::{mix, Load, Verdict};

/// Keys of the KV store, all preloaded.
pub const KV_KEYS: usize = 10_000;
/// One request in this many is a SET candidate (~2%).
const KV_SET_EVERY: u64 = 50;
/// Bytes of a stored KV value.
const KV_VALUE_BYTES: usize = 32;

/// A KV value that names its key and version: the check can tell a value
/// of another key, and a value older than an acknowledged SET.
pub fn kv_value(rank: u32, version: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(KV_VALUE_BYTES);
    v.extend_from_slice(&rank.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    v.resize(KV_VALUE_BYTES, 0xAB);
    v
}

fn parse_kv_value(v: &[u8]) -> Option<(u32, u32)> {
    (v.len() == KV_VALUE_BYTES).then(|| {
        (
            u32::from_le_bytes(v[0..4].try_into().expect("4 bytes")),
            u32::from_le_bytes(v[4..8].try_into().expect("4 bytes")),
        )
    })
}

#[derive(Clone, Copy)]
struct KvReq {
    rank: u32,
    /// Version written by a SET, or 0 for a GET.
    set_version: u32,
    /// For a GET: the newest version acknowledged when it was sent.
    acked_at_send: u32,
}

/// Zipf GETs over the preloaded keyspace with ~2% write-through SETs.
///
/// A value is correct when it belongs to the requested key and is no
/// older than the last SET acknowledged before the GET was sent (and no
/// newer than the last SET sent). Two SETs to one key are never in flight
/// together, so versions order the writes the server applies.
pub struct KvLoad {
    keys: ZipfKeyGen,
    /// Wire key of every rank.
    names: Vec<Vec<u8>>,
    seed: u64,
    reqs: Vec<KvReq>,
    acked: Vec<u32>,
    sent: Vec<u32>,
    set_in_flight: Vec<bool>,
}

impl KvLoad {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> KvLoad {
        let keys = ZipfKeyGen::new(KV_KEYS, 0.99, mix(seed ^ 0x4B56));
        KvLoad {
            names: (0..KV_KEYS)
                .map(|k| keys.key_of_rank(k).into_bytes())
                .collect(),
            keys,
            seed,
            reqs: Vec::new(),
            acked: vec![0; KV_KEYS],
            sent: vec![0; KV_KEYS],
            set_in_flight: vec![false; KV_KEYS],
        }
    }
}

impl Load for KvLoad {
    fn request(&mut self, id: u64, _client: u32) -> Vec<u8> {
        let rank = self.keys.rank(id);
        let key = self.names[rank].clone();
        let set = mix(self.seed ^ id.wrapping_mul(0x5E7)).is_multiple_of(KV_SET_EVERY)
            && !self.set_in_flight[rank];
        let r = rank as u32;
        if set {
            self.sent[rank] += 1;
            self.set_in_flight[rank] = true;
            let version = self.sent[rank];
            self.reqs.push(KvReq {
                rank: r,
                set_version: version,
                acked_at_send: 0,
            });
            kv::Request::Set {
                key,
                val: kv_value(r, version),
            }
            .encode()
        } else {
            self.reqs.push(KvReq {
                rank: r,
                set_version: 0,
                acked_at_send: self.acked[rank],
            });
            kv::Request::Get { key }.encode()
        }
    }

    fn check(&mut self, id: u64, response: &[u8]) -> Verdict {
        let q = self.reqs[id as usize];
        let rank = q.rank as usize;
        if q.set_version > 0 {
            self.set_in_flight[rank] = false;
            if response.is_empty() {
                return Verdict::Refused;
            }
            return match kv::Response::decode(response) {
                Some(kv::Response::Stored) => {
                    self.acked[rank] = self.acked[rank].max(q.set_version);
                    Verdict::Served
                }
                other => Verdict::Wrong(format!("SET key {rank}: {other:?}")),
            };
        }
        if response.is_empty() {
            return Verdict::Refused;
        }
        match kv::Response::decode(response) {
            Some(kv::Response::Value(v)) => match parse_kv_value(&v) {
                Some((k, _)) if k != q.rank => {
                    Verdict::Wrong(format!("GET key {rank} returned the value of key {k}"))
                }
                Some((_, ver)) if ver < q.acked_at_send => Verdict::Wrong(format!(
                    "GET key {rank} returned version {ver}, older than acknowledged {}",
                    q.acked_at_send
                )),
                Some((_, ver)) if ver > self.sent[rank] => Verdict::Wrong(format!(
                    "GET key {rank} returned version {ver}, never written"
                )),
                Some(_) => Verdict::Served,
                None => Verdict::Wrong(format!("GET key {rank}: malformed value")),
            },
            other => Verdict::Wrong(format!("GET key {rank}: {other:?}")),
        }
    }

    fn writes(&self) -> u64 {
        self.sent.iter().map(|&v| u64::from(v)).sum()
    }
}

/// LeNet requests drawn from a pool of generated digit images; each reply
/// must equal a host reference inference on the same image.
pub struct LenetLoad {
    seed: u64,
    pool: Rc<Vec<Vec<u8>>>,
    reference: Rc<Vec<u8>>,
    picks: Vec<u16>,
}

impl LenetLoad {
    /// The stream of `seed` over `pool`, whose reference digits are
    /// `reference`.
    pub fn new(seed: u64, pool: Rc<Vec<Vec<u8>>>, reference: Rc<Vec<u8>>) -> LenetLoad {
        assert_eq!(pool.len(), reference.len());
        LenetLoad {
            seed,
            pool,
            reference,
            picks: Vec::new(),
        }
    }
}

impl Load for LenetLoad {
    fn request(&mut self, id: u64, _client: u32) -> Vec<u8> {
        let i = (mix(self.seed ^ id.wrapping_mul(0x1E7)) % self.pool.len() as u64) as usize;
        self.picks.push(i as u16);
        self.pool[i].clone()
    }

    fn check(&mut self, id: u64, response: &[u8]) -> Verdict {
        let i = usize::from(self.picks[id as usize]);
        match response {
            [] => Verdict::Refused,
            [d] if *d == self.reference[i] => Verdict::Served,
            other => Verdict::Wrong(format!(
                "image {i}: reply {other:?}, reference digit {}",
                self.reference[i]
            )),
        }
    }
}

/// Ordinary tenant functions of the tenancy workload.
pub const TENANTS: u32 = 10_000;
/// Match key of the rate-limited tenant.
pub const LIMITED_KEY: u32 = TENANTS;
/// Match key of the quota-zero tenant.
pub const BANNED_KEY: u32 = TENANTS + 1;
/// Percent of requests from the quota-zero flood.
const BANNED_PCT: u64 = 10;
/// Percent of requests from the rate-limited tenant.
const LIMITED_PCT: u64 = 2;
const TENANT_REQ_BYTES: usize = 32;

/// Zipf traffic over 10k tenant functions, a rate-limited tenant kept
/// under its quota, and a quota-zero flood. Echoes must equal their
/// request; the quota-zero tenant must get only shed markers.
pub struct TenantLoad {
    keys: ZipfKeyGen,
    seed: u64,
}

impl TenantLoad {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> TenantLoad {
        TenantLoad {
            keys: ZipfKeyGen::new(TENANTS as usize, 0.99, mix(seed ^ 0x7E4A)),
            seed,
        }
    }

    fn key(&self, id: u64) -> u32 {
        match mix(self.seed ^ id.wrapping_mul(0x7E7)) % 100 {
            c if c < BANNED_PCT => BANNED_KEY,
            c if c < BANNED_PCT + LIMITED_PCT => LIMITED_KEY,
            _ => self.keys.rank(id) as u32,
        }
    }

    fn payload(&self, id: u64) -> Vec<u8> {
        let mut p = Vec::with_capacity(TENANT_REQ_BYTES);
        p.extend_from_slice(&self.key(id).to_le_bytes());
        p.extend_from_slice(&id.to_le_bytes());
        p.resize(TENANT_REQ_BYTES, 0x5A);
        p
    }
}

impl Load for TenantLoad {
    fn request(&mut self, id: u64, _client: u32) -> Vec<u8> {
        self.payload(id)
    }

    fn check(&mut self, id: u64, response: &[u8]) -> Verdict {
        let key = self.key(id);
        match (key == BANNED_KEY, response.is_empty()) {
            (true, true) => Verdict::Shed,
            (true, false) => Verdict::Wrong("the quota-zero tenant was served".to_string()),
            (false, true) => Verdict::Refused,
            (false, false) if response == self.payload(id) => Verdict::Served,
            (false, false) => Verdict::Wrong(format!("function {key}: echo differs")),
        }
    }
}

/// Fleet request size: a 16-byte header and a body, as in the
/// `million_clients` harness.
const FLEET_REQ_BYTES: usize = 64;

/// One replica's closed-loop logical clients (see [`crate::gen::Plan`]).
/// Each request names its client, the client's sequence number and the
/// request id in a 16-byte header, followed by a body derived from the id;
/// the echo must carry all of it back.
pub struct FleetLoad {
    /// Requests sent by each logical client.
    sent: Vec<u32>,
    /// `(client, sequence number)` of every request.
    reqs: Vec<(u32, u32)>,
}

impl FleetLoad {
    /// `clients` logical clients.
    pub fn new(clients: usize) -> FleetLoad {
        FleetLoad {
            sent: vec![0; clients],
            reqs: Vec::new(),
        }
    }

    fn payload(id: u64, client: u32, seq: u32) -> Vec<u8> {
        let mut p = Vec::with_capacity(FLEET_REQ_BYTES);
        p.extend_from_slice(&client.to_le_bytes());
        p.extend_from_slice(&seq.to_le_bytes());
        p.extend_from_slice(&id.to_le_bytes());
        p.extend((16..FLEET_REQ_BYTES).map(|i| (id as u8).wrapping_add(i as u8)));
        p
    }
}

impl Load for FleetLoad {
    fn request(&mut self, id: u64, client: u32) -> Vec<u8> {
        let seq = self.sent[client as usize];
        self.sent[client as usize] += 1;
        assert_eq!(self.reqs.len() as u64, id, "ids are dense");
        self.reqs.push((client, seq));
        Self::payload(id, client, seq)
    }

    fn check(&mut self, id: u64, response: &[u8]) -> Verdict {
        if response.is_empty() {
            return Verdict::Refused;
        }
        let (client, seq) = self.reqs[id as usize];
        if response == Self::payload(id, client, seq) {
            Verdict::Served
        } else {
            Verdict::Wrong(format!("client {client} request {seq}: echo differs"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_check_rejects_stale_and_foreign_values() {
        let mut l = KvLoad::new(3);
        // Find a GET and answer it with the preloaded value.
        let id = (0..).find(|&i| {
            kv::Request::decode(&l.request(i, 0))
                .is_some_and(|r| matches!(r, kv::Request::Get { .. }))
        });
        let id = id.expect("a GET");
        let rank = l.reqs[id as usize].rank;
        let ok = kv::Response::Value(kv_value(rank, 0)).encode();
        assert_eq!(l.check(id, &ok), Verdict::Served);
        let foreign = kv::Response::Value(kv_value(rank + 1, 0)).encode();
        assert!(matches!(l.check(id, &foreign), Verdict::Wrong(_)));
        assert!(matches!(
            l.check(id, &kv::Response::Miss.encode()),
            Verdict::Wrong(_)
        ));
        assert_eq!(l.check(id, &[]), Verdict::Refused);
    }

    #[test]
    fn kv_get_after_acked_set_must_see_it() {
        let mut l = KvLoad::new(5);
        let mut set_id = None;
        for i in 0..10_000 {
            l.request(i, 0);
            if l.reqs[i as usize].set_version > 0 {
                set_id = Some(i);
                break;
            }
        }
        let set_id = set_id.expect("a SET within 10k requests");
        let rank = l.reqs[set_id as usize].rank;
        assert_eq!(
            l.check(set_id, &kv::Response::Stored.encode()),
            Verdict::Served
        );
        // A later GET of the same key must not see the preloaded version.
        let get = (set_id + 1..)
            .find(|&i| {
                l.request(i, 0);
                let q = l.reqs[i as usize];
                q.rank == rank && q.set_version == 0
            })
            .expect("a GET of the same key");
        let stale = kv::Response::Value(kv_value(rank, 0)).encode();
        assert!(matches!(l.check(get, &stale), Verdict::Wrong(_)));
        let fresh = kv::Response::Value(kv_value(rank, 1)).encode();
        assert_eq!(l.check(get, &fresh), Verdict::Served);
    }

    #[test]
    fn tenant_check_expects_sheds_only_for_the_banned_key() {
        let mut l = TenantLoad::new(1);
        let banned = (0..)
            .find(|&i| l.key(i) == BANNED_KEY)
            .expect("a banned request");
        let normal = (0..)
            .find(|&i| l.key(i) < TENANTS)
            .expect("a tenant request");
        assert_eq!(l.check(banned, &[]), Verdict::Shed);
        assert!(matches!(
            l.check(banned, &l.payload(banned)),
            Verdict::Wrong(_)
        ));
        assert_eq!(l.check(normal, &l.payload(normal)), Verdict::Served);
        assert_eq!(l.check(normal, &[]), Verdict::Refused);
    }
}
