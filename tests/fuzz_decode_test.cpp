// Decoder robustness: every wire-format decoder in the system must reject
// malformed input with ProtocolError — never crash, hang, or silently
// accept — because every decoder is reachable from Byzantine peers.
// Seeded pseudo-random fuzzing plus targeted truncation sweeps.
#include <gtest/gtest.h>

#include <set>

#include "app/ca.hpp"
#include "app/client.hpp"
#include "app/directory.hpp"
#include "app/notary.hpp"
#include "common/work_pool.hpp"
#include "crypto/batch.hpp"
#include "crypto/coin.hpp"
#include "crypto/merkle.hpp"
#include "crypto/tdh2.hpp"
#include "crypto/shamir.hpp"
#include "crypto/threshold_sig.hpp"
#include "net/transport/framing.hpp"
#include "net/transport/link.hpp"
#include "net/transport/networked_node.hpp"
#include "protocols/abba.hpp"
#include "protocols/broadcast.hpp"
#include "protocols/consistent.hpp"
#include "protocols/harness.hpp"
#include "protocols/reconfig.hpp"
#include "protocols/vba.hpp"

namespace sintra {
namespace {

using crypto::Group;

/// Run `decode` over pseudo-random buffers; it must either succeed or
/// throw ProtocolError.  Anything else (crash, other exception) fails.
template <typename Fn>
void fuzz(Fn&& decode, std::uint64_t seed, int iterations = 300) {
  Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    Bytes buffer = rng.bytes(rng.below(200));
    try {
      decode(buffer);
    } catch (const ProtocolError&) {
      // expected for garbage
    }
  }
}

/// Run `decode` over every truncation of a VALID encoding; all strict
/// prefixes must throw (no silent partial parse).
template <typename Fn>
void truncation_sweep(const Bytes& valid, Fn&& decode) {
  for (std::size_t len = 0; len < valid.size(); ++len) {
    Bytes truncated(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(decode(truncated), ProtocolError) << "prefix length " << len;
  }
  EXPECT_NO_THROW(decode(valid));
}

TEST(FuzzTest, BigIntDecode) {
  fuzz([](const Bytes& b) {
    Reader r(b);
    auto v = crypto::BigInt::decode(r);
    r.expect_done();
    (void)v;
  }, 1);
}

TEST(FuzzTest, CoinShareDecode) {
  auto group = Group::test_group();
  fuzz([&](const Bytes& b) {
    Reader r(b);
    auto s = crypto::CoinShare::decode(r, *group);
    r.expect_done();
    (void)s;
  }, 2);
}

TEST(FuzzTest, CoinShareTruncation) {
  Rng rng(3);
  auto deal = crypto::CoinDeal::deal(Group::test_group(),
                                     std::make_shared<crypto::ThresholdScheme>(4, 1), rng);
  auto shares = deal.secret_keys[0].share(deal.public_key, bytes_of("n"), rng);
  Writer w;
  shares[0].encode(w, deal.public_key.group());
  truncation_sweep(w.data(), [&](const Bytes& b) {
    Reader r(b);
    crypto::CoinShare::decode(r, deal.public_key.group());
    r.expect_done();
  });
}

TEST(FuzzTest, SigShareDecode) {
  fuzz([](const Bytes& b) {
    Reader r(b);
    auto s = crypto::SigShare::decode(r);
    r.expect_done();
    (void)s;
  }, 4);
}

TEST(FuzzTest, Tdh2CiphertextDecode) {
  auto group = Group::test_group();
  fuzz([&](const Bytes& b) {
    Reader r(b);
    auto ct = crypto::Tdh2Ciphertext::decode(r, *group);
    r.expect_done();
    (void)ct;
  }, 5);
}

TEST(FuzzTest, Tdh2CiphertextTruncation) {
  Rng rng(6);
  auto deal = crypto::Tdh2Deal::deal(Group::test_group(),
                                     std::make_shared<crypto::ThresholdScheme>(4, 1), rng);
  auto ct = deal.public_key.encrypt(bytes_of("msg"), bytes_of("l"), rng);
  Writer w;
  ct.encode(w, deal.public_key.group());
  truncation_sweep(w.data(), [&](const Bytes& b) {
    Reader r(b);
    crypto::Tdh2Ciphertext::decode(r, deal.public_key.group());
    r.expect_done();
  });
}

TEST(FuzzTest, Tdh2DecShareDecode) {
  auto group = Group::test_group();
  fuzz([&](const Bytes& b) {
    Reader r(b);
    auto s = crypto::Tdh2DecShare::decode(r, *group);
    r.expect_done();
    (void)s;
  }, 7);
}

TEST(FuzzTest, CertifiedMessageDecode) {
  for (const auto& group : {Group::test_group(), Group::curve_group()}) {
    fuzz([&](const Bytes& b) {
      Reader r(b);
      auto cm = protocols::CertifiedMessage::decode(r, *group);
      r.expect_done();
      (void)cm;
    }, 8);
  }
  // A real certificate: every truncation throws, and every single-byte
  // corruption either fails to decode or fails the certificate check.
  Rng rng(8);
  auto deployment = adversary::Deployment::threshold(4, 1, rng, adversary::CryptoConfig::curve());
  const auto& pk = deployment.keys->public_keys().quorum_sig;
  protocols::CertifiedMessage cm{bytes_of("certified"), {}};
  for (int party = 0; party < 3; ++party) {
    for (auto& sig : deployment.keys->share(party).quorum_sig.sign(
             pk, protocols::consistent_statement("cbc/0", cm.message))) {
      cm.certificate.push_back(std::move(sig));
    }
  }
  Writer w;
  cm.encode(w, pk.group());
  const Bytes valid = w.take();
  const auto decode_and_check = [&](const Bytes& b) {
    Reader r(b);
    auto decoded = protocols::CertifiedMessage::decode(r, pk.group());
    r.expect_done();
    return protocols::verify_certificate(pk, *deployment.quorum, "cbc/0", decoded);
  };
  truncation_sweep(valid, decode_and_check);
  ASSERT_TRUE(decode_and_check(valid));
  for (std::size_t i = 0; i < valid.size(); ++i) {
    Bytes corrupted = valid;
    corrupted[i] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    bool accepted = false;
    try {
      accepted = decode_and_check(corrupted);
    } catch (const ProtocolError&) {
    }
    EXPECT_FALSE(accepted) << "corrupted byte " << i;
  }
}

TEST(FuzzTest, ServiceRequestDecoders) {
  fuzz([](const Bytes& b) { app::CaRequest::decode(b); }, 9);
  fuzz([](const Bytes& b) { app::CaResponse::decode(b); }, 10);
  fuzz([](const Bytes& b) { app::DirRequest::decode(b); }, 11);
  fuzz([](const Bytes& b) { app::DirResponse::decode(b); }, 12);
  fuzz([](const Bytes& b) { app::NotaryRequest::decode(b); }, 13);
  fuzz([](const Bytes& b) { app::NotaryResponse::decode(b); }, 14);
}

TEST(FuzzTest, StateMachinesNeverThrowOnGarbage) {
  // execute() must be total: garbage requests produce error *responses*
  // (the replicas must stay deterministic and alive).
  Rng rng(15);
  app::CertificationAuthority ca;
  app::SecureDirectory dir;
  app::Notary notary;
  for (int i = 0; i < 200; ++i) {
    Bytes garbage = rng.bytes(rng.below(100));
    EXPECT_NO_THROW(ca.execute(garbage));
    EXPECT_NO_THROW(dir.execute(garbage));
    EXPECT_NO_THROW(notary.execute(garbage));
  }
}

// ---- Captured-traffic mutation (issue 2) -------------------------------
//
// Random-buffer fuzzing rarely reaches past the first length prefix.  A
// network adversary replays *real* traffic — duplicated, truncated, and
// re-ordered copies of messages it has seen.  These tests capture a
// genuine protocol run, mutate every captured message, feed the result
// into every party's handlers, and assert that nothing crashes (malformed
// input must surface as ProtocolError, which Party swallows) and that the
// protocol still completes correctly afterwards (no state corruption).

/// Feed duplicated, truncated, and re-ordered copies of the captured
/// traffic to every honest party of `cluster`.  Everything goes through
/// Party::on_message — exactly the code path network input takes.
template <typename State>
void replay_mutated(protocols::Cluster<State>& cluster,
                    const std::vector<net::Message>& captured) {
  for (int id = 0; id < cluster.n(); ++id) {
    net::Party* party = cluster.party(id);
    if (party == nullptr) continue;
    // Re-ordered: newest first.  Each message delivered twice (duplicate)
    // plus several truncations of its payload.
    for (auto it = captured.rbegin(); it != captured.rend(); ++it) {
      net::Message m = *it;
      m.to = id;
      ASSERT_NO_THROW(party->on_message(m)) << "tag " << m.tag;
      ASSERT_NO_THROW(party->on_message(m)) << "duplicate, tag " << m.tag;
      for (std::size_t len : {std::size_t{0}, m.payload.size() / 2,
                              m.payload.size() == 0 ? std::size_t{0} : m.payload.size() - 1}) {
        net::Message truncated = m;
        truncated.payload.resize(len);
        ASSERT_NO_THROW(party->on_message(truncated))
            << "truncated to " << len << ", tag " << m.tag;
      }
    }
  }
}

TEST(FuzzTest, MutatedCapturedRbcTraffic) {
  Rng rng(42);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  struct Holder {
    std::unique_ptr<protocols::ReliableBroadcast> rbc;
    std::optional<Bytes> delivered;
  };
  auto factory = [](net::Party& party, int) {
    auto holder = std::make_unique<Holder>();
    holder->rbc = std::make_unique<protocols::ReliableBroadcast>(
        party, "rbc/0", 0, [h = holder.get()](Bytes m) { h->delivered = std::move(m); });
    return holder;
  };

  std::vector<net::Message> captured;
  {
    net::RandomScheduler base(7);
    protocols::CapturingScheduler sched(base, captured);
    protocols::Cluster<Holder> cluster(deployment, sched, factory);
    cluster.start();
    cluster.protocol(0)->rbc->start(bytes_of("capture"));
    ASSERT_TRUE(cluster.run_until_all(
        [](Holder& h) { return h.delivered.has_value(); }, 100000));
  }
  ASSERT_FALSE(captured.empty());

  net::RandomScheduler sched(8);
  protocols::Cluster<Holder> cluster(deployment, sched, factory);
  cluster.start();
  replay_mutated(cluster, captured);
  // No corruption: the instance still reaches (or already reached, since
  // the replayed traffic is genuinely valid) agreement on the payload.
  cluster.protocol(0)->rbc->start(bytes_of("capture"));
  ASSERT_TRUE(cluster.run_until_all(
      [](Holder& h) { return h.delivered.has_value(); }, 100000));
  cluster.for_each([](int, Holder& h) { EXPECT_EQ(*h.delivered, bytes_of("capture")); });
}

TEST(FuzzTest, MutatedCapturedAbbaAndVbaTraffic) {
  Rng rng(43);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  struct Holder {
    std::unique_ptr<protocols::Abba> abba;
    std::unique_ptr<protocols::Vba> vba;
    std::optional<bool> abba_decision;
    std::optional<Bytes> vba_decision;
  };
  auto factory = [](net::Party& party, int) {
    auto holder = std::make_unique<Holder>();
    holder->abba = std::make_unique<protocols::Abba>(
        party, "ba/0", [h = holder.get()](bool v, int) { h->abba_decision = v; });
    holder->vba = std::make_unique<protocols::Vba>(
        party, "vba/0", /*first_candidate=*/0, [](BytesView) { return true; },
        [h = holder.get()](Bytes v) { h->vba_decision = std::move(v); });
    return holder;
  };
  auto start_all = [](protocols::Cluster<Holder>& cluster) {
    cluster.for_each([](int id, Holder& h) {
      h.abba->start(id % 2 == 0);
      h.vba->propose(bytes_of("v" + std::to_string(id)));
    });
  };
  auto done = [](Holder& h) {
    return h.abba_decision.has_value() && h.vba_decision.has_value();
  };

  std::vector<net::Message> captured;
  {
    net::RandomScheduler base(9);
    protocols::CapturingScheduler sched(base, captured);
    protocols::Cluster<Holder> cluster(deployment, sched, factory);
    cluster.start();
    start_all(cluster);
    ASSERT_TRUE(cluster.run_until_all(done, 3000000));
  }
  ASSERT_FALSE(captured.empty());
  // The capture must hold every ABBA message type — BVAL, AUX, CONF, a
  // threshold-coin share and DECIDE — or the replay below skips handlers.
  std::set<std::uint8_t> abba_types;
  for (const net::Message& m : captured) {
    if (m.tag == "ba/0" && !m.payload.empty()) abba_types.insert(m.payload[0]);
  }
  for (const std::uint8_t type : {protocols::Abba::kBval, protocols::Abba::kAux,
                                  protocols::Abba::kConf, protocols::Abba::kCoinShare,
                                  protocols::Abba::kDecide}) {
    EXPECT_TRUE(abba_types.contains(type)) << "capture lacks ABBA type " << int{type};
  }

  // The capture covers ABBA's BVAL/AUX/CONF/coin/DECIDE handlers plus
  // VBA's consistent-broadcast, vote, and fetch handlers — replay it
  // mutated into all of them, then check both protocols still complete
  // and agree.
  net::RandomScheduler sched(10);
  protocols::Cluster<Holder> cluster(deployment, sched, factory);
  cluster.start();
  replay_mutated(cluster, captured);
  start_all(cluster);
  ASSERT_TRUE(cluster.run_until_all(done, 3000000));
  std::optional<bool> abba_common;
  std::optional<Bytes> vba_common;
  cluster.for_each([&](int, Holder& h) {
    if (!abba_common.has_value()) abba_common = h.abba_decision;
    if (!vba_common.has_value()) vba_common = h.vba_decision;
    EXPECT_EQ(*h.abba_decision, *abba_common) << "abba agreement corrupted";
    EXPECT_EQ(*h.vba_decision, *vba_common) << "vba agreement corrupted";
  });
}

// ---- batch-verifier inputs (issue 5) -----------------------------------
//
// The batch verifiers sit behind the deferred-verification pipeline, so
// they see whatever share sets the structural admission checks let
// through — including sets a Byzantine peer shaped to be truncated
// (below threshold), duplicated (same unit twice), or numerically
// garbage.  The contract: every such set either produces a result or
// throws ProtocolError; through the pool, nothing may crash or wedge.

/// Malformed input must surface as a result or ProtocolError — never a
/// crash, another exception type, or a hang.
template <typename Fn>
void expect_total(Fn&& fn, const char* what) {
  try {
    fn();
  } catch (const ProtocolError&) {
    // fine: rejected explicitly
  } catch (...) {
    ADD_FAILURE() << what << ": non-ProtocolError exception escaped";
  }
}

TEST(FuzzTest, BatchVerifiersSurviveTruncatedAndDuplicatedShareSets) {
  Rng rng(17);
  auto scheme = std::make_shared<crypto::ThresholdScheme>(4, 1);

  auto coin = crypto::CoinDeal::deal(Group::test_group(), scheme, rng);
  Bytes name = bytes_of("fuzz");
  std::vector<crypto::CoinShare> coin_shares;
  for (int p = 0; p < 3; ++p) {
    for (auto& s : coin.secret_keys[static_cast<std::size_t>(p)].share(coin.public_key, name,
                                                                       rng)) {
      coin_shares.push_back(s);
    }
  }

  auto sig = crypto::ThresholdSigDeal::deal(crypto::RsaParams::precomputed(128), scheme, rng);
  Bytes message = bytes_of("fuzz sign");
  std::vector<crypto::SigShare> sig_shares;
  for (int p = 0; p < 3; ++p) {
    for (auto& s : sig.secret_keys[static_cast<std::size_t>(p)].sign(sig.public_key, message,
                                                                     rng)) {
      sig_shares.push_back(s);
    }
  }

  // Truncated below threshold, duplicated units, empty, and zeroed values:
  // every variant must yield a result or a ProtocolError.
  auto coin_variants = [&](std::vector<crypto::CoinShare> v) {
    expect_total([&] { (void)crypto::batch::verify_coin_shares(coin.public_key, name, v, rng); },
                 "verify_coin_shares");
  };
  auto sig_variants = [&](std::vector<crypto::SigShare> v) {
    expect_total(
        [&] { (void)crypto::batch::verify_sig_shares(sig.public_key, message, v, rng); },
        "verify_sig_shares");
    expect_total(
        [&] { (void)crypto::batch::find_invalid_sig_shares(sig.public_key, message, v, rng); },
        "find_invalid_sig_shares");
    expect_total(
        [&] { (void)crypto::batch::combine_sig_optimistic(sig.public_key, message, v, rng); },
        "combine_sig_optimistic");
  };

  coin_variants({});
  sig_variants({});
  coin_variants({coin_shares[0]});                                   // below threshold
  sig_variants({sig_shares[0]});
  coin_variants({coin_shares[0], coin_shares[0], coin_shares[0]});   // duplicated unit
  sig_variants({sig_shares[0], sig_shares[0], sig_shares[0]});
  {
    auto zeroed = coin_shares;
    for (auto& s : zeroed) s.value = coin.public_key.group().identity();
    coin_variants(zeroed);
  }
  {
    auto zeroed = sig_shares;
    for (auto& s : zeroed) s.value = crypto::BigInt(0);
    sig_variants(zeroed);
  }
}

TEST(FuzzTest, MalformedBatchesNeverWedgeTheWorkPool) {
  // A pool job that combines a malformed set must still complete, and the
  // pool must keep serving afterwards — in both sequential and threaded
  // mode.
  Rng rng(18);
  auto scheme = std::make_shared<crypto::ThresholdScheme>(4, 1);
  auto sig = crypto::ThresholdSigDeal::deal(crypto::RsaParams::precomputed(128), scheme, rng);
  Bytes message = bytes_of("fuzz sign");
  std::vector<crypto::SigShare> dup;
  for (auto& s : sig.secret_keys[0].sign(sig.public_key, message, rng)) {
    dup.push_back(s);
    dup.push_back(s);  // duplicated unit
  }
  for (std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    common::WorkPool pool(threads);
    int completions = 0;
    for (int i = 0; i < 8; ++i) {
      pool.submit(
          [&, i]() -> Bytes {
            Rng job_rng(static_cast<std::uint64_t>(i) + 100);
            auto result =
                crypto::batch::combine_sig_optimistic(sig.public_key, message, dup, job_rng);
            Writer w;
            w.u8(result.value.has_value() ? 1 : 0);
            return w.take();
          },
          [&](Bytes) { ++completions; });
    }
    pool.wait_idle();
    EXPECT_EQ(completions, 8) << "threads=" << threads;
    // Still alive for honest work.
    bool ok = false;
    pool.submit([] { return bytes_of("ok"); }, [&](Bytes b) { ok = (b == bytes_of("ok")); });
    pool.wait_idle();
    EXPECT_TRUE(ok) << "threads=" << threads;
  }
}

// ---- coalesced BATCH super-frames (issue 7) ----------------------------
//
// The BATCH body is the newest decoder a Byzantine peer can reach: it
// carries a count and nested length-prefixed payloads, the classic shape
// for over-read and over-allocation bugs.  Fuzz both the owning and the
// zero-copy decoder, sweep truncations of a valid batch, and drive
// duplicated/reordered super-frames through the authenticated decoder and
// a ReliableLink to confirm the exactly-once contract survives them.

TEST(FuzzTest, BatchBodyDecodersSurviveFuzzAndTruncation) {
  using net::transport::DataBatchBody;
  using net::transport::DataBatchView;
  fuzz([](const Bytes& b) {
    Reader r(b);
    auto batch = DataBatchBody::decode(r);
    (void)batch;
  }, 27);
  fuzz([](const Bytes& b) {
    auto view = DataBatchView::decode(b);
    (void)view;
  }, 28);

  DataBatchBody batch;
  batch.ack = 3;
  batch.base = 1;
  batch.records.push_back({1, 0, bytes_of("alpha")});
  batch.records.push_back({2, 0, Bytes{}});
  batch.records.push_back({3, 0, bytes_of("gamma")});
  const Bytes valid = batch.encode();
  truncation_sweep(valid, [](const Bytes& b) {
    Reader r(b);
    (void)DataBatchBody::decode(r);
  });
  truncation_sweep(valid, [](const Bytes& b) { (void)DataBatchView::decode(b); });
}

TEST(FuzzTest, DuplicatedAndReorderedBatchFramesDeliverExactlyOnce) {
  using net::transport::DataBatchBody;
  using net::transport::DataBatchView;
  using net::transport::FrameDecoder;
  using net::transport::FrameType;
  using net::transport::ReliableLink;
  const Bytes key(32, 0x6b);

  // Two super-frames carrying seqs 0..2 and 3..5.
  auto make_wire = [&](std::uint64_t first, std::uint64_t count) {
    DataBatchBody batch;
    batch.base = 0;
    for (std::uint64_t s = first; s < first + count; ++s) {
      batch.records.push_back({s, 0, bytes_of("payload" + std::to_string(s))});
    }
    const Bytes body = batch.encode();
    return net::transport::encode_frame(FrameType::kDataBatch, body, key);
  };
  const Bytes wire_a = make_wire(0, 3);
  const Bytes wire_b = make_wire(3, 3);

  // A replaying adversary's stream: the second batch first, then each
  // batch twice.  The MAC accepts them all (they are genuine frames); the
  // link must still deliver each payload exactly once, in seq order.
  ReliableLink link;
  FrameDecoder decoder;
  std::vector<Bytes> delivered;
  for (const Bytes* wire : {&wire_b, &wire_a, &wire_a, &wire_b}) {
    decoder.feed(*wire);
    FrameType type{};
    BytesView body;
    ASSERT_EQ(decoder.next_view(key, type, body), FrameDecoder::Status::kFrame);
    ASSERT_EQ(type, FrameType::kDataBatch);
    const DataBatchView view = DataBatchView::decode(body);
    for (const auto& record : view.records) {
      const ReliableLink::FastPath fast = link.accept_inorder(record.seq, view.base);
      if (fast.taken) {
        delivered.emplace_back(record.payload.begin(), record.payload.end());
      } else {
        auto incoming =
            link.on_data(record.seq, view.base, Bytes(record.payload.begin(), record.payload.end()));
        for (auto& delivery : incoming.deliver) delivered.push_back(std::move(delivery.payload));
      }
    }
  }
  ASSERT_EQ(delivered.size(), 6u);
  for (std::uint64_t s = 0; s < 6; ++s) {
    EXPECT_EQ(delivered[s], bytes_of("payload" + std::to_string(s))) << "seq " << s;
  }
  EXPECT_EQ(link.stats().delivered, 6u);
  EXPECT_EQ(link.stats().duplicates, 6u);  // each frame replayed once
  EXPECT_EQ(link.stats().reordered, 3u);   // wire_b parked until wire_a arrived
  EXPECT_EQ(link.recv_cursor(), 6u);
}

// ---- group-stamped BATCH super-frames (wire v4, issue 10) --------------
//
// Wire v4 adds a u32 group id to every batch record so one super-frame
// can carry many tenants' payloads.  A Byzantine peer controls that stamp
// completely: it can truncate mid-group-field, claim groups the host does
// not run, and mix known and unknown groups.
// Every such input must decode-or-reject — never over-read, never crash,
// never leak one tenant's payload into another.

TEST(FuzzTest, GroupStampedBatchRecordsRoundTripAndRejectTruncation) {
  using net::transport::DataBatchBody;
  using net::transport::DataBatchView;

  // Round-trip preserves per-record group ids across the full u32 range.
  DataBatchBody batch;
  batch.ack = 7;
  batch.base = 2;
  batch.records.push_back({2, 0, bytes_of("tenant-zero")});
  batch.records.push_back({3, 1, bytes_of("tenant-one")});
  batch.records.push_back({4, 0xffffffffu, Bytes{}});
  batch.records.push_back({5, 0x7f3a9c01u, bytes_of("high-group")});
  const Bytes valid = batch.encode();

  Reader reader(valid);
  const DataBatchBody owned = DataBatchBody::decode(reader);
  ASSERT_EQ(owned.records.size(), 4u);
  EXPECT_EQ(owned.records[1].group, 1u);
  EXPECT_EQ(owned.records[2].group, 0xffffffffu);
  EXPECT_EQ(owned.records[3].group, 0x7f3a9c01u);

  const DataBatchView view = DataBatchView::decode(valid);
  ASSERT_EQ(view.records.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(view.records[i].group, owned.records[i].group);
    EXPECT_TRUE(std::equal(view.records[i].payload.begin(), view.records[i].payload.end(),
                           owned.records[i].payload.begin(), owned.records[i].payload.end()));
  }

  // Every strict prefix — including cuts INSIDE a record's group field —
  // must throw, in both decoders.  The group id widened each record by
  // four bytes; a lazy decoder that read the old layout would mis-slice
  // payload bytes as the next record's header instead of throwing.
  truncation_sweep(valid, [](const Bytes& b) {
    Reader r(b);
    (void)DataBatchBody::decode(r);
  });
  truncation_sweep(valid, [](const Bytes& b) { (void)DataBatchView::decode(b); });
}

TEST(FuzzTest, MutatedGroupStampedBatchesDecodeOrRejectWithoutUB) {
  using net::transport::DataBatchBody;
  using net::transport::DataBatchView;
  Rng rng(31);

  // Start from valid group-stamped batches and mutate: flipped bytes can
  // corrupt counts, group ids or nested lengths.  Decoders
  // must parse or throw ProtocolError; parsed groups are whatever the
  // bytes say (routing rejects unknowns later — see below).
  for (int round = 0; round < 200; ++round) {
    DataBatchBody batch;
    batch.ack = rng.below(100);
    batch.base = rng.below(100);
    const std::uint64_t count = 1 + rng.below(5);
    for (std::uint64_t s = 0; s < count; ++s) {
      batch.records.push_back({batch.base + s, static_cast<std::uint32_t>(rng.below(1 << 16)),
                               rng.bytes(rng.below(40))});
    }
    Bytes wire = batch.encode();
    const std::size_t flips = 1 + rng.below(6);
    for (std::size_t f = 0; f < flips; ++f) {
      wire[rng.below(wire.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    try {
      Reader r(wire);
      (void)DataBatchBody::decode(r);
    } catch (const ProtocolError&) {
    }
    try {
      (void)DataBatchView::decode(wire);
    } catch (const ProtocolError&) {
    }
  }
}

TEST(FuzzTest, UnknownGroupsNeverReachAForeignTenant) {
  using net::transport::NetworkedNode;

  // A two-tenant host: arbitrary group stamps from a Byzantine peer must
  // be dropped (unknown group) or dispatched to the stamped tenant — and a
  // payload stamped for group 3 must never surface in groups 1 or 2.
  NetworkedNode::Config config;
  config.node_id = 0;
  config.n = 2;
  NetworkedNode node(config);
  struct Sink final : public net::Process {
    std::vector<net::Message> messages;
    void on_message(const net::Message& message) override { messages.push_back(message); }
  };
  Sink sink_a;
  Sink sink_b;
  node.add_group(1).attach(sink_a);
  node.add_group(2).attach(sink_b);

  Rng rng(37);
  for (int round = 0; round < 500; ++round) {
    const auto group = static_cast<std::uint32_t>(rng.below(5));  // 0..4; 3,4 unknown
    if (rng.below(4) == 0) {
      // Raw garbage under a valid group stamp: malformed, counted, dropped.
      node.on_transport_receive(1, group, rng.bytes(rng.below(64)));
      continue;
    }
    net::Message m;
    m.from = 1;
    m.to = 0;
    m.tag = "svc";
    m.payload = bytes_of("g" + std::to_string(group));
    node.on_transport_receive(1, group, NetworkedNode::encode_payload(m));
  }
  node.poll();

  const NetworkedNode::Stats stats = node.stats();
  EXPECT_GT(stats.unknown_group, 0u);  // groups 3 and 4 were sprayed
  EXPECT_FALSE(sink_a.messages.empty());
  EXPECT_FALSE(sink_b.messages.empty());
  for (const auto& message : sink_a.messages) {
    EXPECT_EQ(message.payload, bytes_of("g1")) << "foreign payload crossed into group 1";
  }
  for (const auto& message : sink_b.messages) {
    EXPECT_EQ(message.payload, bytes_of("g2")) << "foreign payload crossed into group 2";
  }
}

TEST(FuzzTest, GroupElementDecodeRejectsRandomBytes) {
  // A random p-sized buffer is almost never in the order-q subgroup; the
  // decoder must reject, not accept-and-corrupt.
  auto group = Group::test_group();
  Rng rng(16);
  int accepted = 0;
  for (int i = 0; i < 100; ++i) {
    Bytes buffer = rng.bytes(group->element_bytes());
    try {
      Reader r(buffer);
      group->decode_element(r);
      ++accepted;
    } catch (const ProtocolError&) {
    }
  }
  // Subgroup density is q/p ~ 2^-128: zero acceptances expected.
  EXPECT_EQ(accepted, 0);
}

// ---- curve-element inputs (issue 6) ------------------------------------
//
// The secp256k1 backend introduces a second wire format for group
// elements (33-byte compressed SEC1).  Every malformed-point class a peer
// can ship — truncated, bad prefix byte, x out of field range, x with no
// curve solution, non-canonical infinity — must be rejected by the
// decoder and, through it, by every protocol-message decoder that embeds
// curve elements.

/// A valid compressed encoding of a random curve element.
Bytes curve_point_bytes(std::uint64_t seed) {
  auto group = Group::curve_group();
  Rng rng(seed);
  Writer w;
  group->encode_element(w, group->exp_g(group->random_scalar(rng)));
  return w.take();
}

/// Malformed 33-byte encodings covering every rejection class.
std::vector<Bytes> malformed_curve_encodings() {
  std::vector<Bytes> bad;
  Bytes valid = curve_point_bytes(19);
  // Bad prefix byte (only 0x02/0x03 introduce a finite point).
  for (std::uint8_t prefix : {0x00, 0x01, 0x04, 0x05, 0xFF}) {
    Bytes b = valid;
    b[0] = prefix;
    if (prefix == 0x00) {
      // prefix 0 is only legal as all-zero infinity; keep x nonzero so
      // this exercises the non-canonical-infinity reject.
      b[1] |= 1;
    }
    bad.push_back(std::move(b));
  }
  // x >= p (field element out of range).
  {
    Bytes b(33, 0xFF);
    b[0] = 0x02;
    bad.push_back(std::move(b));
  }
  // x with no curve solution: x = 0 with the finite-point prefix asks for
  // y^2 = 7, which is a non-residue mod p.
  {
    Bytes b(33, 0x00);
    b[0] = 0x02;
    bad.push_back(std::move(b));
  }
  return bad;
}

TEST(FuzzTest, CurveElementDecodeRejectsMalformed) {
  auto group = Group::curve_group();
  for (const Bytes& b : malformed_curve_encodings()) {
    Reader r(b);
    EXPECT_THROW(group->decode_element(r), ProtocolError)
        << "prefix 0x" << std::hex << int(b[0]);
  }
  // Random 33-byte buffers: ~half of well-prefixed x values have a curve
  // solution, so some acceptances are expected — but never a crash and
  // never an off-curve element.
  Rng rng(20);
  for (int i = 0; i < 300; ++i) {
    Bytes buffer = rng.bytes(group->element_bytes());
    try {
      Reader r(buffer);
      crypto::Element e = group->decode_element(r);
      EXPECT_TRUE(group->is_element(e));
    } catch (const ProtocolError&) {
    }
  }
  // Every strict truncation of a valid encoding throws.
  truncation_sweep(curve_point_bytes(21), [&](const Bytes& b) {
    Reader r(b);
    group->decode_element(r);
    r.expect_done();
  });
}

TEST(FuzzTest, CurveProtocolDecodersRejectMalformedPoints) {
  // Drive the malformed encodings through the protocol-message decoders
  // that embed curve elements: coin shares (value), TDH2 ciphertexts
  // (u, u_bar, w, w_bar) and decryption shares.  Each splice must throw,
  // never crash or accept.
  auto group = Group::curve_group();
  Rng rng(22);
  auto scheme = std::make_shared<crypto::ThresholdScheme>(4, 1);

  auto coin = crypto::CoinDeal::deal(group, scheme, rng);
  Bytes name = bytes_of("curve-fuzz");
  auto coin_shares = coin.secret_keys[0].share(coin.public_key, name, rng);
  Writer cw;
  coin_shares[0].encode(cw, *group);
  const Bytes coin_wire = cw.take();

  auto tdh2 = crypto::Tdh2Deal::deal(group, scheme, rng);
  auto ct = tdh2.public_key.encrypt(bytes_of("msg"), bytes_of("l"), rng);
  Writer tw;
  ct.encode(tw, *group);
  const Bytes ct_wire = tw.take();

  for (const Bytes& bad : malformed_curve_encodings()) {
    // Splice the malformed point over every aligned 33-byte window where a
    // point encoding can sit; windows that land on non-point fields may
    // still decode, which is fine — the point windows must throw.
    for (std::size_t off = 0; off + bad.size() <= coin_wire.size(); ++off) {
      Bytes spliced = coin_wire;
      std::copy(bad.begin(), bad.end(), spliced.begin() + static_cast<std::ptrdiff_t>(off));
      expect_total(
          [&] {
            Reader r(spliced);
            (void)crypto::CoinShare::decode(r, *group);
            r.expect_done();
          },
          "CoinShare::decode(curve)");
    }
    for (std::size_t off = 0; off + bad.size() <= ct_wire.size(); ++off) {
      Bytes spliced = ct_wire;
      std::copy(bad.begin(), bad.end(), spliced.begin() + static_cast<std::ptrdiff_t>(off));
      expect_total(
          [&] {
            Reader r(spliced);
            (void)crypto::Tdh2Ciphertext::decode(r, *group);
            r.expect_done();
          },
          "Tdh2Ciphertext::decode(curve)");
    }
  }

  // Seeded random-buffer fuzz of the same decoders on the curve backend.
  fuzz([&](const Bytes& b) {
    Reader r(b);
    auto s = crypto::CoinShare::decode(r, *group);
    r.expect_done();
    (void)s;
  }, 23);
  fuzz([&](const Bytes& b) {
    Reader r(b);
    auto c = crypto::Tdh2Ciphertext::decode(r, *group);
    r.expect_done();
    (void)c;
  }, 24);
  fuzz([&](const Bytes& b) {
    Reader r(b);
    auto s = crypto::Tdh2DecShare::decode(r, *group);
    r.expect_done();
    (void)s;
  }, 25);
}

TEST(FuzzTest, CurveBatchVerifierRejectsTamperedShares) {
  // Batch verification on the curve backend: tampered and identity-valued
  // shares must be caught, not folded into an accepting batch.
  auto group = Group::curve_group();
  Rng rng(26);
  auto scheme = std::make_shared<crypto::ThresholdScheme>(4, 1);
  auto coin = crypto::CoinDeal::deal(group, scheme, rng);
  Bytes name = bytes_of("curve-batch-fuzz");
  std::vector<crypto::CoinShare> shares;
  for (int p = 0; p < 3; ++p) {
    for (auto& s : coin.secret_keys[static_cast<std::size_t>(p)].share(coin.public_key, name,
                                                                       rng)) {
      shares.push_back(s);
    }
  }
  ASSERT_TRUE(crypto::batch::verify_coin_shares(coin.public_key, name, shares, rng));
  auto tampered = shares;
  tampered[1].value = group->mul(tampered[1].value, group->g());
  EXPECT_FALSE(crypto::batch::verify_coin_shares(coin.public_key, name, tampered, rng));
  auto identity_valued = shares;
  for (auto& s : identity_valued) s.value = group->identity();
  expect_total(
      [&] {
        (void)crypto::batch::verify_coin_shares(coin.public_key, name, identity_valued, rng);
      },
      "verify_coin_shares(curve identity)");
}

// ---- reconfiguration / state-transfer wire messages ------------------------

TEST(FuzzTest, ReconfigWireDecodersSurviveFuzzAndTruncation) {
  auto group = Group::test_group();

  protocols::ReconfigPlan plan;  // valid: epoch 1, (4,1) -> (4,1), all stay
  plan.new_epoch = 1;
  plan.n_old = 4;
  plan.t_old = 1;
  plan.n_new = 4;
  plan.t_new = 1;
  plan.old_slot = {0, 1, 2, 3};
  {
    Writer w;
    plan.encode(w);
    const auto decode = [](const Bytes& b) {
      Reader r(b);
      (void)protocols::ReconfigPlan::decode(r);
      r.expect_done();
    };
    truncation_sweep(w.data(), decode);
    fuzz(decode, 61);
  }

  // RSA verification values and commitments ride as residues mod N.
  const auto residue = [](int v) { return crypto::Element::from_residue(crypto::BigInt(v)); };
  protocols::NewConfig config;
  config.plan = plan;
  config.fence.chain_digest = crypto::chain_initial();  // unfenced placeholder
  for (int i = 0; i < 4; ++i) {
    config.verification[protocols::kKeyCoin].push_back(group->exp_g(crypto::BigInt(i + 2)));
    config.verification[protocols::kKeyTdh2].push_back(group->exp_g(crypto::BigInt(i + 3)));
    config.verification[protocols::kKeyReply].push_back(residue(1000 + i));
    config.verification[protocols::kKeyCert].push_back(residue(2000 + i));
    config.verification[protocols::kKeyQuorum].push_back(group->exp_g(crypto::BigInt(i + 4)));
  }
  config.scale[protocols::kKeyReply] = crypto::BigInt(1);
  config.scale[protocols::kKeyCert] = crypto::BigInt(1);
  config.share_bits[protocols::kKeyReply] = 512;
  config.share_bits[protocols::kKeyCert] = 512;
  config.signature = crypto::BigInt(7);
  {
    Writer w;
    config.encode(w, *group);
    const auto decode = [&](const Bytes& b) {
      Reader r(b);
      (void)protocols::NewConfig::decode(r, *group);
      r.expect_done();
    };
    truncation_sweep(w.data(), decode);
    fuzz(decode, 62);
  }

  protocols::JoinPackage package;
  package.config = config;
  package.applied = {0, 1};
  for (int d = 0; d < 2; ++d) {
    package.commitments[protocols::kKeyCoin].push_back(
        {group->exp_g(crypto::BigInt(d + 5)), group->g()});
    package.commitments[protocols::kKeyTdh2].push_back(
        {group->exp_g(crypto::BigInt(d + 6)), group->g()});
    package.commitments[protocols::kKeyReply].push_back({residue(10 + d), residue(11 + d)});
    package.commitments[protocols::kKeyCert].push_back({residue(20 + d), residue(21 + d)});
    package.commitments[protocols::kKeyQuorum].push_back(
        {group->exp_g(crypto::BigInt(d + 7)), group->g()});
    for (std::size_t k = 0; k < protocols::kDealtKeys; ++k) {
      package.subshares[k].push_back(crypto::BigInt(30 + 10 * static_cast<int>(k) + d));
    }
    package.macs.push_back(Bytes(32, static_cast<std::uint8_t>(0xa0 + d)));
  }
  {
    Writer w;
    package.encode(w, *group);
    const auto decode = [&](const Bytes& b) {
      Reader r(b);
      (void)protocols::JoinPackage::decode(r, *group);
      r.expect_done();
    };
    truncation_sweep(w.data(), decode);
    fuzz(decode, 63);
  }
}

TEST(FuzzTest, NodePayloadSurvivesFuzzAndTruncation) {
  net::Message message;
  message.from = 1;
  message.to = 0;
  message.tag = "svc";
  message.payload = bytes_of("node payload");
  const Bytes valid = net::transport::NetworkedNode::encode_payload(message);
  const auto decode = [](const Bytes& b) {
    (void)net::transport::NetworkedNode::decode_payload(1, 0, b);
  };
  truncation_sweep(valid, decode);
  fuzz(decode, 64);
}

// ---- signed replies (ServiceClient::on_message) -----------------------------
//
// A reply is the one message a client takes from servers it does not
// trust with anything: every byte of it — request id, reply, index,
// count, path, shares — is the sender's to choose.

TEST(FuzzTest, MutatedSignedRepliesNeverCompleteARequest) {
  // A real reply from server 0 (leaf 1 of a three-leaf round, valid shares
  // on its root), truncated at every byte and mutated to every other
  // value at every byte, plus degenerate tree shapes, fed to a client
  // that has the request outstanding.  Server 0 alone is never a
  // qualified set, so nothing may complete; nothing may crash or throw.
  Rng rng(83);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  net::Simulator sim(deployment.n() + 1, sched);
  int receipts = 0;
  app::ServiceClient client(sim, 4, deployment, "svc", app::Replica::Mode::kAtomic, 85,
                            [&](std::uint64_t, app::ServiceClient::Receipt) { ++receipts; });
  const Bytes body = bytes_of("lookup alice");
  const std::uint64_t id = client.request(Bytes(body));

  std::vector<crypto::Digest> leaves;
  for (int i = 0; i < 3; ++i) {
    app::RequestEnvelope envelope;
    envelope.client = i == 1 ? 4 : 5;
    envelope.request_id = i == 1 ? id : static_cast<std::uint64_t>(i + 10);
    envelope.body = i == 1 ? body : bytes_of("lookup bob");
    leaves.push_back(crypto::merkle::leaf(
        app::reply_statement("svc", envelope, bytes_of("reply " + std::to_string(i)))));
  }
  const crypto::merkle::Tree tree(leaves);
  const auto& pk = deployment.keys->public_keys().reply_sig;
  Rng sign_rng(87);
  auto honest = [&](int server) {
    app::SignedReply out;
    out.request_id = id;
    out.reply = bytes_of("reply 1");
    out.index = 1;
    out.count = tree.count();
    out.path = tree.path(1);
    out.shares = deployment.keys->share(server).reply_sig.sign(
        pk, app::root_statement("svc", tree.count(), tree.root()), sign_rng);
    return out;
  };
  auto feed = [&](int server, Bytes payload) {
    net::Message message{server, 4, "svc/reply", std::move(payload)};
    ASSERT_NO_THROW(client.on_message(message));
  };

  const Bytes wire = honest(0).encode();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    feed(0, Bytes(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len)));
  }
  for (std::size_t pos = 0; pos < wire.size(); ++pos) {
    for (int flip = 1; flip < 256; ++flip) {
      Bytes mutated = wire;
      mutated[pos] ^= static_cast<std::uint8_t>(flip);
      feed(0, std::move(mutated));
    }
  }
  app::SignedReply shape = honest(0);
  shape.count = 0;
  feed(0, shape.encode());
  shape.count = 3;
  shape.index = 3;
  feed(0, shape.encode());
  shape.index = 0;
  shape.count = 0xffffffffu;
  shape.path.clear();
  feed(0, shape.encode());
  Writer huge;  // claims a million path elements, carries one
  huge.u8(app::kReplyOk);
  huge.u64(id);
  huge.bytes(bytes_of("reply 1"));
  huge.u32(1);
  huge.u32(3);
  huge.u32(1000000);
  huge.raw(BytesView(tree.root().data(), tree.root().size()));
  feed(0, huge.take());
  EXPECT_EQ(receipts, 0);
  EXPECT_EQ(client.outstanding(), 1u);

  // The client is not wedged: honest replies from two more servers still
  // complete the request.
  feed(1, honest(1).encode());
  feed(2, honest(2).encode());
  EXPECT_EQ(receipts, 1);
  EXPECT_EQ(client.outstanding(), 0u);
}

}  // namespace
}  // namespace sintra
