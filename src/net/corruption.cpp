#include "net/corruption.hpp"

#include "common/serialize.hpp"
#include "crypto/sha256.hpp"
#include "crypto/threshold_sig.hpp"

namespace sintra::net {

void SpamProcess::burst() {
  // Bounded spam: keeps robustness paths busy without making simulations
  // non-terminating.
  constexpr std::uint64_t kMaxSpam = 2000;
  if (tags_.empty()) return;
  for (int i = 0; i < 3 && sent_ < kMaxSpam; ++i, ++sent_) {
    Message message;
    message.from = id_;
    message.to = static_cast<int>(rng_.below(static_cast<std::uint64_t>(simulator_.n())));
    message.tag = tags_[static_cast<std::size_t>(rng_.below(tags_.size()))];
    message.payload = rng_.bytes(1 + rng_.below(64));
    simulator_.submit(std::move(message));
  }
}

FlooderProcess::FlooderProcess(Simulator& simulator, int id, adversary::Deployment deployment,
                               std::uint64_t seed, Profile profile, std::string target_tag)
    : simulator_(simulator), id_(id), deployment_(std::move(deployment)), rng_(seed),
      profile_(profile), target_tag_(std::move(target_tag)) {}

void FlooderProcess::spray(int to, std::string tag, Bytes payload) {
  Message message;
  message.from = id_;
  message.to = to;
  message.tag = std::move(tag);
  message.payload = std::move(payload);
  simulator_.submit(std::move(message));
  ++sent_;
}

void FlooderProcess::burst() {
  // Volume bound: enough pressure to exceed any reasonable test budget
  // many times over, small enough that flooded runs still quiesce.
  constexpr std::uint64_t kMaxFlood = 4000;
  constexpr int kPerBurst = 6;
  const int n = deployment_.n();
  for (int i = 0; i < kPerBurst && sent_ < kMaxFlood; ++i) {
    switch (profile_) {
      case Profile::kAbbaRounds: {
        // Future-round messages park in the deferred buffer; bodies are junk
        // (an honest party only validates them on replay).  Rounds sweep a
        // window ahead of any round the instance will actually reach.
        const std::uint32_t round = static_cast<std::uint32_t>(3 + cursor_++ % 48);
        Writer w;
        w.u8(kAbbaRoundTypes[rng_.below(kAbbaRoundTypes.size())]);
        w.u32(round);
        const Bytes junk = rng_.bytes(200 + rng_.below(200));
        w.raw(BytesView(junk.data(), junk.size()));
        const Bytes payload = w.take();
        for (int to = 0; to < n; ++to) {
          if (to != id_) spray(to, target_tag_, payload);
        }
        break;
      }
      case Profile::kAbcRounds: {
        // A properly signed batch for a round within the lookahead window:
        // it passes verification and is buffered until its round arrives —
        // only the budget stands between this and unbounded growth.
        const int round = static_cast<int>(2 + cursor_++ % 31);
        Writer block;
        std::vector<Bytes> payloads;
        payloads.push_back(rng_.bytes(300 + rng_.below(200)));
        block.vec(payloads, [](Writer& wr, const Bytes& p) { wr.bytes(p); });
        const Bytes payload_block = block.take();
        Writer sw;
        sw.str("sintra/abc/batch");
        sw.str(target_tag_);
        sw.u32(static_cast<std::uint32_t>(round));
        sw.u32(static_cast<std::uint32_t>(id_));
        auto digest = crypto::hash_domain("sintra/abc/block", payload_block);
        sw.raw(BytesView(digest.data(), digest.size()));
        const auto& pk = deployment_.keys->public_keys().quorum_sig;
        const auto sigs = deployment_.keys->share(id_).quorum_sig.sign(pk, sw.take());
        Writer w;
        w.u8(1);  // AtomicBroadcast::kBatch
        w.u32(static_cast<std::uint32_t>(round));
        w.bytes(payload_block);
        w.vec(sigs, [&](Writer& wr, const crypto::QuorumSig& s) { s.encode(wr, pk.group()); });
        const Bytes payload = w.take();
        for (int to = 0; to < n; ++to) {
          if (to != id_) spray(to, target_tag_, payload);
        }
        break;
      }
      case Profile::kPbftViews: {
        // Future-view PREPAREs with fat payloads land in the view stash.
        const std::uint32_t view = static_cast<std::uint32_t>(1 + cursor_++ % 8);
        Writer w;
        w.u8(2);  // PbftLikeBroadcast::kPrepare
        w.u32(view);
        w.u64(rng_.below(256));
        w.bytes(rng_.bytes(200 + rng_.below(200)));
        const Bytes payload = w.take();
        for (int to = 0; to < n; ++to) {
          if (to != id_) spray(to, target_tag_, payload);
        }
        break;
      }
      case Profile::kBogusTags: {
        // Instance tags nobody will ever register: the traffic sits in the
        // Party's unhandled buffer, charged to this peer until the caps
        // start dropping it.
        const std::string tag =
            target_tag_ + "/bogus/" + std::to_string(cursor_++ % 1024);
        for (int to = 0; to < n; ++to) {
          if (to != id_) spray(to, tag, rng_.bytes(100 + rng_.below(150)));
        }
        break;
      }
      case Profile::kRequests: {
        // Runaway client: a fresh request id every time, to every replica.
        Writer w;
        w.u32(static_cast<std::uint32_t>(id_));
        w.u64(++cursor_);
        w.bytes(rng_.bytes(32));
        const Bytes payload = w.take();
        for (int to = 0; to < n; ++to) {
          if (to != id_) spray(to, target_tag_, payload);
        }
        break;
      }
    }
  }
}

}  // namespace sintra::net
