#include "net/party.hpp"

#include "common/assert.hpp"

namespace sintra::net {
namespace {

/// Caps on the handler-less buffer's *shape* (its bytes are governed by
/// the ResourceBudget): a flood of minimum-size messages for many distinct
/// bogus tags stays bounded in map entries, not only in bytes.
constexpr std::size_t kMaxBufferedPerTag = 256;
constexpr std::size_t kMaxBufferedTags = 4096;
/// Retired-tag tombstones kept (FIFO).  Old tombstones expiring is safe:
/// traffic for a long-retired tag is then buffered again, budget-bounded,
/// and never re-dispatched (the instance's handler is gone for good).
/// Atomic broadcast retires one tag per round and honest peers run within
/// kRoundLookahead (32) rounds of each other, so 1024 tombstones keep a
/// 32-fold margin; each costs ~120 bytes, so the cap bounds what a
/// long-running replica holds for them.
constexpr std::size_t kMaxRetired = 1024;

}  // namespace

Party::Party(Network& network, int id, adversary::Deployment deployment, std::uint64_t seed)
    : network_(network), id_(id), deployment_(std::move(deployment)),
      seed_(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(id + 1))),
      rng_(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(id + 1))) {}

Party::DispatchCtx& Party::ctx() {
  if (!concurrent()) return main_ctx_;
  // One context per (thread, party).  Entries are value-semantic and tiny;
  // they persist until thread exit, which caps the map at parties-this-
  // thread-ever-dispatched-for.  A recycled map slot (new Party at an old
  // address) is detected through rng_owner_seed and reseeded.
  static thread_local std::map<const Party*, DispatchCtx> per_thread;
  return per_thread[this];
}

Rng& Party::rng() {
  if (!concurrent()) return rng_;
  DispatchCtx& c = ctx();
  if (!c.rng.has_value() || c.rng_owner_seed != seed_) {
    // Unique slot per (thread, party) stream: two executor threads drawing
    // nonces concurrently must never share a stream (nonce reuse would
    // break every sigma protocol in the stack), and distinct slots give
    // distinct seeds by construction.
    const std::uint64_t slot = rng_slots_.fetch_add(1, std::memory_order_relaxed) + 1;
    c.rng.emplace(seed_ + 0x9e3779b97f4a7c15ULL * slot);
    c.rng_owner_seed = seed_;
  }
  return *c.rng;
}

Network::TimerId Party::schedule_timer(std::uint64_t delay, Network::TimerFn fn) {
  if (concurrent()) {
    // The wheel fires on the pump thread; re-post the callback to the
    // executor of the instance tree that armed it so it serializes with
    // that tree's message handlers.  The scheduling tree is the one being
    // dispatched right now (or the with_instance scope during stack
    // construction).
    std::string root(ctx().current_root);
    common::ExecutorPool* pool = executors_;
    const std::uint64_t group = lane_group_;
    auto wrapped = [pool, group, root = std::move(root), fn = std::move(fn)]() {
      pool->post(pool->executor_for(group, root), fn);
    };
    return network_.schedule_timer(id_, delay, std::move(wrapped));
  }
  return network_.schedule_timer(id_, delay, std::move(fn));
}

void Party::with_instance(std::string_view root, const std::function<void()>& fn) {
  DispatchCtx& c = ctx();
  std::string previous = std::move(c.current_root);
  c.current_root.assign(root);
  fn();
  c.current_root = std::move(previous);
}

void Party::send(int to, const std::string& tag, Bytes payload) {
  Message message;
  message.from = id_;
  message.to = to;
  message.tag = tag;
  message.payload = std::move(payload);
  if (to == id_) {
    DispatchCtx& c = ctx();
    if (c.dispatching) {
      // In-handler self-message: runs on this thread, in order, before
      // control returns — same-instance-tree by construction.
      c.local.push_back(std::move(message));
      return;
    }
    if (concurrent()) {
      // External self-input under executors: loop it through the network
      // inbox so the pump thread WAL-logs it in arrival order and routes
      // it to the owning executor like any other message.
      network_.submit(std::move(message));
      return;
    }
    // A self-message from outside any handler is an external input (an
    // application-level submit).  Replay cannot regenerate it, so it goes
    // into the write-ahead log; self-messages produced *inside* handlers
    // are deterministically re-created when the triggering message is
    // replayed and must stay out of the log or they would run twice.
    if (wal_enabled_) wal_.push_back(message);
    c.local.push_back(std::move(message));
    drain_local();
    return;
  }
  network_.submit(std::move(message));
}

void Party::broadcast(const std::string& tag, const Bytes& payload) {
  for (int to = 0; to < n(); ++to) send(to, tag, Bytes(payload));
}

void Party::register_handler(const std::string& tag, Handler handler) {
  DispatchCtx& c = ctx();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    SINTRA_INVARIANT(!handlers_.contains(tag), "Party: duplicate handler tag " + tag);
    handlers_.emplace(tag, std::move(handler));
    auto buffered = buffered_.find(tag);
    if (buffered != buffered_.end()) {
      for (Message& message : buffered->second) {
        // Leaving the handler-less buffer: the owning protocol re-charges
        // if it parks the message again.
        budget_.release(message.from, message.tag, buffered_cost(message));
        c.local.push_back(std::move(message));
      }
      buffered_.erase(buffered);
    }
  }
  // Re-dispatch happens on the registering thread — for a sub-instance
  // created inside a handler that is the owning tree's executor, so
  // ordering within the tree is preserved.
  if (!c.dispatching) drain_local();
}

void Party::unregister_handler(const std::string& tag) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  handlers_.erase(tag);
}

void Party::retire_tag(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (const auto [it, fresh] = retired_.insert(prefix); fresh) {
    retired_order_.push_back(it);
    if (retired_order_.size() > kMaxRetired) {
      retired_.erase(retired_order_.front());
      retired_order_.pop_front();
    }
  }
  const auto in_subtree = [&prefix](const std::string& tag) {
    return tag.size() >= prefix.size() && tag.compare(0, prefix.size(), prefix) == 0 &&
           (tag.size() == prefix.size() || tag[prefix.size()] == '/');
  };
  for (auto it = buffered_.lower_bound(prefix);
       it != buffered_.end() && it->first.compare(0, prefix.size(), prefix) == 0;) {
    if (in_subtree(it->first)) {
      it = buffered_.erase(it);
    } else {
      ++it;
    }
  }
  // Any leftover charges under the subtree (buffered traffic, stragglers
  // an instance missed) go with it.
  budget_.release_instance(prefix);
  // WAL compaction: replaying traffic for a retired tag would only be
  // dropped again, so the entries are dead weight in every snapshot.
  std::erase_if(wal_, [&](const Message& message) { return in_subtree(message.tag); });
}

bool Party::is_retired_unlocked(std::string_view tag) const {
  if (retired_.empty()) return false;
  for (std::size_t pos = 0; pos <= tag.size(); ++pos) {
    if (pos == tag.size() || tag[pos] == '/') {
      if (retired_.contains(tag.substr(0, pos))) return true;
    }
  }
  return false;
}

bool Party::is_retired(std::string_view tag) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return is_retired_unlocked(tag);
}

void Party::register_checkpoint(const std::string& prefix, CheckpointSave save,
                                CheckpointLoad load) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  SINTRA_INVARIANT(!checkpoints_.contains(prefix),
                   "Party: duplicate checkpoint prefix " + prefix);
  checkpoints_.emplace(prefix, Checkpoint{std::move(save), std::move(load)});
}

void Party::unregister_checkpoint(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  checkpoints_.erase(prefix);
}

void Party::prune_wal(const std::string& tag,
                      const std::function<bool(const Message&)>& prunable) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  std::erase_if(wal_,
                [&](const Message& message) { return message.tag == tag && prunable(message); });
}

void Party::on_message(const Message& message) {
  // Persist before processing — a crash after dispatch must not lose the
  // message (at-least-once: a redelivery after restore is harmless, a
  // loss is not).  Under executors this still runs on the single pump
  // thread, so the WAL records the one true arrival order and replay —
  // always inline and single-threaded — is bit-exact however many
  // executors the original run used.
  if (wal_enabled_) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    wal_.push_back(message);
  }
  if (concurrent()) {
    executors_->post(executors_->executor_for(lane_group_, message.tag),
                     [this, message]() {
                       dispatch(message);
                       drain_local();
                     });
    return;
  }
  dispatch(message);
  drain_local();
}

Bytes Party::snapshot() const {
  // Snapshots are taken from a quiesced stack; the lock is released around
  // the save() callbacks because they run protocol code that may call back
  // into locking Party methods.
  std::vector<std::pair<std::string, CheckpointSave>> savers;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    savers.reserve(checkpoints_.size());
    for (const auto& [prefix, checkpoint] : checkpoints_) {
      savers.emplace_back(prefix, checkpoint.save);
    }
  }
  Writer w;
  w.u8(4);  // snapshot version (v4: checkpoints, retired tags, WAL)
  w.u32(static_cast<std::uint32_t>(savers.size()));
  for (const auto& [prefix, save] : savers) {
    w.str(prefix);
    w.bytes(save());
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  w.u32(static_cast<std::uint32_t>(retired_order_.size()));
  for (const auto& tag : retired_order_) w.str(*tag);
  w.vec(wal_, [](Writer& out, const Message& message) {
    out.u32(static_cast<std::uint32_t>(message.from));
    out.str(message.tag);
    out.bytes(message.payload);
  });
  return w.take();
}

void Party::restore(BytesView persisted) {
  Reader r(persisted);
  const auto version = r.u8();
  // A snapshot is input from disk, not an invariant of this process.
  SINTRA_REQUIRE(version == 4, "Party: unknown snapshot version");
  std::vector<std::pair<std::string, Bytes>> blobs;
  const auto checkpoint_count = r.u32();
  blobs.reserve(checkpoint_count);
  for (std::uint32_t i = 0; i < checkpoint_count; ++i) {
    std::string prefix = r.str();
    blobs.emplace_back(std::move(prefix), r.bytes());
  }
  const auto retired_count = r.u32();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (std::uint32_t i = 0; i < retired_count; ++i) {
      if (const auto [it, fresh] = retired_.insert(r.str()); fresh) retired_order_.push_back(it);
    }
  }
  std::vector<Message> replay = r.vec<Message>([this](Reader& in) {
    Message message;
    message.from = static_cast<int>(in.u32());
    message.to = id_;
    message.tag = in.str();
    message.payload = in.bytes();
    return message;
  });
  r.expect_done();
  // Load checkpoints, then replay the (compacted) log suffix through the
  // rebuilt handlers with logging off: the replayed messages are already
  // in the log we are about to reinstate.  A blob with no registered
  // loader belongs to an instance the rebuilt stack has not created yet
  // (e.g. a lazily built sub-instance) — such instances never compact
  // their WAL entries, so skipping the blob loses nothing.
  // Restore always runs inline on the calling thread, never through the
  // executor pool: replay is single-threaded and bit-exact by contract,
  // whatever executor count produced the WAL being replayed.
  const bool was_enabled = wal_enabled_;
  wal_enabled_ = false;
  // Reinstate the log BEFORE replaying it (dispatch appends nothing while
  // wal_enabled_ is off, so nothing doubles up).  Replayed handlers call
  // retire_tag/prune_wal exactly like their live incarnations did; with
  // the log installed first those compactions land on the real log instead
  // of being thrown away when the log was installed afterwards — which
  // used to resurrect retired instances' entries on the next snapshot.
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    wal_ = replay;
  }
  for (const auto& [prefix, blob] : blobs) {
    CheckpointLoad load;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      auto checkpoint = checkpoints_.find(prefix);
      if (checkpoint == checkpoints_.end()) continue;
      load = checkpoint->second.load;
    }
    Reader in(blob);
    load(in);
    in.expect_done();
    drain_local();
  }
  for (const Message& message : replay) {
    dispatch(message);
    drain_local();
  }
  wal_enabled_ = was_enabled;
}

void Party::dispatch(const Message& message) {
  Handler handler;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    auto it = handlers_.find(message.tag);
    if (it == handlers_.end()) {
      // Late traffic for a retired instance is dropped outright;
      // everything else is buffered under the resource budget until (if
      // ever) an instance registers for the tag.
      if (!is_retired_unlocked(message.tag)) buffer_unhandled(message);
      return;
    }
    // Copy the closure out so no lock is held while protocol code runs; a
    // concurrent unregister (always from another instance tree) cannot
    // invalidate it.
    handler = it->second;
  }
  DispatchCtx& c = ctx();
  const bool was_dispatching = c.dispatching;
  std::string previous_root = std::move(c.current_root);
  c.dispatching = true;
  c.current_root.assign(common::ExecutorPool::tag_root(message.tag));
  try {
    Reader reader(message.payload);
    handler(message.from, reader);
  } catch (const ProtocolError& error) {
    // Malformed or adversarial input: drop and continue.
    trace("party", "dropped message on " + message.tag + " from " +
                       std::to_string(message.from) + ": " + error.what());
  }
  c.dispatching = was_dispatching;
  c.current_root = std::move(previous_root);
}

void Party::buffer_unhandled(const Message& message) {
  auto it = buffered_.find(message.tag);
  if (it == buffered_.end() && buffered_.size() >= kMaxBufferedTags) {
    trace("party", "buffer tag-cap drop on " + message.tag);
    return;
  }
  if (it != buffered_.end() && it->second.size() >= kMaxBufferedPerTag) {
    trace("party", "buffer count-cap drop on " + message.tag);
    return;
  }
  if (!budget_.try_charge(message.from, message.tag, buffered_cost(message))) {
    trace("party", "buffer budget drop on " + message.tag + " from " +
                       std::to_string(message.from));
    return;
  }
  buffered_[message.tag].push_back(message);
}

void Party::drain_local() {
  DispatchCtx& c = ctx();
  while (!c.local.empty()) {
    Message message = std::move(c.local.front());
    c.local.pop_front();
    dispatch(message);
  }
}

void Party::trace(const std::string& component, std::string text) {
  if (TraceLog* log = network_.log()) {
    log->emit(TraceLevel::kInfo, id_, component, std::move(text));
  }
}

}  // namespace sintra::net
