// Simulation harness: wires a Deployment, a Scheduler, n hosted protocol
// stacks and optional corrupted parties / client endpoints into one
// runnable cluster.  Header-only convenience used by the tests, the
// benchmarks and the examples — not by the protocols themselves.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/corruption.hpp"
#include "net/fault.hpp"
#include "net/party.hpp"
#include "net/scheduler.hpp"

namespace sintra::protocols {

/// Scheduler wrapper recording every message it releases for delivery, so
/// a test can inspect the traffic that actually crossed the network.
class CapturingScheduler final : public net::Scheduler {
 public:
  CapturingScheduler(net::Scheduler& inner, std::vector<net::Message>& out)
      : inner_(inner), out_(out) {}

  std::optional<std::size_t> pick(const std::vector<net::Message>& pending,
                                  std::uint64_t now) override {
    auto choice = inner_.pick(pending, now);
    if (choice.has_value()) out_.push_back(pending[*choice]);
    return choice;
  }

 private:
  net::Scheduler& inner_;
  std::vector<net::Message>& out_;
};

/// A Process that hosts a Party running one protocol object of type P.
template <typename P>
class HostedParty final : public net::Process {
 public:
  template <typename Factory>
  HostedParty(net::Network& network, int id, adversary::Deployment deployment,
              std::uint64_t seed, Factory&& factory)
      : party_(network, id, std::move(deployment), seed),
        protocol_(std::forward<Factory>(factory)(party_)) {}

  void on_message(const net::Message& message) override { party_.on_message(message); }

  // Crash recovery: what a hosted party persists is its Party's WAL.
  [[nodiscard]] Bytes snapshot() const override { return party_.snapshot(); }
  void restore(BytesView persisted) override { party_.restore(persisted); }

  [[nodiscard]] net::Party& party() { return party_; }
  [[nodiscard]] P& protocol() { return *protocol_; }

 private:
  net::Party party_;
  std::unique_ptr<P> protocol_;
};

/// n servers running protocol P; parties in `corrupted` are crashed unless
/// a custom Process is supplied for them before start().
template <typename P>
class Cluster {
 public:
  using Factory = std::function<std::unique_ptr<P>(net::Party& party, int id)>;

  Cluster(adversary::Deployment deployment, net::Scheduler& scheduler, Factory factory,
          crypto::PartySet corrupted = 0, int extra_endpoints = 0, std::uint64_t seed = 1,
          TraceLog* log = nullptr)
      : deployment_(std::move(deployment)),
        simulator_(deployment_.n() + extra_endpoints, scheduler, log),
        hosts_(static_cast<std::size_t>(deployment_.n()), nullptr) {
    for (int id = 0; id < deployment_.n(); ++id) {
      if (crypto::contains(corrupted, id)) {
        simulator_.attach(id, std::make_unique<net::CrashProcess>());
        continue;
      }
      auto host = std::make_unique<HostedParty<P>>(
          simulator_, id, deployment_, seed * 7919 + static_cast<std::uint64_t>(id),
          [&](net::Party& party) { return factory(party, id); });
      hosts_[static_cast<std::size_t>(id)] = host.get();
      simulator_.attach(id, std::move(host));
    }
  }

  /// Replace a party's process (e.g. a scripted Byzantine attacker).
  /// Call before start(); the slot is then no longer an honest host.
  void attach_custom(int id, std::unique_ptr<net::Process> process) {
    hosts_[static_cast<std::size_t>(id)] = nullptr;
    simulator_.attach(id, std::move(process));
  }

  /// Attach a client endpoint (ids deployment.n() .. n+extra-1).
  void attach_client(int id, std::unique_ptr<net::Process> process) {
    simulator_.attach(id, std::move(process));
  }

  void start() { simulator_.start(); }

  [[nodiscard]] net::Simulator& simulator() { return simulator_; }
  [[nodiscard]] const adversary::Deployment& deployment() const { return deployment_; }
  [[nodiscard]] int n() const { return deployment_.n(); }

  /// The protocol at an honest party (nullptr if corrupted/custom).
  [[nodiscard]] P* protocol(int id) {
    auto* host = hosts_[static_cast<std::size_t>(id)];
    return host == nullptr ? nullptr : &host->protocol();
  }
  [[nodiscard]] net::Party* party(int id) {
    auto* host = hosts_[static_cast<std::size_t>(id)];
    return host == nullptr ? nullptr : &host->party();
  }

  /// Run until `done(protocol)` holds at every honest party.
  bool run_until_all(const std::function<bool(P&)>& done, std::uint64_t max_steps) {
    return simulator_.run_until(
        [&] {
          for (int id = 0; id < n(); ++id) {
            P* p = protocol(id);
            if (p != nullptr && !done(*p)) return false;
          }
          return true;
        },
        max_steps);
  }

  /// Apply `fn` to every honest protocol instance.
  void for_each(const std::function<void(int id, P&)>& fn) {
    for (int id = 0; id < n(); ++id) {
      if (P* p = protocol(id)) fn(id, *p);
    }
  }

 private:
  adversary::Deployment deployment_;
  net::Simulator simulator_;
  std::vector<HostedParty<P>*> hosts_;
};

/// Cluster variant for fault-injection experiments (see net/fault.hpp and
/// tests/chaos_test.cpp): every party runs with its write-ahead log
/// enabled, any party can be scheduled to crash and restart mid-run, and a
/// FaultInjector can duplicate/replay/drop the cluster's traffic.
///
/// Unlike Cluster, the factory here must *also start* the protocol (feed
/// the input, submit the payload, ...): a crash-restarted party rebuilds
/// its whole stack through the factory, and the application-level start
/// calls are part of what it must redo — which is why the protocols'
/// start() entry points tolerate same-input re-entry.
template <typename P>
class ChaosCluster {
 public:
  /// Build AND start party `id`'s protocol object on `party`.
  using Factory = std::function<std::unique_ptr<P>(net::Party& party, int id)>;

  ChaosCluster(adversary::Deployment deployment, net::Scheduler& scheduler, Factory factory,
               std::uint64_t seed = 1)
      : deployment_(std::move(deployment)),
        simulator_(deployment_.n(), scheduler),
        factory_(std::move(factory)),
        seed_(seed),
        hosts_(static_cast<std::size_t>(deployment_.n()), nullptr),
        restarting_(static_cast<std::size_t>(deployment_.n()), nullptr) {}

  /// Attach an unreliable-delivery policy (call before start()).
  void set_fault_policy(std::uint64_t seed, net::FaultPolicy policy) {
    injector_ = std::make_unique<net::FaultInjector>(seed, policy);
    simulator_.set_fault_injector(injector_.get());
  }

  /// Schedule party `id` to crash after `crash_after` deliveries and come
  /// back after `down_for` stashed messages (call before start()).  With
  /// `lossy`, downtime traffic is dropped instead of stashed: the rejoined
  /// party genuinely missed it and must be recovered by a watchdog.
  void set_restarting(int id, std::uint64_t crash_after, std::uint64_t down_for,
                      int max_restarts = 1, bool lossy = false) {
    restart_plans_[id] = Plan{crash_after, down_for, max_restarts, lossy};
  }

  /// Replace party `id` with a scripted process (e.g. a FlooderProcess);
  /// the slot is then Byzantine, not an honest host.  Call before start().
  void set_custom(int id, std::function<std::unique_ptr<net::Process>()> factory) {
    custom_[id] = std::move(factory);
  }

  /// Resource budget installed on every honest party at (re)build time, so
  /// it also applies to crash-restarted incarnations.  Call before start().
  void set_budget(net::BudgetConfig config) { budget_ = config; }

  void start() {
    for (int id = 0; id < deployment_.n(); ++id) {
      if (auto custom = custom_.find(id); custom != custom_.end()) {
        simulator_.attach(id, custom->second());
        continue;
      }
      auto build = [this, id]() -> std::unique_ptr<net::Process> {
        auto host = std::make_unique<HostedParty<P>>(
            simulator_, id, deployment_, seed_ * 7919 + static_cast<std::uint64_t>(id),
            [this, id](net::Party& party) {
              party.enable_wal();
              if (budget_.has_value()) party.set_budget(*budget_);
              return factory_(party, id);
            });
        hosts_[static_cast<std::size_t>(id)] = host.get();
        return host;
      };
      auto plan = restart_plans_.find(id);
      if (plan != restart_plans_.end()) {
        auto process = std::make_unique<net::RestartingProcess>(
            build, plan->second.crash_after, plan->second.down_for, plan->second.max_restarts);
        process->set_lossy_downtime(plan->second.lossy);
        restarting_[static_cast<std::size_t>(id)] = process.get();
        simulator_.attach(id, std::move(process));
      } else {
        simulator_.attach(id, build());
      }
    }
    simulator_.start();
  }

  [[nodiscard]] net::Simulator& simulator() { return simulator_; }
  [[nodiscard]] const adversary::Deployment& deployment() const { return deployment_; }
  [[nodiscard]] int n() const { return deployment_.n(); }
  [[nodiscard]] const net::FaultInjector* injector() const { return injector_.get(); }
  [[nodiscard]] net::RestartingProcess* restarting(int id) {
    return restarting_[static_cast<std::size_t>(id)];
  }

  /// The current protocol incarnation at `id` (nullptr while crashed).
  [[nodiscard]] P* protocol(int id) {
    auto* process = restarting_[static_cast<std::size_t>(id)];
    if (process != nullptr && process->down()) return nullptr;
    auto* host = hosts_[static_cast<std::size_t>(id)];
    return host == nullptr ? nullptr : &host->protocol();
  }

  /// The current Party incarnation at `id` (nullptr while crashed or for a
  /// custom slot) — budget counters live here.
  [[nodiscard]] net::Party* party(int id) {
    auto* process = restarting_[static_cast<std::size_t>(id)];
    if (process != nullptr && process->down()) return nullptr;
    auto* host = hosts_[static_cast<std::size_t>(id)];
    return host == nullptr ? nullptr : &host->party();
  }

  /// Run until `done(protocol)` holds at every currently-up party.  When
  /// the network quiesces with a party still down (not enough traffic
  /// arrived to trigger its scheduled restart), the restart is forced and
  /// the run continues — a crashed replica that never restarts is outside
  /// the crash-*recovery* model.
  bool run_until_all(const std::function<bool(P&)>& done, std::uint64_t max_steps) {
    const std::uint64_t deadline = simulator_.now() + max_steps;
    auto all_done = [&] {
      for (int id = 0; id < n(); ++id) {
        auto* process = restarting_[static_cast<std::size_t>(id)];
        if (process != nullptr && process->down()) return false;
        P* p = protocol(id);
        if (p != nullptr && !done(*p)) return false;
      }
      return true;
    };
    while (true) {
      if (simulator_.run_until(all_done, deadline - simulator_.now())) return true;
      if (simulator_.now() >= deadline) return false;
      bool kicked = false;
      for (auto* process : restarting_) {
        if (process != nullptr && process->down()) {
          process->force_restart();
          kicked = true;
        }
      }
      if (!kicked) return false;  // quiescent with everyone up: stuck
    }
  }

  /// Apply `fn` to every currently-up protocol instance.
  void for_each(const std::function<void(int id, P&)>& fn) {
    for (int id = 0; id < n(); ++id) {
      if (P* p = protocol(id)) fn(id, *p);
    }
  }

 private:
  struct Plan {
    std::uint64_t crash_after;
    std::uint64_t down_for;
    int max_restarts;
    bool lossy = false;
  };

  adversary::Deployment deployment_;
  net::Simulator simulator_;
  Factory factory_;
  std::uint64_t seed_;
  std::unique_ptr<net::FaultInjector> injector_;
  std::map<int, Plan> restart_plans_;
  std::map<int, std::function<std::unique_ptr<net::Process>()>> custom_;
  std::optional<net::BudgetConfig> budget_;
  std::vector<HostedParty<P>*> hosts_;
  std::vector<net::RestartingProcess*> restarting_;
};

}  // namespace sintra::protocols
