// The four workloads of the end-to-end benchmark. Every driver is closed
// loop: it issues its next call only after the previous reply. Each keeps a
// model of what the system acknowledged, which the oracle compares with
// the system after every driver-initiated recovery and at the end.

#include <array>
#include <cstdio>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bookstore/setup.h"
#include "common/strings.h"
#include "e2e.h"

namespace phoenix::e2e {
namespace {

// Persistent counter: Add mutates, Get is read-only.
class CounterServer : public Component {
 public:
  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("Add", [this](const ArgList& a) -> Result<Value> {
      count_ += a[0].AsInt();
      return Value(count_);
    });
    methods.Register(
        "Get",
        [this](const ArgList&) -> Result<Value> { return Value(count_); },
        MethodTraits{.read_only = true});
  }
  void RegisterFields(FieldRegistry& fields) override {
    fields.RegisterInt("count", &count_);
  }

 private:
  int64_t count_ = 0;
};

// RunBatch(n) calls Add(1) on its server n times from inside one method
// execution. Ctor args: [server_uri].
class BatchCaller : public Component {
 public:
  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("RunBatch", [this](const ArgList& a) -> Result<Value> {
      int64_t n = a[0].AsInt();
      for (int64_t i = 0; i < n; ++i) {
        PHX_RETURN_IF_ERROR(
            CallRef(server_, "Add", MakeArgs(int64_t{1})).status());
      }
      return Value(n);
    });
  }
  void RegisterFields(FieldRegistry& fields) override {
    fields.RegisterComponentRef("server", &server_);
  }
  Status Initialize(const ArgList& args) override {
    server_.uri = args[0].AsString();
    return Status::OK();
  }

 private:
  ComponentRefField server_;
};

// Workloads built from BatchCaller -> CounterServer pairs. The model is the
// acknowledged Add total of each server. Batch sizes are drawn uniformly
// from an odd number of sizes, so the median call falls inside the middle
// size's latency cluster rather than on the edge between two, where it
// would flip from seed to seed.
class CounterWorkload : public Workload {
 public:
  using Workload::Workload;

 protected:
  struct Pair {
    std::string caller;
    std::string server;
    int64_t acked = 0;
  };

  void Deploy(Process& caller_proc, Process& server_proc, int pairs,
              const std::string& driver_machine) {
    sim_->factories().Register<CounterServer>("CounterServer");
    sim_->factories().Register<BatchCaller>("BatchCaller");
    ExternalClient admin(sim_.get(), server_proc.machine_name());
    for (int i = 0; i < pairs; ++i) {
      Pair pair;
      pair.server = admin
                        .CreateComponent(server_proc, "CounterServer",
                                         StrCat("server", i),
                                         ComponentKind::kPersistent, {})
                        .value();
      pair.caller = admin
                        .CreateComponent(caller_proc, "BatchCaller",
                                         StrCat("caller", i),
                                         ComponentKind::kPersistent,
                                         MakeArgs(pair.server))
                        .value();
      pairs_.push_back(std::move(pair));
    }
    driver_ = std::make_unique<ExternalClient>(sim_.get(), driver_machine);
    // Co-located with the servers, so oracle reads never cross a faulty
    // link.
    checker_ = std::make_unique<ExternalClient>(sim_.get(),
                                                server_proc.machine_name());
  }

  // One driver call: RunBatch(n) through pair `i`'s caller.
  void Batch(size_t i, int64_t n, uint32_t host_parent) {
    ++record_.attempted;
    double t0 = sim_->clock().NowMs();
    Result<Value> reply = [&] {
      HostTracer::Scope span(host_, "ExternalClient::Call", host_parent);
      return driver_->Call(pairs_[i].caller, "RunBatch", MakeArgs(n));
    }();
    if (!reply.ok() || reply->AsInt() != n) {
      ++record_.failed;
      std::fprintf(stderr, "RunBatch(%lld) on %s failed: %s\n",
                   static_cast<long long>(n), pairs_[i].caller.c_str(),
                   reply.ok() ? "short reply"
                              : reply.status().ToString().c_str());
      return;
    }
    pairs_[i].acked += n;
    record_.call_ms.push_back(sim_->clock().NowMs() - t0);
    SampleRetained();
  }

  void Verify() override {
    for (const Pair& pair : pairs_) {
      Result<Value> got = checker_->Call(pair.server, "Get", {});
      if (!got.ok() || got->AsInt() != pair.acked) {
        ++record_.mismatches;
        std::fprintf(stderr, "%s: read %s, acknowledged %lld\n",
                     pair.server.c_str(),
                     got.ok() ? std::to_string(got->AsInt()).c_str()
                              : got.status().ToString().c_str(),
                     static_cast<long long>(pair.acked));
      }
    }
  }

  std::vector<Pair> pairs_;
  std::unique_ptr<ExternalClient> driver_;
  std::unique_ptr<ExternalClient> checker_;
};

// The paper's own application: one buyer on machine "client" runs §5.5
// sessions against the specialized Figure 10 deployment on "server".
class BookstoreWorkload : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    RuntimeOptions options =
        bookstore::OptionsForLevel(bookstore::OptLevel::kSpecialized);
    options.save_context_state_every = 400;
    options.process_checkpoint_every = 400;
    options.auto_truncate_log = true;
    MakeSim(options);
    bookstore::RegisterBookstoreComponents(sim_->factories());
    sim_->AddMachine("client");
    deployment_ = bookstore::Deploy(*sim_, sim_->AddMachine("server"),
                                    kStores, bookstore::OptLevel::kSpecialized)
                      .value();
    processes_ = {deployment_.server_process};
    buyer_ = std::make_unique<ExternalClient>(sim_.get(), "client");
    RunOps(kWarmupCalls, 0);
  }

  void RunOps(uint64_t n, uint32_t host_parent) override {
    static const std::array<const char*, 5> kRegions = {"WA", "OR", "CA",
                                                        "NY", "TX"};
    for (uint64_t i = 0; i < n; ++i) {
      std::string buyer = StrCat("buyer", rng_.Uniform(kBuyers));
      DriverSession(buyer, kRegions[rng_.Uniform(kRegions.size())],
                    host_parent);
    }
  }

  Process& RestartTarget() override { return *deployment_.server_process; }

 protected:
  // A probe session after a restart: baskets cleared before the crash must
  // still be empty.
  void Verify() override {
    Result<bookstore::SessionResult> result = Session("probe", "WA", 0);
    if (!result.ok()) {
      ++record_.mismatches;
      std::fprintf(stderr, "probe session failed: %s\n",
                   result.status().ToString().c_str());
      return;
    }
    CheckBasket("probe", *result);
  }

 private:
  static constexpr int kStores = 2;
  static constexpr uint64_t kBuyers = 64;
  // Enough sessions to create every buyer's basket.
  static constexpr uint64_t kWarmupCalls = 500;

  Result<bookstore::SessionResult> Session(const std::string& buyer,
                                           const std::string& region,
                                           uint32_t host_parent) {
    HostTracer::Scope span(host_, "RunBuyerSession", host_parent);
    return bookstore::RunBuyerSession(*sim_, deployment_, *buyer_, buyer,
                                      region);
  }

  // One driver call: a whole buyer session.
  void DriverSession(const std::string& buyer, const std::string& region,
                     uint32_t host_parent) {
    ++record_.attempted;
    double t0 = sim_->clock().NowMs();
    Result<bookstore::SessionResult> result =
        Session(buyer, region, host_parent);
    if (!result.ok()) {
      ++record_.failed;
      std::fprintf(stderr, "session %s failed: %s\n", buyer.c_str(),
                   result.status().ToString().c_str());
      return;
    }
    CheckBasket(buyer, *result);
    record_.call_ms.push_back(sim_->clock().NowMs() - t0);
    SampleRetained();
  }

  // Every session starts from an empty basket, so it must add one book per
  // store and remove them all.
  void CheckBasket(const std::string& buyer,
                   const bookstore::SessionResult& result) {
    if (result.items_in_basket == kStores &&
        result.items_removed == result.items_in_basket) {
      return;
    }
    ++record_.mismatches;
    std::fprintf(stderr, "session %s: %lld in basket, %lld removed\n",
                 buyer.c_str(), static_cast<long long>(result.items_in_basket),
                 static_cast<long long>(result.items_removed));
  }

  bookstore::Deployment deployment_;
  std::unique_ptr<ExternalClient> buyer_;
};

// Four overlapping sessions (baton threads, one runnable at a time), each
// driving its own pair mb -> ma with RunBatch(8..24): group commit parks and
// coalesces durability waits, two WAL shards force independently, and a
// background session checkpoints. Varying the batch size keeps the
// sessions from locking into one seed-specific phase against the disk's
// rotation.
class Sessions4Workload : public CounterWorkload {
 public:
  using CounterWorkload::CounterWorkload;

  void Setup() override {
    RuntimeOptions options;
    options.group_commit = true;
    options.wal_shards = 2;
    options.async_checkpoint = true;
    options.auto_truncate_log = true;
    MakeSim(options);
    Process& servers = sim_->AddMachine("ma").CreateProcess();
    Process& callers = sim_->AddMachine("mb").CreateProcess();
    server_proc_ = &servers;
    processes_ = {&servers, &callers};
    Deploy(callers, servers, kSessions, "mb");
    RunOps(kWarmupCalls, 0);
  }

  void RunOps(uint64_t n, uint32_t host_parent) override {
    std::vector<std::function<void()>> bodies;
    for (uint64_t s = 0; s < kSessions; ++s) {
      uint64_t share = n / kSessions + (s < n % kSessions ? 1 : 0);
      bodies.push_back([this, s, share, host_parent] {
        for (uint64_t k = 0; k < share; ++k) {
          Batch(s, rng_.UniformRange(8, 24), host_parent);
        }
      });
    }
    HostTracer::Scope span(host_, "RunSessions", host_parent);
    sim_->RunSessions(std::move(bodies));
  }

  Process& RestartTarget() override { return *server_proc_; }

 private:
  static constexpr uint64_t kSessions = 4;
  static constexpr uint64_t kWarmupCalls = 80;
  Process* server_proc_ = nullptr;
};

// Recovery-dominated: one process hosts 8 caller/server pairs (17 contexts
// with the activator). Every 40 driver calls the process is killed and
// restarted with 4-session parallel replay. Pair i is chosen with weight
// 1/(i+1), so hot pairs save state often and cold ones rarely.
class CrashRecoverWorkload : public CounterWorkload {
 public:
  using CounterWorkload::CounterWorkload;

  void Setup() override {
    RuntimeOptions options;
    options.parallel_replay = true;
    options.parallel_replay_sessions = 4;
    options.save_context_state_every = 64;
    options.process_checkpoint_every = 256;
    options.auto_truncate_log = true;
    MakeSim(options);
    proc_ = &sim_->AddMachine("ma").CreateProcess();
    processes_ = {proc_};
    Deploy(*proc_, *proc_, kPairs, "ma");
    for (int i = 0; i < kPairs; ++i) weight_total_ += 1.0 / (i + 1);
    RunOps(kWarmupCalls, 0);
  }

  void RunOps(uint64_t n, uint32_t host_parent) override {
    for (uint64_t i = 0; i < n; ++i) {
      Batch(PickPair(), rng_.UniformRange(1, 7), host_parent);
      if (++calls_ % kCallsPerCycle == 0) Restart(*proc_, host_parent);
    }
  }

  Process& RestartTarget() override { return *proc_; }

 private:
  static constexpr int kPairs = 8;
  static constexpr uint64_t kCallsPerCycle = 40;
  // Two crash cycles.
  static constexpr uint64_t kWarmupCalls = 2 * kCallsPerCycle;

  size_t PickPair() {
    double x = rng_.NextDouble() * weight_total_;
    for (int i = 0; i < kPairs; ++i) {
      x -= 1.0 / (i + 1);
      if (x < 0) return i;
    }
    return kPairs - 1;
  }

  Process* proc_ = nullptr;
  double weight_total_ = 0;
  uint64_t calls_ = 0;
};

// Faults everywhere but storage: 1% drops and 1% duplicates each way on the
// mb <-> ma link, and a crash of the ma process scheduled every 30 driver
// calls at one of six failure points drawn from the seed. Callers retry
// with the same call id, the server deduplicates, and the recovery service
// restarts it from its two-shard log with sequential replay. State saves and
// checkpoints come due between two crashes: the cadence counters restart
// with every recovery, and a longer cadence leaves the log head pinned on
// some seeds, so recovery cost grows with the run. Torn tails stay off.
// Both are known issues in the README.
class FaultsWorkload : public CounterWorkload {
 public:
  using CounterWorkload::CounterWorkload;

  void Setup() override {
    RuntimeOptions options;
    options.wal_shards = 2;
    options.save_context_state_every = 16;
    options.process_checkpoint_every = 64;
    options.auto_truncate_log = true;
    MakeSim(options);
    server_proc_ = &sim_->AddMachine("ma").CreateProcess();
    Process& callers = sim_->AddMachine("mb").CreateProcess();
    processes_ = {server_proc_, &callers};
    Deploy(callers, *server_proc_, kPairs, "mb");
    RunOps(kWarmupCalls, 0);
    // Faults start with the timed phase, so set-up costs the same on every
    // seed.
    LinkFaults faults{.drop_p = 0.01, .dup_p = 0.01};
    sim_->network().fault_plan().SetLinkFaults("mb", "ma", faults);
    sim_->network().fault_plan().SetLinkFaults("ma", "mb", faults);
    armed_ = true;
  }

  void RunOps(uint64_t n, uint32_t host_parent) override {
    static const std::array<FailurePoint, 6> kPoints = {
        FailurePoint::kBeforeIncomingLogged, FailurePoint::kAfterIncomingLogged,
        FailurePoint::kBeforeReplySend,      FailurePoint::kAfterReplySend,
        FailurePoint::kDuringStateSave,      FailurePoint::kDuringCheckpoint};
    for (uint64_t i = 0; i < n; ++i) {
      if (armed_ && ++calls_ % 30 == 0) {
        sim_->injector().AddTrigger("ma", server_proc_->pid(),
                                    kPoints[rng_.Uniform(kPoints.size())]);
      }
      uint64_t crashes = server_proc_->crash_count();
      Batch(rng_.Uniform(kPairs), rng_.UniformRange(1, 7), host_parent);
      if (server_proc_->crash_count() != crashes) VerifyUntimed();
    }
  }

  Process& RestartTarget() override { return *server_proc_; }

 private:
  static constexpr int kPairs = 4;
  static constexpr uint64_t kWarmupCalls = 900;
  Process* server_proc_ = nullptr;
  bool armed_ = false;
  uint64_t calls_ = 0;
};

template <typename T>
std::unique_ptr<Workload> Make(WorkloadParams params, HostTracer& host) {
  return std::make_unique<T>(params, host);
}

}  // namespace

double HostSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void Workload::MakeSim(RuntimeOptions options) {
  SimulationParams params;
  params.seed = params_.seed;
  params.trace_enabled = params_.trace;
  sim_ = std::make_unique<Simulation>(options, params);
}

void Workload::Restart(Process& process, uint32_t host_parent) {
  record_.retained_bytes_at_crash.push_back(RetainedBytes(*sim_, process));
  double t0 = sim_->clock().NowMs();
  double h0 = HostSeconds();
  process.Kill();
  Status status = [&] {
    HostTracer::Scope span(host_, "EnsureProcessAlive", host_parent);
    return process.machine()->recovery_service().EnsureProcessAlive(
        process.pid());
  }();
  double host_ms = (HostSeconds() - h0) * 1000.0;
  double t1 = sim_->clock().NowMs();
  if (!status.ok()) {
    ++record_.mismatches;
    std::fprintf(stderr, "restart failed: %s\n", status.ToString().c_str());
    return;
  }
  record_.recovery_ms.push_back(t1 - t0);
  record_.host_recovery_ms.push_back(host_ms);
  record_.restart_windows_ms.emplace_back(t0, t1);
  VerifyUntimed();
}

void Workload::VerifyUntimed() {
  double t0 = sim_->clock().NowMs();
  double h0 = HostSeconds();
  Verify();
  record_.oracle_sim_ms += sim_->clock().NowMs() - t0;
  record_.oracle_host_s += HostSeconds() - h0;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  // Calls per second of --seconds: an untraced run takes about --seconds
  // of wall time on a 4-core x86 container.
  static const WorkloadSpec kSpecs[] = {
      {"bookstore", 5000, Make<BookstoreWorkload>},
      {"sessions4", 800, Make<Sessions4Workload>},
      {"crash_recover", 200, Make<CrashRecoverWorkload>},
      {"faults", 9000, Make<FaultsWorkload>},
  };
  for (const WorkloadSpec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

uint64_t RetainedBytes(Simulation& sim, Process& process) {
  uint64_t bytes = 0;
  for (uint32_t s = 0; s < process.log().shard_count(); ++s) {
    std::string name = process.log().shard_log_name(s);
    bytes += sim.storage().LogSize(name) - sim.storage().LogBase(name);
  }
  return bytes;
}

uint64_t Workload::AppendedLogBytes() {
  uint64_t bytes = 0;
  for (Process* process : processes_) {
    for (uint32_t s = 0; s < process->log().shard_count(); ++s) {
      bytes += sim_->storage().LogSize(process->log().shard_log_name(s));
    }
  }
  return bytes;
}

void Workload::SampleRetained() {
  for (Process* process : processes_) {
    record_.retained_bytes_sum +=
        static_cast<double>(RetainedBytes(*sim_, *process));
  }
  ++record_.retained_samples;
}

}  // namespace phoenix::e2e
