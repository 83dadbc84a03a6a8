// Lossy-network injection: dropped call legs, dropped reply legs and
// duplicated deliveries must all be masked by retry + duplicate elimination
// for persistent callers, the targeted drop triggers must fire on the Nth
// message, the retry budget must bound a caller facing a dead link, and a
// faulted run must be reproducible from its seed.

#include <gtest/gtest.h>

#include "tests/test_components.h"

namespace phoenix {
namespace {

using phoenix::testing::RegisterTestComponents;

class NetworkFaultsTest : public ::testing::Test {
 protected:
  // Two machines: a persistent Chain driver on ma forwards Bump amounts to
  // a persistent Counter on mb, so the ma<->mb link carries
  // persistent-to-persistent traffic whose masking we can assert exactly.
  void SetUpSim(RuntimeOptions opts = {}, uint64_t seed = 1) {
    SimulationParams params;
    params.seed = seed;
    sim_ = std::make_unique<Simulation>(opts, params);
    RegisterTestComponents(sim_->factories());
    ma_ = &sim_->AddMachine("ma");
    mb_ = &sim_->AddMachine("mb");
    driver_proc_ = &ma_->CreateProcess();
    counter_proc_ = &mb_->CreateProcess();
    admin_ = std::make_unique<ExternalClient>(sim_.get(), "ma");
    counter_ = *admin_->CreateComponent(*counter_proc_, "Counter", "c",
                                        ComponentKind::kPersistent, {});
    driver_ = *admin_->CreateComponent(*driver_proc_, "Chain", "driver",
                                       ComponentKind::kPersistent,
                                       MakeArgs(counter_));
  }

  uint64_t Dedupes() {
    return sim_->metrics().CounterTotal("phoenix.intercept.dedupe_hits");
  }

  std::unique_ptr<Simulation> sim_;
  Machine* ma_ = nullptr;
  Machine* mb_ = nullptr;
  Process* driver_proc_ = nullptr;
  Process* counter_proc_ = nullptr;
  std::unique_ptr<ExternalClient> admin_;
  std::string counter_;
  std::string driver_;
};

TEST_F(NetworkFaultsTest, DroppedCallLegIsRetriedExactlyOnce) {
  SetUpSim();
  sim_->network().fault_plan().AddDropTrigger("ma", "mb", "Add",
                                              NetLeg::kCall);
  uint64_t dedupes_before = Dedupes();
  ASSERT_TRUE(admin_->Call(driver_, "Bump", MakeArgs(5)).ok());
  EXPECT_EQ(admin_->Call(counter_, "Get", {})->AsInt(), 5);
  EXPECT_EQ(sim_->network().messages_dropped(), 1u);
  // The call never reached the server, so the retry is a first delivery.
  EXPECT_EQ(Dedupes(), dedupes_before);
  EXPECT_GE(sim_->metrics().CounterTotal("phoenix.intercept.retries"), 1u);
}

TEST_F(NetworkFaultsTest, DroppedReplyLegIsMaskedByDuplicateElimination) {
  SetUpSim();
  sim_->network().fault_plan().AddDropTrigger("mb", "ma", "Add",
                                              NetLeg::kReply);
  uint64_t dedupes_before = Dedupes();
  ASSERT_TRUE(admin_->Call(driver_, "Bump", MakeArgs(4)).ok());
  // The server executed before the reply was lost; the retry carries the
  // same call id and must hit the last-call table, not re-execute.
  EXPECT_EQ(admin_->Call(counter_, "Get", {})->AsInt(), 4);
  EXPECT_EQ(sim_->network().messages_dropped(), 1u);
  EXPECT_GE(Dedupes(), dedupes_before + 1);
}

TEST_F(NetworkFaultsTest, DuplicatedCallIsEliminated) {
  SetUpSim();
  LinkFaults faults;
  faults.dup_p = 1.0;  // every ma->mb call delivered twice
  sim_->network().fault_plan().SetLinkFaults("ma", "mb", faults);
  uint64_t dedupes_before = Dedupes();
  ASSERT_TRUE(admin_->Call(driver_, "Bump", MakeArgs(3)).ok());
  ASSERT_TRUE(admin_->Call(driver_, "Bump", MakeArgs(2)).ok());
  EXPECT_EQ(admin_->Call(counter_, "Get", {})->AsInt(), 5);
  EXPECT_GE(sim_->network().messages_duplicated(), 2u);
  EXPECT_GE(Dedupes(), dedupes_before + 2);
}

TEST_F(NetworkFaultsTest, DropTriggerFiresOnNthMessageOnly) {
  SetUpSim();
  sim_->network().fault_plan().AddDropTrigger("ma", "mb", "Add",
                                              NetLeg::kCall, /*nth=*/2);
  ASSERT_TRUE(admin_->Call(driver_, "Bump", MakeArgs(1)).ok());  // passes
  EXPECT_EQ(sim_->network().messages_dropped(), 0u);
  ASSERT_TRUE(admin_->Call(driver_, "Bump", MakeArgs(1)).ok());  // dropped
  EXPECT_EQ(sim_->network().messages_dropped(), 1u);
  ASSERT_TRUE(admin_->Call(driver_, "Bump", MakeArgs(1)).ok());  // passes
  EXPECT_EQ(sim_->network().messages_dropped(), 1u);
  EXPECT_EQ(admin_->Call(counter_, "Get", {})->AsInt(), 3);
}

TEST_F(NetworkFaultsTest, RetryBudgetBoundsCallerOnDeadLink) {
  RuntimeOptions opts;
  opts.call_retry.budget_ms = 100.0;
  SetUpSim(opts);
  LinkFaults dead;
  dead.drop_p = 1.0;
  sim_->network().fault_plan().SetLinkFaults("ma", "mb", dead);
  double before = sim_->clock().NowMs();
  auto r = admin_->Call(counter_, "Add", MakeArgs(1));
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  // The capped-exponential schedule spends at most the per-call budget.
  EXPECT_LE(sim_->clock().NowMs() - before, 500.0);
}

TEST_F(NetworkFaultsTest, FaultFreeLinksConsumeNoFaultRandomness) {
  // Faults on an unrelated link must not perturb traffic elsewhere: a run
  // with faults pinned to mb->mc matches a fault-free run byte for byte.
  auto run = [](bool with_faults) {
    SimulationParams params;
    params.seed = 9;
    Simulation sim({}, params);
    RegisterTestComponents(sim.factories());
    Machine& ma = sim.AddMachine("ma");
    sim.AddMachine("mb");
    Process& proc = ma.CreateProcess();
    if (with_faults) {
      LinkFaults faults;
      faults.drop_p = 0.9;
      faults.delay_jitter_ms = 3.0;
      sim.network().fault_plan().SetLinkFaults("mb", "mc", faults);
    }
    ExternalClient client(&sim, "ma");
    auto uri = client.CreateComponent(proc, "Counter", "c",
                                      ComponentKind::kPersistent, {});
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
    }
    return sim.clock().NowMs();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST_F(NetworkFaultsTest, SameSeedSameFaultedRun) {
  auto run = [](uint64_t seed) {
    SimulationParams params;
    params.seed = seed;
    Simulation sim({}, params);
    RegisterTestComponents(sim.factories());
    Machine& ma = sim.AddMachine("ma");
    Machine& mb = sim.AddMachine("mb");
    Process& driver_proc = ma.CreateProcess();
    Process& counter_proc = mb.CreateProcess();
    ExternalClient admin(&sim, "ma");
    auto counter = admin.CreateComponent(counter_proc, "Counter", "c",
                                         ComponentKind::kPersistent, {});
    auto driver = admin.CreateComponent(driver_proc, "Chain", "driver",
                                        ComponentKind::kPersistent,
                                        MakeArgs(*counter));
    LinkFaults faults;
    faults.drop_p = 0.3;
    faults.dup_p = 0.2;
    faults.delay_jitter_ms = 1.5;
    sim.network().fault_plan().SetLinkFaults("ma", "mb", faults);
    sim.network().fault_plan().SetLinkFaults("mb", "ma", faults);
    int64_t total = 0;
    for (int i = 0; i < 6; ++i) {
      auto r = admin.Call(*driver, "Bump", MakeArgs(i + 1));
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      total += i + 1;
    }
    EXPECT_EQ(admin.Call(*counter, "Get", {})->AsInt(), total);
    return std::tuple(sim.clock().NowMs(), sim.network().messages_dropped(),
                      sim.network().messages_duplicated(),
                      sim.network().messages_delayed());
  };
  EXPECT_EQ(run(77), run(77));
  EXPECT_NE(run(77), run(78));  // and the seed actually matters
}

}  // namespace
}  // namespace phoenix
