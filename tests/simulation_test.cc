// Transport/topology-level behavior: routing, network accounting, aggregate
// statistics, the execution-context stack, and configurations that cannot
// work failing loudly.

#include <gtest/gtest.h>

#include "tests/test_components.h"
#include "wal/shard_router.h"

namespace phoenix {
namespace {

using phoenix::testing::RegisterTestComponents;

TEST(SimulationTest, AddAndGetMachines) {
  Simulation sim;
  Machine& alpha = sim.AddMachine("alpha");
  EXPECT_EQ(sim.GetMachine("alpha"), &alpha);
  EXPECT_EQ(sim.GetMachine("nope"), nullptr);
}

TEST(SimulationTest, ResolveProcess) {
  Simulation sim;
  Machine& alpha = sim.AddMachine("alpha");
  Process& proc = alpha.CreateProcess();
  EXPECT_EQ(sim.ResolveProcess(MakeComponentUri("alpha", proc.pid(), "x")),
            &proc);
  EXPECT_EQ(sim.ResolveProcess(MakeComponentUri("alpha", 99, "x")), nullptr);
  EXPECT_EQ(sim.ResolveProcess(MakeComponentUri("ghost", 1, "x")), nullptr);
  EXPECT_EQ(sim.ResolveProcess("not a uri"), nullptr);
}

TEST(SimulationTest, RouteToUnknownTargetFails) {
  Simulation sim;
  sim.AddMachine("alpha");
  CallMessage msg;
  msg.target_uri = "phx://nowhere/1/c";
  msg.method = "M";
  EXPECT_TRUE(sim.RouteCall("alpha", msg).status().IsNotFound());
}

TEST(SimulationTest, RouteToUnknownComponentFails) {
  Simulation sim;
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Process& proc = alpha.CreateProcess();
  CallMessage msg;
  msg.target_uri = MakeComponentUri("alpha", proc.pid(), "missing");
  msg.method = "M";
  EXPECT_TRUE(sim.RouteCall("alpha", msg).status().IsNotFound());
}

TEST(SimulationTest, CrossMachineCallsCountNetworkMessages) {
  Simulation sim;
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  sim.AddMachine("beta");
  Process& proc = alpha.CreateProcess();
  ExternalClient local_client(&sim, "alpha");
  ExternalClient remote_client(&sim, "beta");
  auto uri = local_client.CreateComponent(proc, "Counter", "c",
                                          ComponentKind::kPersistent, {});

  uint64_t messages = sim.network().total_messages();
  ASSERT_TRUE(local_client.Call(*uri, "Add", MakeArgs(1)).ok());
  EXPECT_EQ(sim.network().total_messages(), messages);  // same machine

  ASSERT_TRUE(remote_client.Call(*uri, "Add", MakeArgs(1)).ok());
  EXPECT_EQ(sim.network().total_messages(), messages + 2);  // call + reply
}

TEST(SimulationTest, RemoteCallsCostMoreThanLocal) {
  Simulation sim;
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  sim.AddMachine("beta");
  Process& proc = alpha.CreateProcess();
  ExternalClient admin(&sim, "alpha");
  auto fn = admin.CreateComponent(proc, "Squarer", "sq",
                                  ComponentKind::kFunctional, {});

  ExternalClient local_client(&sim, "alpha");
  ExternalClient remote_client(&sim, "beta");
  double t0 = sim.clock().NowMs();
  ASSERT_TRUE(local_client.Call(*fn, "Square", MakeArgs(2)).ok());
  double local_cost = sim.clock().NowMs() - t0;
  t0 = sim.clock().NowMs();
  ASSERT_TRUE(remote_client.Call(*fn, "Square", MakeArgs(2)).ok());
  double remote_cost = sim.clock().NowMs() - t0;
  EXPECT_GT(remote_cost, local_cost);
}

TEST(SimulationTest, ContextStackTracksNesting) {
  Simulation sim;
  EXPECT_EQ(sim.current_context(), nullptr);
  // Pushing/popping is exercised implicitly by every dispatch; check the
  // empty-stack invariant after a full workload.
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Process& proc = alpha.CreateProcess();
  ExternalClient client(&sim, "alpha");
  auto counter = client.CreateComponent(proc, "Counter", "c",
                                        ComponentKind::kPersistent, {});
  auto chain = client.CreateComponent(proc, "Chain", "m",
                                      ComponentKind::kPersistent,
                                      MakeArgs(*counter));
  ASSERT_TRUE(client.Call(*chain, "Bump", MakeArgs(1)).ok());
  EXPECT_EQ(sim.current_context(), nullptr);
}

TEST(SimulationTest, TotalStatsAggregateAcrossProcesses) {
  Simulation sim;
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Process& p1 = alpha.CreateProcess();
  Process& p2 = alpha.CreateProcess();
  ExternalClient client(&sim, "alpha");
  auto c1 = client.CreateComponent(p1, "Counter", "c1",
                                   ComponentKind::kPersistent, {});
  auto c2 = client.CreateComponent(p2, "Counter", "c2",
                                   ComponentKind::kPersistent, {});
  ASSERT_TRUE(client.Call(*c1, "Add", MakeArgs(1)).ok());
  ASSERT_TRUE(client.Call(*c2, "Add", MakeArgs(1)).ok());
  EXPECT_EQ(sim.TotalForces(),
            p1.log().num_forces() + p2.log().num_forces());
  EXPECT_EQ(sim.TotalAppends(),
            p1.log().num_appends() + p2.log().num_appends());
}

TEST(SimulationTest, DuplicateMachineNameAborts) {
  Simulation sim;
  sim.AddMachine("alpha");
  EXPECT_DEATH(sim.AddMachine("alpha"), "PHX_CHECK");
}

// Each invalid option aborts the constructor with a check that names it,
// instead of being clamped into some other configuration.
void ConstructWith(void (*set)(RuntimeOptions&)) {
  RuntimeOptions options;
  set(options);
  Simulation sim(options);
}

TEST(SimulationTest, InvalidOptionsAbortNamingTheField) {
  EXPECT_DEATH(ConstructWith([](RuntimeOptions& o) { o.wal_shards = 0; }),
               "wal_shards");
  EXPECT_DEATH(ConstructWith([](RuntimeOptions& o) {
                 o.wal_shards = kMaxWalShards + 1;
               }),
               "wal_shards");
  EXPECT_DEATH(ConstructWith([](RuntimeOptions& o) {
                 o.parallel_replay_sessions = 0;
               }),
               "parallel_replay_sessions");
  EXPECT_DEATH(ConstructWith([](RuntimeOptions& o) {
                 o.async_checkpoint_interval = 0;
               }),
               "async_checkpoint_interval");
  EXPECT_DEATH(ConstructWith([](RuntimeOptions& o) {
                 o.recovery_supervisor_attempts_per_rung = 0;
               }),
               "recovery_supervisor_attempts_per_rung");
  // The bounds themselves are valid.
  ConstructWith([](RuntimeOptions& o) { o.wal_shards = kMaxWalShards; });
}

TEST(SimulationTest, BusyContextRejectsReentrantCall) {
  // A cross-context call cycle back into a busy (single-threaded) context
  // is a programming error, reported — not deadlocked (PWD requirement).
  Simulation sim;
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Process& proc = alpha.CreateProcess();
  ExternalClient client(&sim, "alpha");
  auto a = client.CreateComponent(proc, "Chain", "a",
                                  ComponentKind::kPersistent, {});
  auto b = client.CreateComponent(proc, "Chain", "b",
                                  ComponentKind::kPersistent,
                                  MakeArgs(*a, "Bump"));
  ASSERT_TRUE(b.ok());
  // Close the cycle: a -> b -> a.
  ASSERT_TRUE(
      client.Call(*a, "SetDownstream", MakeArgs(*b, "Bump")).ok());

  auto r = client.Call(*a, "Bump", MakeArgs(1));
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sim.current_context(), nullptr);  // stack fully unwound
}

}  // namespace
}  // namespace phoenix
