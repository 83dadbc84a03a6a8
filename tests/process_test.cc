// Process-level behavior: the activator, component tables, lifecycle, and
// call-delivery errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "common/strings.h"
#include "tests/test_components.h"

namespace phoenix {
namespace {

using phoenix::testing::RegisterTestComponents;

class ProcessTest : public ::testing::Test {
 protected:
  ProcessTest() {
    sim_ = std::make_unique<Simulation>();
    RegisterTestComponents(sim_->factories());
    alpha_ = &sim_->AddMachine("alpha");
    proc_ = &alpha_->CreateProcess();
  }

  std::unique_ptr<Simulation> sim_;
  Machine* alpha_ = nullptr;
  Process* proc_ = nullptr;
};

TEST_F(ProcessTest, IdentityAndNames) {
  EXPECT_EQ(proc_->pid(), 1u);
  EXPECT_EQ(proc_->machine_name(), "alpha");
  EXPECT_EQ(proc_->log_name(), "alpha/proc1.log");
  EXPECT_EQ(proc_->ActivatorUri(), "phx://alpha/1/_activator");
  EXPECT_TRUE(proc_->alive());
}

TEST_F(ProcessTest, PidsAssignedSequentiallyByRecoveryService) {
  Process& p2 = alpha_->CreateProcess();
  Process& p3 = alpha_->CreateProcess();
  EXPECT_EQ(p2.pid(), 2u);
  EXPECT_EQ(p3.pid(), 3u);
  EXPECT_EQ(alpha_->GetProcess(2), &p2);
  EXPECT_EQ(alpha_->GetProcess(42), nullptr);
}

TEST_F(ProcessTest, ActivatorValidatesArguments) {
  ExternalClient client(sim_.get(), "alpha");
  auto bad = client.Call(proc_->ActivatorUri(), "Create", MakeArgs(1, 2));
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ProcessTest, CreateRejectsExternalAndSubordinateKinds) {
  auto ext = proc_->CreateComponent("Counter", "x", ComponentKind::kExternal,
                                    {});
  EXPECT_EQ(ext.status().code(), StatusCode::kInvalidArgument);
  auto sub = proc_->CreateComponent("Counter", "y",
                                    ComponentKind::kSubordinate, {});
  EXPECT_EQ(sub.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ProcessTest, CreateAssignsSequentialContextIds) {
  auto a = proc_->CreateComponent("Counter", "a", ComponentKind::kPersistent,
                                  {});
  auto b = proc_->CreateComponent("Counter", "b", ComponentKind::kPersistent,
                                  {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(proc_->FindContextOfComponent("a")->id(), 1u);
  EXPECT_EQ(proc_->FindContextOfComponent("b")->id(), 2u);
  EXPECT_EQ(proc_->FindComponent("a")->instance->name(), "a");
  EXPECT_EQ(proc_->FindComponent("zzz"), nullptr);
}

TEST_F(ProcessTest, InitializeFailurePropagates) {
  // Chain's Initialize requires a string downstream when args are given.
  auto r = proc_->CreateComponent("Bad?", "b", ComponentKind::kPersistent, {});
  EXPECT_TRUE(r.status().IsNotFound());  // unknown factory
}

TEST_F(ProcessTest, DeliverToDeadProcessIsUnavailable) {
  auto uri = proc_->CreateComponent("Counter", "c",
                                    ComponentKind::kPersistent, {});
  proc_->Kill();
  CallMessage msg;
  msg.target_uri = *uri;
  msg.method = "Get";
  EXPECT_TRUE(proc_->DeliverCall(msg).status().IsUnavailable());
  EXPECT_FALSE(proc_->alive());
  EXPECT_EQ(proc_->crash_count(), 1u);
}

TEST_F(ProcessTest, KillIsIdempotent) {
  proc_->Kill();
  proc_->Kill();
  EXPECT_EQ(proc_->crash_count(), 1u);
}

TEST_F(ProcessTest, StartResetsVolatileState) {
  auto uri = proc_->CreateComponent("Counter", "c",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(uri.ok());
  proc_->Kill();
  proc_->Start();  // bare start, no recovery
  EXPECT_TRUE(proc_->alive());
  EXPECT_EQ(proc_->FindComponent("c"), nullptr);  // volatile tables empty
  EXPECT_NE(proc_->FindComponent(kActivatorName), nullptr);
}

TEST_F(ProcessTest, ActivatorIsCallableComponent) {
  ExternalClient client(sim_.get(), "alpha");
  auto created =
      client.Call(proc_->ActivatorUri(), "Create",
                  MakeArgs("Counter", "via_activator",
                           static_cast<int64_t>(ComponentKind::kPersistent),
                           Value::List{}));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(created->AsString(), "phx://alpha/1/via_activator");
  EXPECT_TRUE(client.Call(created->AsString(), "Add", MakeArgs(1)).ok());
}

TEST_F(ProcessTest, ComponentUriRoundTrips) {
  auto uri = proc_->CreateComponent("Counter", "c",
                                    ComponentKind::kPersistent, {});
  ComponentSlot* slot = proc_->FindComponent("c");
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->instance->uri(), *uri);
  EXPECT_EQ(slot->instance->kind(), ComponentKind::kPersistent);
  EXPECT_EQ(slot->instance->type_name(), "Counter");
}

TEST_F(ProcessTest, ComponentKindNamesAreStable) {
  EXPECT_STREQ(ComponentKindName(ComponentKind::kExternal), "external");
  EXPECT_STREQ(ComponentKindName(ComponentKind::kPersistent), "persistent");
  EXPECT_STREQ(ComponentKindName(ComponentKind::kSubordinate), "subordinate");
  EXPECT_STREQ(ComponentKindName(ComponentKind::kFunctional), "functional");
  EXPECT_STREQ(ComponentKindName(ComponentKind::kReadOnly), "read_only");
  EXPECT_TRUE(IsStatefulKind(ComponentKind::kSubordinate));
  EXPECT_FALSE(IsStatefulKind(ComponentKind::kFunctional));
  EXPECT_FALSE(IsPhoenixKind(ComponentKind::kExternal));
}

// A durability wait that parks can resume after another chain crashed the
// process and restarted it. The waiting chain belongs to the dead
// incarnation and must unwind with Crashed even though its own wait was
// met, so it never touches the restarted process (an async checkpoint
// sweep used to resume inside the replaced CheckpointManager).
TEST(ProcessIncarnationTest, ParkedWaitResumingAfterRestartReturnsCrashed) {
  for (uint32_t shards : {1u, 2u}) {
    RuntimeOptions opts;
    opts.group_commit = true;
    // The second waiter completes the batch and flushes inline, so it runs
    // on while the first one sits woken but not yet resumed.
    opts.group_commit_max_batch = 2;
    opts.wal_shards = shards;
    Simulation sim(opts);
    RegisterTestComponents(sim.factories());
    Machine& alpha = sim.AddMachine("alpha");
    Process& proc = alpha.CreateProcess();
    ExternalClient admin(&sim, "alpha");
    ASSERT_TRUE(admin.CreateComponent(proc, "Counter", "c",
                                      ComponentKind::kPersistent, {})
                    .ok());
    uint64_t context_id = proc.FindContextOfComponent("c")->id();

    bool restarted = false;
    std::optional<Status> resumed;
    std::vector<std::function<void()>> bodies;
    for (int s = 0; s < 2; ++s) {
      bodies.push_back([&] {
        IncomingCallRecord rec;
        rec.context_id = context_id;
        rec.method = "Add";
        rec.args = MakeArgs(1);
        proc.log().Append(rec);
        Status status = proc.WaitDurable(ForcePoint::kIncomingLogged);
        if (restarted) {
          resumed = status;
          return;
        }
        EXPECT_TRUE(status.ok()) << status.ToString();
        restarted = true;
        proc.Kill();
        EXPECT_TRUE(
            alpha.recovery_service().EnsureProcessAlive(proc.pid()).ok());
      });
    }
    sim.RunSessions(std::move(bodies));

    ASSERT_TRUE(resumed.has_value()) << shards << " shard(s)";
    EXPECT_TRUE(resumed->IsCrashed())
        << shards << " shard(s): " << resumed->ToString();
    EXPECT_TRUE(proc.alive());
    // The parked wait pinned the dead incarnation across the restart; once
    // the sessions are done nothing is inside it, so it is gone.
    EXPECT_EQ(proc.held_incarnations(), 0u) << shards << " shard(s)";
  }
}

// A callback chain P.A -> Q.B -> P.C where P crashes in C before its reply.
// Q's retry restarts P inline, while A's frame, which belongs to the dead
// incarnation, is still on the driver's stack below it. The dead
// incarnation must outlive that restart (A returns through it) and be
// freed only after the stack has unwound.
TEST(ProcessIncarnationTest, CallbackRestartKeepsTheCallersIncarnation) {
  Simulation sim;
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Machine& beta = sim.AddMachine("beta");
  Process& p = alpha.CreateProcess();
  Process& q = beta.CreateProcess();
  ExternalClient admin(&sim, "alpha");
  auto c = admin.CreateComponent(p, "Chain", "c", ComponentKind::kPersistent,
                                 {});
  ASSERT_TRUE(c.ok());
  auto b = admin.CreateComponent(q, "Chain", "b", ComponentKind::kPersistent,
                                 MakeArgs(*c, "Bump"));
  ASSERT_TRUE(b.ok());
  auto a = admin.CreateComponent(p, "Chain", "a", ComponentKind::kPersistent,
                                 MakeArgs(*b, "Bump"));
  ASSERT_TRUE(a.ok());
  // C's reply send is the first one P reaches.
  sim.injector().AddTrigger("alpha", p.pid(), FailurePoint::kBeforeReplySend);

  ExternalClient client(&sim, "alpha");
  auto bumped = client.Call(*a, "Bump", MakeArgs(1));
  ASSERT_TRUE(bumped.ok()) << bumped.status().ToString();
  EXPECT_EQ(bumped->AsInt(), 1);
  EXPECT_EQ(sim.injector().crashes_fired(), 1u);
  EXPECT_EQ(p.crash_count(), 1u);
  // A returned through the dead incarnation after the restart; no Kill,
  // Start or session run has come since.
  EXPECT_EQ(p.held_incarnations(), 1u);

  // A's call took effect exactly once along the whole chain.
  ExternalClient probe(&sim, "alpha");
  EXPECT_EQ(probe.Call(*a, "Get", {})->AsInt(), 1);
  EXPECT_EQ(probe.Call(*b, "Get", {})->AsInt(), 1);
  EXPECT_EQ(probe.Call(*c, "Get", {})->AsInt(), 1);

  // The next release point frees it: nothing is inside it any more.
  sim.RunSessions({[&] { EXPECT_TRUE(probe.Call(*a, "Get", {}).ok()); }});
  EXPECT_EQ(p.held_incarnations(), 0u);
  EXPECT_EQ(q.held_incarnations(), 0u);
}

// Crash/restart loops on the driver thread hold at most one dead
// incarnation at any time: one crashed inside a call stays pinned until the
// call unwinds, and every Kill or Start frees the unpinned ones.
TEST(ProcessIncarnationTest, CrashRestartLoopHoldsAtMostOneCorpse) {
  constexpr int kCycles = 1000;
  RuntimeOptions opts;
  // Each cycle's clean call saves C's state and checkpoints, so a restart
  // scans and replays a bounded tail of the log.
  opts.save_context_state_every = 1;
  opts.process_checkpoint_every = 1;
  opts.auto_truncate_log = true;
  Simulation sim(opts);
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Machine& beta = sim.AddMachine("beta");
  Process& drivers = alpha.CreateProcess();
  Process& server = beta.CreateProcess();
  ExternalClient admin(&sim, "alpha");
  auto counter = admin.CreateComponent(server, "Chain", "c",
                                       ComponentKind::kPersistent, {});
  ASSERT_TRUE(counter.ok());
  auto driver = admin.CreateComponent(drivers, "Chain", "d",
                                      ComponentKind::kPersistent,
                                      MakeArgs(*counter, "Bump"));
  ASSERT_TRUE(driver.ok());

  ExternalClient client(&sim, "alpha");
  size_t most_held = 0;
  for (int i = 0; i < kCycles; ++i) {
    ASSERT_TRUE(client.Call(*driver, "Bump", MakeArgs(1)).ok()) << i;
    if (i % 2 == 0) {
      // Killed inside the call; the driver's retry restarts it.
      sim.injector().AddTrigger("beta", server.pid(),
                                FailurePoint::kBeforeReplySend);
      ASSERT_TRUE(client.Call(*driver, "Bump", MakeArgs(1)).ok()) << i;
    } else {
      // Killed from the driver thread, outside any call.
      server.Kill();
      most_held = std::max(most_held, server.held_incarnations());
      ASSERT_TRUE(
          beta.recovery_service().EnsureProcessAlive(server.pid()).ok())
          << i;
    }
    most_held = std::max(most_held, server.held_incarnations());
  }
  EXPECT_EQ(server.crash_count(), static_cast<uint64_t>(kCycles));
  EXPECT_LE(most_held, 1u);
  ExternalClient probe(&sim, "alpha");
  EXPECT_EQ(probe.Call(*counter, "Get", {})->AsInt(), kCycles + kCycles / 2);
}

// A recovery that runs on a session chain parks when its replay goes live
// and waits on another process's group commit. Other chains' calls into
// the recovering process wait for the recovery to end; they used to enter
// the context that was still replaying and fail as "busy".
TEST(ProcessRecoveryTest, CallsFromOtherChainsWaitForAParkedRecovery) {
  constexpr int kSessions = 3;
  constexpr int kCalls = 4;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RuntimeOptions opts;
    opts.group_commit = true;
    SimulationParams params;
    params.seed = seed;
    Simulation sim(opts, params);
    RegisterTestComponents(sim.factories());
    Machine& alpha = sim.AddMachine("alpha");
    Machine& beta = sim.AddMachine("beta");
    Process& drivers = alpha.CreateProcess();
    Process& mid_proc = alpha.CreateProcess();
    Process& leaf_proc = beta.CreateProcess();
    ExternalClient admin(&sim, "alpha");
    auto leaf = admin.CreateComponent(leaf_proc, "Counter", "leaf",
                                      ComponentKind::kPersistent, {});
    ASSERT_TRUE(leaf.ok());
    auto mid = admin.CreateComponent(mid_proc, "Chain", "mid",
                                     ComponentKind::kPersistent,
                                     MakeArgs(*leaf));
    ASSERT_TRUE(mid.ok());
    std::vector<std::string> driver_uris;
    for (int d = 0; d < kSessions; ++d) {
      auto driver = admin.CreateComponent(
          drivers, "Chain", StrCat("driver", d), ComponentKind::kPersistent,
          MakeArgs(*mid, "Bump"));
      ASSERT_TRUE(driver.ok());
      driver_uris.push_back(*driver);
    }
    // The first call mid forwards dies before its send: mid's recovery
    // replays that call live, into the leaf's group commit.
    sim.injector().AddTrigger("alpha", mid_proc.pid(),
                              FailurePoint::kBeforeOutgoingSend);

    std::vector<std::function<void()>> bodies;
    for (const std::string& uri : driver_uris) {
      bodies.push_back([&sim, uri] {
        ExternalClient client(&sim, "alpha");
        for (int i = 0; i < kCalls; ++i) {
          auto bumped = client.Call(uri, "Bump", MakeArgs(1));
          EXPECT_TRUE(bumped.ok()) << uri << ": " << bumped.status().ToString();
        }
      });
    }
    sim.RunSessions(std::move(bodies));

    EXPECT_EQ(sim.injector().crashes_fired(), 1u) << "seed " << seed;
    ExternalClient probe(&sim, "alpha");
    EXPECT_EQ(probe.Call(*mid, "Get", {})->AsInt(), kSessions * kCalls)
        << "seed " << seed;
    EXPECT_EQ(probe.Call(*leaf, "Get", {})->AsInt(), kSessions * kCalls)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace phoenix
