// Asynchronous checkpointing (RuntimeOptions.async_checkpoint): a dedicated
// background session per process performs the §4.2 state sweeps and §4.3
// process checkpoints off the foreground chains. These tests pin the crash
// interleavings the async path exposes: crashes inside a background sweep,
// a crash between the end-record append and the publish, recovery landing
// on the older published checkpoint, and end-state equivalence with the
// inline cadence on the same seed. They also pin the cadence: sweeps run on
// their interval only, and the replay-debt break-even saves a context that
// no sweep finds idle.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_service.h"
#include "tests/test_components.h"
#include "wal/log_reader.h"

namespace phoenix {
namespace {

using phoenix::testing::ExecutionLog;
using phoenix::testing::RegisterTestComponents;

constexpr int kSessions = 3;
constexpr int kCallsPerSession = 16;

RuntimeOptions AsyncOptions(uint32_t interval = 10) {
  RuntimeOptions opts;
  opts.async_checkpoint = true;
  opts.async_checkpoint_interval = interval;
  // The background session interleaves at durability park points, so async
  // checkpointing runs under group commit (see DESIGN.md §9).
  opts.group_commit = true;
  return opts;
}

// Builds the standard two-machine topology: persistent Chain callers on the
// client process forward every Bump to a Counter on the server process, so
// crashes at the server exercise exactly-once through persistent callers
// (an external driver would legitimately observe duplicates).
struct Topology {
  Machine* server_machine = nullptr;
  Machine* client_machine = nullptr;
  Process* server = nullptr;
  Process* client = nullptr;
  std::vector<std::string> chains;
  std::vector<std::string> counters;
};

Topology Deploy(Simulation& sim, int sessions) {
  Topology topo;
  topo.server_machine = &sim.AddMachine("server");
  topo.client_machine = &sim.AddMachine("client");
  topo.server = &topo.server_machine->CreateProcess();
  topo.client = &topo.client_machine->CreateProcess();
  ExternalClient admin(&sim, "client");
  for (int s = 0; s < sessions; ++s) {
    auto counter = admin.CreateComponent(*topo.server, "Counter",
                                         "counter" + std::to_string(s),
                                         ComponentKind::kPersistent, {});
    EXPECT_TRUE(counter.ok());
    auto chain = admin.CreateComponent(*topo.client, "Chain",
                                       "chain" + std::to_string(s),
                                       ComponentKind::kPersistent,
                                       MakeArgs(*counter, "Add"));
    EXPECT_TRUE(chain.ok());
    topo.chains.push_back(*chain);
    topo.counters.push_back(*counter);
  }
  return topo;
}

// One session per chain, each driving `calls` back-to-back Bump(1) calls.
// `after_call(s)` runs on session s's chain after each reply, while every
// other chain is quiesced.
void RunWorkload(Simulation& sim, const Topology& topo,
                 int calls = kCallsPerSession,
                 const std::function<void(int)>& after_call = nullptr) {
  std::vector<std::function<void()>> bodies;
  for (size_t s = 0; s < topo.chains.size(); ++s) {
    bodies.push_back([&sim, &after_call, chain = topo.chains[s], calls, s] {
      ExternalClient driver(&sim, "client");
      for (int i = 0; i < calls; ++i) {
        Result<Value> r = driver.Call(chain, "Bump", MakeArgs(1));
        EXPECT_TRUE(r.ok()) << chain << ": " << r.status().ToString();
        if (after_call) after_call(static_cast<int>(s));
      }
    });
  }
  sim.RunSessions(std::move(bodies));
}

int64_t CounterValue(Simulation& sim, const Topology& topo, int s) {
  ExternalClient probe(&sim, "server");
  auto value = probe.Call(topo.counters[s], "Get", {});
  EXPECT_TRUE(value.ok());
  return value.ok() ? value->AsInt() : -1;
}

TEST(AsyncCheckpointTest, SweepsCaptureAndPublishOffTheForegroundChain) {
  Simulation sim(AsyncOptions());
  RegisterTestComponents(sim.factories());
  Topology topo = Deploy(sim, kSessions);
  RunWorkload(sim, topo);

  // The background session swept and published while the workload ran.
  CheckpointManager& cp = topo.server->checkpoints();
  EXPECT_GE(cp.async_sweeps(), 1u);
  EXPECT_GE(cp.state_saves(), 1u);
  EXPECT_GE(cp.checkpoints_taken(), 1u);
  EXPECT_GE(cp.checkpoints_published(), 1u);
  EXPECT_TRUE(topo.server->log().ReadWellKnownLsn().ok());
  // The sweep's bracket force is attributed to the background chain's own
  // force point, never to a foreground interceptor site.
  EXPECT_GE(sim.metrics().CounterTotal("phoenix.checkpoint.async.sweeps"), 2u);
  EXPECT_GE(sim.metrics().CounterTotal("phoenix.checkpoint.async.publishes"),
            1u);

  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(CounterValue(sim, topo, s), kCallsPerSession) << "counter " << s;
  }

  // Recovery from the async-published checkpoint lands on the same state.
  topo.server->Kill();
  ASSERT_TRUE(
      topo.server_machine->recovery_service().EnsureProcessAlive(1).ok());
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(CounterValue(sim, topo, s), kCallsPerSession) << "counter " << s;
  }
}

TEST(AsyncCheckpointTest, CrashMidSweepIsHarmless) {
  Simulation sim(AsyncOptions(6));
  RegisterTestComponents(sim.factories());
  Topology topo = Deploy(sim, kSessions);
  // Both crash points inside the background sweep: one during a context
  // state save, one inside the checkpoint bracket. The inline cadence is
  // inactive (async mode), so only the background session can trip these.
  sim.injector().AddTrigger("server", topo.server->pid(),
                            FailurePoint::kDuringStateSave, 1);
  sim.injector().AddTrigger("server", topo.server->pid(),
                            FailurePoint::kDuringCheckpoint, 1);
  RunWorkload(sim, topo);

  EXPECT_GE(topo.server->crash_count(), 1u);
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(CounterValue(sim, topo, s), kCallsPerSession) << "counter " << s;
  }
  // And a final crash + recovery still lands on the exact state.
  topo.server->Kill();
  ASSERT_TRUE(
      topo.server_machine->recovery_service().EnsureProcessAlive(1).ok());
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(CounterValue(sim, topo, s), kCallsPerSession) << "counter " << s;
  }
}

TEST(AsyncCheckpointTest, CrashBetweenEndAppendAndPublishLandsOnOlderCheckpoint) {
  // Publish ordering under the async split: a bracket whose end record was
  // appended but never became durable must be invisible after a crash —
  // recovery lands on the older *published* checkpoint.
  Simulation sim;  // inline driver calls; no sessions needed for this one
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Process& server = alpha.CreateProcess();
  ExternalClient client(&sim, "alpha");
  auto uri = client.CreateComponent(server, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(uri.ok());

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  Context* ctx = server.FindContextOfComponent("c");
  ASSERT_TRUE(server.checkpoints().SaveContextState(*ctx).ok());
  Result<uint64_t> first = server.checkpoints().TakeProcessCheckpoint();
  ASSERT_TRUE(first.ok());
  // This call's force publishes the first checkpoint.
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  Result<uint64_t> published = server.log().ReadWellKnownLsn();
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, *first);

  // Second checkpoint: end record appended, sitting in the buffer — the
  // crash eats it before any force, so the publish gate never opens.
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  Result<uint64_t> second = server.checkpoints().TakeProcessCheckpoint();
  ASSERT_TRUE(second.ok());
  server.Kill();
  ASSERT_TRUE(alpha.recovery_service().EnsureProcessAlive(1).ok());

  Result<uint64_t> after = server.log().ReadWellKnownLsn();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *first);  // still the older published checkpoint
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 6);
}

TEST(AsyncCheckpointTest, AsyncEndStateEqualsInlineOnSameSeed) {
  // The same seeded workload, captured asynchronously vs inline: final
  // component state — including after a crash + recovery — must match.
  auto run = [&](bool async) -> std::vector<int64_t> {
    RuntimeOptions opts = AsyncOptions(8);
    if (!async) {
      opts.async_checkpoint = false;
      opts.save_context_state_every = 8;
      opts.process_checkpoint_every = 8;
    }
    Simulation sim(opts);
    RegisterTestComponents(sim.factories());
    Topology topo = Deploy(sim, kSessions);
    RunWorkload(sim, topo);
    topo.server->Kill();
    EXPECT_TRUE(
        topo.server_machine->recovery_service().EnsureProcessAlive(1).ok());
    std::vector<int64_t> values;
    for (int s = 0; s < kSessions; ++s) {
      values.push_back(CounterValue(sim, topo, s));
    }
    return values;
  };
  std::vector<int64_t> with_async = run(true);
  std::vector<int64_t> inline_cadence = run(false);
  EXPECT_EQ(with_async, inline_cadence);
  for (int64_t v : with_async) EXPECT_EQ(v, kCallsPerSession);
}

TEST(AsyncCheckpointTest, DeferredContextWaitsForTheNextIntervalSweep) {
  // Four sessions under group commit: each Counter parks on its reply force
  // while it serves, so sweeps find serving contexts and defer them. A
  // deferred context stays dirty for the next interval sweep: going idle
  // never starts a sweep of its own. The interval is well above the calls
  // one bracket force spans, so every sweep starts at its crossing.
  constexpr uint32_t kInterval = 29;
  Simulation sim(AsyncOptions(kInterval));
  RegisterTestComponents(sim.factories());
  Topology topo = Deploy(sim, 4);
  CheckpointManager& cp = topo.server->checkpoints();
  uint64_t most_ahead = 0;  // sweeps run past the crossings so far
  RunWorkload(sim, topo, 120, [&](int) {
    uint64_t crossings = topo.server->incoming_calls() / kInterval;
    if (cp.async_sweeps() > crossings) {
      most_ahead = std::max(most_ahead, cp.async_sweeps() - crossings);
    }
  });

  EXPECT_EQ(most_ahead, 0u);
  EXPECT_GE(cp.async_deferrals(), 1u);
  EXPECT_EQ(cp.async_sweeps(), topo.server->incoming_calls() / kInterval);
  for (int s = 0; s < 4; ++s) EXPECT_EQ(CounterValue(sim, topo, s), 120);
}

TEST(AsyncCheckpointTest, NeverIdleContextSavesAtReplayBreakEven) {
  // Each Chain serves back-to-back Bumps: its driver issues the next one
  // without parking, so every sweep on the client process finds it serving.
  // The replay-debt break-even (CostModel: 60 ms restore / 0.13 ms per
  // replayed call = 462 calls) still saves it on its own chain.
  constexpr int kCalls = 600;
  Simulation sim(AsyncOptions(10));
  RegisterTestComponents(sim.factories());
  Topology topo = Deploy(sim, kSessions);
  std::vector<uint64_t> max_debt(kSessions, 0);
  std::vector<int> saves(kSessions, 0);
  RunWorkload(sim, topo, kCalls, [&](int s) {
    Context* ctx = topo.client->FindContextOfComponent(
        "chain" + std::to_string(s));
    ASSERT_NE(ctx, nullptr);
    uint64_t debt = ctx->calls_since_origin();
    if (debt < max_debt[s]) ++saves[s];
    max_debt[s] = std::max(max_debt[s], debt);
  });

  EXPECT_GE(topo.client->checkpoints().async_deferrals(), 1u);
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_GE(saves[s], 1) << "chain " << s;
    EXPECT_LE(max_debt[s], 463u) << "chain " << s;
    EXPECT_EQ(CounterValue(sim, topo, s), kCalls) << "counter " << s;
  }
}

TEST(AsyncCheckpointTest, InlineCadenceSavesAreUnchanged) {
  // With async off the debt rule is the inline one: the cadence or the
  // break-even, whichever comes first. Pinned save counts per process for
  // 600 Bumps per session: at cadence 500 the break-even fires first (462
  // calls, once per context); at cadence 64 the cadence does (9 per
  // context).
  auto saves = [](uint32_t cadence) {
    RuntimeOptions opts;
    opts.group_commit = true;
    opts.save_context_state_every = cadence;
    opts.process_checkpoint_every = 64;
    Simulation sim(opts);
    RegisterTestComponents(sim.factories());
    Topology topo = Deploy(sim, kSessions);
    RunWorkload(sim, topo, 600);
    for (int s = 0; s < kSessions; ++s) {
      EXPECT_EQ(CounterValue(sim, topo, s), 600) << "counter " << s;
    }
    return std::make_pair(topo.client->checkpoints().state_saves(),
                          topo.server->checkpoints().state_saves());
  };
  EXPECT_EQ(saves(500), std::make_pair(uint64_t{3}, uint64_t{3}));
  EXPECT_EQ(saves(64), std::make_pair(uint64_t{27}, uint64_t{27}));
}

TEST(AsyncCheckpointTest, PublishIsIdempotentPerCheckpoint) {
  // Satellite: MaybePublishCheckpoint is invoked from every force site; the
  // publish-once latch makes repeats no-ops and counts them.
  Simulation sim;
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Process& server = alpha.CreateProcess();
  ExternalClient client(&sim, "alpha");
  auto uri = client.CreateComponent(server, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(uri.ok());
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  ASSERT_TRUE(server.checkpoints().TakeProcessCheckpoint().ok());
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());  // publishes
  ASSERT_EQ(server.checkpoints().checkpoints_published(), 1u);
  Result<uint64_t> published = server.log().ReadWellKnownLsn();
  ASSERT_TRUE(published.ok());

  uint64_t skips_before = server.checkpoints().publish_skips();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  // Repeat force sites hit the latch: counted, nothing re-published.
  EXPECT_GT(server.checkpoints().publish_skips(), skips_before);
  EXPECT_EQ(server.checkpoints().checkpoints_published(), 1u);
  EXPECT_EQ(*server.log().ReadWellKnownLsn(), *published);
  EXPECT_EQ(sim.metrics().CounterTotal("phoenix.checkpoint.publish_skips"),
            server.checkpoints().publish_skips());
}

TEST(AsyncCheckpointTest, GcPinsCheckpointCapturedReferences) {
  // Satellite: once capture and publish are decoupled, the live context
  // tables can move past the LSNs a checkpoint's entries reference. GC must
  // pin the captured refs — published *and* pending — or auto-truncation
  // trims records recovery still needs.
  Simulation sim;
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Process& server = alpha.CreateProcess();
  ExternalClient client(&sim, "alpha");
  auto uri = client.CreateComponent(server, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(uri.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  Context* ctx = server.FindContextOfComponent("c");
  Result<uint64_t> captured_state = server.checkpoints().SaveContextState(*ctx);
  ASSERT_TRUE(captured_state.ok());
  // The checkpoint's context entry references captured_state.
  Result<uint64_t> begin = server.checkpoints().TakeProcessCheckpoint();
  ASSERT_TRUE(begin.ok());

  // The live table moves on: newer calls and a newer state record, all
  // *above* the captured one. The force publishes the pending checkpoint.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  ASSERT_TRUE(server.checkpoints().SaveContextState(*ctx).ok());
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  ASSERT_TRUE(server.log().ReadWellKnownLsn().ok());
  EXPECT_GT(ctx->recovery_lsn(), *captured_state);

  // GC must not trim past the published checkpoint's captured state record
  // even though every *live* pin now sits above it.
  server.checkpoints().GarbageCollect();
  EXPECT_LE(server.log().head_base(), *captured_state);

  // And recovery through that checkpoint still works end to end.
  server.Kill();
  ASSERT_TRUE(alpha.recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 14);
}

}  // namespace
}  // namespace phoenix
