// A reply that has left its process is never un-written. After the server
// forces a reply, its post-call bookkeeping may still save the context's
// state or take a process checkpoint, and a crash there kills the process
// with the reply already on the wire ("reply sent"). The crash-time torn
// tail must not reach below that reply: the caller was acknowledged, so
// the call has to survive recovery exactly once.

#include <gtest/gtest.h>

#include <tuple>

#include "common/strings.h"
#include "recovery/recovery_service.h"
#include "tests/test_components.h"

namespace phoenix {
namespace {

using phoenix::testing::RegisterTestComponents;

using ReplyExitParam = std::tuple<LoggingMode, FailurePoint>;

std::string ParamName(const ::testing::TestParamInfo<ReplyExitParam>& info) {
  const auto& [mode, point] = info.param;
  return StrCat(mode == LoggingMode::kBaseline ? "baseline_" : "optimized_",
                FailurePointName(point));
}

class ReplyExitTest : public ::testing::TestWithParam<ReplyExitParam> {};

TEST_P(ReplyExitTest, AcknowledgedCallsSurvivePostReplyCrashWithTornTail) {
  const auto& [mode, point] = GetParam();
  RuntimeOptions opts;
  opts.logging_mode = mode;
  // Every logged call saves its context, or every second call takes a
  // process checkpoint; both run after the reply force. (With a checkpoint
  // on every call, each reply force would publish the previous bracket,
  // and the publish alone raises the floor past the reply.)
  opts.save_context_state_every = 1;
  if (point == FailurePoint::kDuringCheckpoint) {
    opts.save_context_state_every = 0;
    opts.process_checkpoint_every = 2;
  }
  Simulation sim(opts);
  RegisterTestComponents(sim.factories());
  Machine& server = sim.AddMachine("server");
  sim.AddMachine("client");
  Process& proc = server.CreateProcess();
  ExternalClient client(&sim, "client");
  auto counter = client.CreateComponent(proc, "Counter", "c",
                                        ComponentKind::kPersistent, {});
  ASSERT_TRUE(counter.ok()) << counter.status().ToString();

  // Every crash tears the stable tail as far as the externalized floor.
  sim.injector().EnableTornTails(1.0, /*seed=*/17);
  int64_t acknowledged = 0;
  for (int i = 0; i < 24; ++i) {
    if (i % 3 == 1) sim.injector().AddTrigger("server", proc.pid(), point);
    auto added = client.Call(*counter, "Add", MakeArgs(int64_t{1}));
    ASSERT_TRUE(added.ok()) << "call " << i << ": "
                            << added.status().ToString();
    ++acknowledged;
    // The reply carries the count after this call: exactly once so far.
    ASSERT_EQ(added->AsInt(), acknowledged) << "call " << i;
  }
  EXPECT_GE(sim.injector().crashes_fired(), 8u);
  EXPECT_GE(sim.injector().torn_tails_fired(), 8u);

  auto total = client.Call(*counter, "Get", {});
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  EXPECT_EQ(total->AsInt(), acknowledged);
}

INSTANTIATE_TEST_SUITE_P(
    PostReplyCrash, ReplyExitTest,
    ::testing::Combine(::testing::Values(LoggingMode::kBaseline,
                                         LoggingMode::kOptimized),
                       ::testing::Values(FailurePoint::kDuringStateSave,
                                         FailurePoint::kDuringCheckpoint)),
    ParamName);

}  // namespace
}  // namespace phoenix
