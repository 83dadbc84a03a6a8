// A logged incoming call names its method by its rank in the callee's
// MethodRegistry (name order), and replay names it again through the
// recovered callee's registry. A rank is only meaningful if every instance
// of a type ranks its methods alike, and a rank past the table must fail
// recovery rather than replay some other method.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <variant>
#include <vector>

#include "common/strings.h"
#include "recovery/recovery_manager.h"
#include "tests/test_components.h"

namespace phoenix {
namespace {

using phoenix::testing::ExecutionLog;
using phoenix::testing::RegisterTestComponents;

Result<Value> Noop(const ArgList&) { return Value(); }

// The same three methods, registered in opposite orders.
class Forward : public Component {
 public:
  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("Alpha", Noop);
    methods.Register("Beta", Noop);
    methods.Register("Gamma", Noop);
  }
};

class Backward : public Component {
 public:
  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("Gamma", Noop);
    methods.Register("Beta", Noop);
    methods.Register("Alpha", Noop);
  }
};

TEST(MethodRankTest, RegistrationOrderDoesNotChangeRanks) {
  Forward forward;
  Backward backward;
  MethodRegistry forward_methods;
  MethodRegistry backward_methods;
  forward.RegisterMethods(forward_methods);
  backward.RegisterMethods(backward_methods);
  const std::vector<std::string> names = {"Alpha", "Beta", "Gamma"};
  for (uint32_t rank = 0; rank < names.size(); ++rank) {
    SCOPED_TRACE(names[rank]);
    EXPECT_EQ(forward_methods.Find(names[rank])->rank, rank);
    EXPECT_EQ(backward_methods.Find(names[rank])->rank, rank);
    ASSERT_NE(forward_methods.NameOfRank(rank), nullptr);
    EXPECT_EQ(*forward_methods.NameOfRank(rank), names[rank]);
    EXPECT_EQ(*backward_methods.NameOfRank(rank), names[rank]);
  }
  EXPECT_EQ(forward_methods.NameOfRank(3), nullptr);
  EXPECT_EQ(backward_methods.NameOfRank(3), nullptr);
}

TEST(MethodRankTest, EveryRegistrationOrderRanksByName) {
  const std::vector<std::string> names = {"Add", "Clear", "Get", "Remove"};
  std::vector<std::string> order = names;
  do {
    SCOPED_TRACE(
        StrCat(order[0], ",", order[1], ",", order[2], ",", order[3]));
    MethodRegistry methods;
    for (const std::string& name : order) methods.Register(name, Noop);
    for (uint32_t rank = 0; rank < names.size(); ++rank) {
      EXPECT_EQ(methods.Find(names[rank])->rank, rank);
      EXPECT_EQ(*methods.NameOfRank(rank), names[rank]);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

class MethodRankRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<Simulation>(RuntimeOptions{});
    RegisterTestComponents(sim_->factories());
    alpha_ = &sim_->AddMachine("alpha");
    proc_ = &alpha_->CreateProcess();
    client_ = std::make_unique<ExternalClient>(sim_.get(), "alpha");
    ExecutionLog::Reset();
    uri_ = client_
               ->CreateComponent(*proc_, "Counter", "c",
                                 ComponentKind::kPersistent, {})
               .value();
    context_id_ = proc_->FindContextOfComponent("c")->id();
  }

  // Appends an incoming call to "c" naming method `rank` (Counter has
  // three: Add, Fail, Get).
  void AppendRankedCall(uint32_t rank) {
    IncomingCallRecord rec;
    rec.context_id = context_id_;
    rec.method_rank = rank;
    rec.args = MakeArgs(100);
    proc_->log().Append(rec);
  }

  std::unique_ptr<Simulation> sim_;
  Machine* alpha_ = nullptr;
  Process* proc_ = nullptr;
  std::unique_ptr<ExternalClient> client_;
  std::string uri_;
  uint64_t context_id_ = 0;
};

TEST_F(MethodRankRecoveryTest, InterceptorLogsTheRankAndReplayNamesIt) {
  ASSERT_TRUE(client_->Call(uri_, "Add", MakeArgs(2)).ok());
  ASSERT_TRUE(client_->Call(uri_, "Add", MakeArgs(3)).ok());
  std::vector<uint32_t> ranks;
  LogReader reader(proc_->log().StableView(), proc_->log().head_base());
  while (auto parsed = reader.Next()) {
    const auto* in = std::get_if<IncomingCallRecord>(&parsed->record);
    if (in == nullptr || in->context_id != context_id_) continue;
    ASSERT_TRUE(in->method_rank.has_value());
    EXPECT_TRUE(in->method.empty());
    ranks.push_back(*in->method_rank);
  }
  EXPECT_EQ(ranks, (std::vector<uint32_t>{0, 0}));  // "Add" sorts first

  proc_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(proc_->pid()).ok());
  EXPECT_EQ(ExecutionLog::Of("c.Add"), 4);  // two live, two replayed
  EXPECT_EQ(client_->Call(uri_, "Get", {})->AsInt(), 5);
}

TEST_F(MethodRankRecoveryTest, RankPastTheTableFailsCrashRecovery) {
  ASSERT_TRUE(client_->Call(uri_, "Add", MakeArgs(2)).ok());
  AppendRankedCall(3);
  // The next external call forces the log, the bad record included, and
  // leaves it a non-final unit of the context's chain.
  ASSERT_TRUE(client_->Call(uri_, "Add", MakeArgs(3)).ok());
  proc_->Kill();
  ExecutionLog::Reset();

  proc_->Start();
  proc_->set_recovering(true);
  RecoveryManager recovery(proc_);
  Status status = recovery.Recover();
  proc_->set_recovering(false);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find("method #3, which Counter lacks"), std::string::npos)
      << status.ToString();
  // Replay stopped at the bad record: no other method ran in its place,
  // nor did the call logged after it.
  EXPECT_EQ(ExecutionLog::Of("c.Add"), 1);

  // Under the supervisor both replaying rungs fail on the record, and the
  // ladder ends in a cold start, which replays no message.
  proc_->Kill();
  ExecutionLog::Reset();
  ASSERT_TRUE(
      alpha_->recovery_service().EnsureProcessAlive(proc_->pid()).ok());
  for (const char* rung : {"normal", "salvage_assessed", "cold_start"}) {
    SCOPED_TRACE(rung);
    obs::LabelSet labels{{"process", "alpha/1"}, {"rung", rung}};
    EXPECT_EQ(sim_->metrics()
                  .GetCounter("phoenix.recovery.supervisor.attempts", labels)
                  .value(),
              1u);
  }
  EXPECT_EQ(ExecutionLog::Of("c.Add"), 2);  // once on each replaying rung
  EXPECT_EQ(client_->Call(uri_, "Get", {})->AsInt(), 0);
}

TEST_F(MethodRankRecoveryTest, RankPastTheTableFailsContextFailureRecovery) {
  ASSERT_TRUE(client_->Call(uri_, "Add", MakeArgs(2)).ok());
  AppendRankedCall(7);  // the final unit; context recovery reads the buffer
  Context* ctx = proc_->FindContext(context_id_);
  ctx->ClearMembers();
  ExecutionLog::Reset();
  Status status = RecoverContextFailure(proc_, context_id_);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find("method #7, which Counter lacks"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(ExecutionLog::Of("c.Add"), 1);
}

TEST_F(MethodRankRecoveryTest, UnknownLiteralNameFailsRecovery) {
  ASSERT_TRUE(client_->Call(uri_, "Add", MakeArgs(2)).ok());
  IncomingCallRecord rec;
  rec.context_id = context_id_;
  rec.method = "Subtract";
  proc_->log().Append(rec);
  Context* ctx = proc_->FindContext(context_id_);
  ctx->ClearMembers();
  Status status = RecoverContextFailure(proc_, context_id_);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find("method Subtract, which Counter lacks"),
            std::string::npos)
      << status.ToString();
}

TEST_F(MethodRankRecoveryTest, RankWithinTheTableReplaysThatMethod) {
  ASSERT_TRUE(client_->Call(uri_, "Add", MakeArgs(2)).ok());
  AppendRankedCall(0);  // Add(100)
  Context* ctx = proc_->FindContext(context_id_);
  ctx->ClearMembers();
  ASSERT_TRUE(RecoverContextFailure(proc_, context_id_).ok());
  EXPECT_EQ(client_->Call(uri_, "Get", {})->AsInt(), 102);
}

}  // namespace
}  // namespace phoenix
