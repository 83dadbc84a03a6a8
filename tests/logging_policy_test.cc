// Checks the decision tables directly against the paper's algorithm boxes.

#include "runtime/logging_policy.h"

#include <gtest/gtest.h>

#include "runtime/context.h"

namespace phoenix {
namespace {

RuntimeOptions Baseline() {
  RuntimeOptions o;
  o.logging_mode = LoggingMode::kBaseline;
  o.use_specialized_kinds = false;
  return o;
}

RuntimeOptions Optimized() {
  RuntimeOptions o;
  o.logging_mode = LoggingMode::kOptimized;
  o.use_specialized_kinds = true;
  return o;
}

constexpr auto kP = ComponentKind::kPersistent;
constexpr auto kE = ComponentKind::kExternal;
constexpr auto kF = ComponentKind::kFunctional;
constexpr auto kRO = ComponentKind::kReadOnly;

// --- Algorithm 1: baseline logs and forces everything ---

TEST(LoggingPolicyTest, BaselineForcesAllFourMessages) {
  RuntimeOptions o = Baseline();
  auto in = DecideIncoming(o, kP, kP, false);
  EXPECT_TRUE(in.write);
  EXPECT_TRUE(in.force);
  EXPECT_TRUE(in.dedupe);

  auto rep = DecideReplySend(o, kP, kP, false, false);
  EXPECT_TRUE(rep.write);
  EXPECT_TRUE(rep.force);
  EXPECT_TRUE(rep.long_form);

  auto out = DecideOutgoing(o, kP, false, kP, false, false, nullptr, "uri");
  EXPECT_TRUE(out.write);
  EXPECT_TRUE(out.force);
  EXPECT_TRUE(out.attach_call_id);

  auto rr = DecideReplyReceived(o, kP, kP, false);
  EXPECT_TRUE(rr.write);
  EXPECT_TRUE(rr.force);
}

// --- Algorithm 2: optimized persistent <-> persistent ---

TEST(LoggingPolicyTest, OptimizedLogsReceivesWithoutForce) {
  RuntimeOptions o = Optimized();
  // Message 1: log, no force.
  auto in = DecideIncoming(o, kP, kP, false);
  EXPECT_TRUE(in.write);
  EXPECT_FALSE(in.force);
  EXPECT_TRUE(in.dedupe);
  // Message 4: log, no force.
  auto rr = DecideReplyReceived(o, kP, kP, false);
  EXPECT_TRUE(rr.write);
  EXPECT_FALSE(rr.force);
}

TEST(LoggingPolicyTest, OptimizedSendsForceButAreNotWritten) {
  RuntimeOptions o = Optimized();
  // Message 2: force all previous, write nothing.
  auto rep = DecideReplySend(o, kP, kP, false, false);
  EXPECT_FALSE(rep.write);
  EXPECT_TRUE(rep.force);
  // Message 3: force all previous, write nothing.
  auto out = DecideOutgoing(o, kP, true, kP, false, false, nullptr, "uri");
  EXPECT_FALSE(out.write);
  EXPECT_TRUE(out.force);
  EXPECT_TRUE(out.attach_call_id);
}

// --- Algorithm 3: external client ---

TEST(LoggingPolicyTest, ExternalClientLongThenShortForced) {
  RuntimeOptions o = Optimized();
  auto in = DecideIncoming(o, kP, kE, false);
  EXPECT_TRUE(in.write);
  EXPECT_TRUE(in.force);
  EXPECT_FALSE(in.dedupe);  // no ID to dedupe on

  auto rep = DecideReplySend(o, kP, kE, false, false);
  EXPECT_TRUE(rep.write);
  EXPECT_TRUE(rep.force);
  EXPECT_FALSE(rep.long_form);  // short record: identity only
}

TEST(LoggingPolicyTest, BaselineExternalClientRepliesAreLong) {
  auto rep = DecideReplySend(Baseline(), kP, kE, false, false);
  EXPECT_TRUE(rep.write);
  EXPECT_TRUE(rep.long_form);
}

// --- Algorithm 4: functional components ---

TEST(LoggingPolicyTest, FunctionalServerNothingAnywhere) {
  RuntimeOptions o = Optimized();
  // At the functional component: nothing.
  EXPECT_FALSE(DecideIncoming(o, kF, kP, false).write);
  EXPECT_FALSE(DecideReplySend(o, kF, kP, false, false).write);
  // At the persistent caller of a known-functional server: nothing.
  auto out = DecideOutgoing(o, kP, true, kF, false, false, nullptr, "uri");
  EXPECT_FALSE(out.write);
  EXPECT_FALSE(out.force);
  EXPECT_FALSE(out.attach_call_id);
  EXPECT_FALSE(DecideReplyReceived(o, kP, kF, false).write);
}

TEST(LoggingPolicyTest, FunctionalClientLogsNothing) {
  RuntimeOptions o = Optimized();
  auto out = DecideOutgoing(o, kF, true, kF, false, false, nullptr, "uri");
  EXPECT_FALSE(out.write);
  EXPECT_FALSE(out.force);
  EXPECT_FALSE(DecideReplyReceived(o, kF, kF, false).write);
}

// --- Algorithm 5: read-only components and methods ---

TEST(LoggingPolicyTest, ReadOnlyClientNotLoggedAtServer) {
  RuntimeOptions o = Optimized();
  auto in = DecideIncoming(o, kP, kRO, false);
  EXPECT_FALSE(in.write);
  EXPECT_FALSE(in.dedupe);
  EXPECT_FALSE(DecideReplySend(o, kP, kRO, false, false).write);
  EXPECT_FALSE(DecideReplySend(o, kP, kRO, false, false).force);
}

TEST(LoggingPolicyTest, CallToReadOnlyServerNoForceButReplyLogged) {
  RuntimeOptions o = Optimized();
  auto out = DecideOutgoing(o, kP, true, kRO, false, false, nullptr, "uri");
  EXPECT_FALSE(out.write);
  EXPECT_FALSE(out.force);  // a read-only call commits nothing
  // Message 4 IS logged (unrepeatable reply), without force.
  auto rr = DecideReplyReceived(o, kP, kRO, false);
  EXPECT_TRUE(rr.write);
  EXPECT_FALSE(rr.force);
}

TEST(LoggingPolicyTest, ReadOnlyMethodTreatedLikeReadOnlyComponent) {
  RuntimeOptions o = Optimized();
  EXPECT_FALSE(DecideIncoming(o, kP, kP, /*method_read_only=*/true).write);
  EXPECT_FALSE(DecideReplySend(o, kP, kP, true, false).force);
  auto out = DecideOutgoing(o, kP, true, kP, /*method_read_only=*/true, false,
                            nullptr, "uri");
  EXPECT_FALSE(out.force);
}

TEST(LoggingPolicyTest, ReadOnlyIgnoredWhenSpecializedKindsOff) {
  RuntimeOptions o = Optimized();
  o.use_specialized_kinds = false;
  EXPECT_TRUE(DecideIncoming(o, kP, kP, /*method_read_only=*/true).write);
  EXPECT_TRUE(
      DecideOutgoing(o, kP, true, kRO, false, false, nullptr, "uri").force);
}

// --- Unknown servers use the most conservative algorithm (§3.4) ---

TEST(LoggingPolicyTest, UnknownServerIsConservative) {
  RuntimeOptions o = Optimized();
  auto out = DecideOutgoing(o, kP, /*server_known=*/false, kF,
                            /*method_read_only=*/true, false, nullptr, "uri");
  EXPECT_TRUE(out.force);
  EXPECT_TRUE(out.attach_call_id);
}

// --- §3.5 multi-call optimization ---

TEST(LoggingPolicyTest, MultiCallForcesOnceAcrossDistinctServers) {
  RuntimeOptions o = Optimized();
  o.multi_call_optimization = true;
  MultiCallTracker tracker;
  EXPECT_TRUE(
      DecideOutgoing(o, kP, true, kP, false, false, &tracker, "uri_a").force);
  EXPECT_FALSE(
      DecideOutgoing(o, kP, true, kP, false, false, &tracker, "uri_b").force);
  EXPECT_FALSE(
      DecideOutgoing(o, kP, true, kP, false, false, &tracker, "uri_c").force);
  // Second call to an already-seen server forces again.
  EXPECT_TRUE(
      DecideOutgoing(o, kP, true, kP, false, false, &tracker, "uri_b").force);
}

TEST(LoggingPolicyTest, MultiCallTrackerResetsPerExecution) {
  RuntimeOptions o = Optimized();
  o.multi_call_optimization = true;
  MultiCallTracker tracker;
  DecideOutgoing(o, kP, true, kP, false, false, &tracker, "uri_a");
  tracker.Reset();
  EXPECT_TRUE(
      DecideOutgoing(o, kP, true, kP, false, false, &tracker, "uri_b").force);
}

TEST(LoggingPolicyTest, MultiCallOffForcesEveryCall) {
  RuntimeOptions o = Optimized();
  MultiCallTracker tracker;
  EXPECT_TRUE(
      DecideOutgoing(o, kP, true, kP, false, false, &tracker, "a").force);
  EXPECT_TRUE(
      DecideOutgoing(o, kP, true, kP, false, false, &tracker, "b").force);
}

// --- Sends to a context on the same log ---

constexpr bool kSameLog = true;

TEST(LoggingPolicyTest, OptimizedSameLogSendsAreNotForced) {
  RuntimeOptions o = Optimized();
  // Message 2: still unwritten, now unforced; dedupe is unchanged.
  auto rep = DecideReplySend(o, kP, kP, false, kSameLog);
  EXPECT_FALSE(rep.write);
  EXPECT_FALSE(rep.force);
  EXPECT_TRUE(rep.dedupe);
  // Message 3: still carries its ID, unforced.
  auto out = DecideOutgoing(o, kP, true, kP, false, kSameLog, nullptr, "uri");
  EXPECT_FALSE(out.write);
  EXPECT_FALSE(out.force);
  EXPECT_TRUE(out.attach_call_id);
  // An unknown server on the same log is exempt too.
  EXPECT_FALSE(
      DecideOutgoing(o, kP, false, kP, false, kSameLog, nullptr, "uri").force);
  // The receives are unchanged: logged, never forced.
  EXPECT_TRUE(DecideIncoming(o, kP, kP, false).write);
  EXPECT_TRUE(DecideReplyReceived(o, kP, kP, false).write);
}

TEST(LoggingPolicyTest, SameLogWritesTheSameRecords) {
  for (RuntimeOptions o : {Optimized(), Baseline()}) {
    for (ComponentKind client : {kP, kE, kRO}) {
      auto near = DecideReplySend(o, kP, client, false, kSameLog);
      auto far = DecideReplySend(o, kP, client, false, false);
      EXPECT_EQ(near.write, far.write);
      EXPECT_EQ(near.long_form, far.long_form);
      EXPECT_EQ(near.dedupe, far.dedupe);
    }
    for (ComponentKind server : {kP, kF, kRO}) {
      auto near =
          DecideOutgoing(o, kP, true, server, false, kSameLog, nullptr, "u");
      auto far =
          DecideOutgoing(o, kP, true, server, false, false, nullptr, "u");
      EXPECT_EQ(near.write, far.write);
      EXPECT_EQ(near.attach_call_id, far.attach_call_id);
    }
  }
}

TEST(LoggingPolicyTest, BaselineForcesSameLogSends) {
  RuntimeOptions o = Baseline();
  auto rep = DecideReplySend(o, kP, kP, false, kSameLog);
  EXPECT_TRUE(rep.write);
  EXPECT_TRUE(rep.force);
  auto out = DecideOutgoing(o, kP, true, kP, false, kSameLog, nullptr, "uri");
  EXPECT_TRUE(out.write);
  EXPECT_TRUE(out.force);
}

TEST(LoggingPolicyTest, SameLogLeavesExternalAndStatelessRulesAlone) {
  RuntimeOptions o = Optimized();
  // Algorithm 3's short reply to an external client is still forced (an
  // external client has no call ID, so the interceptor never finds it on
  // this log; the table does not rely on that).
  EXPECT_TRUE(DecideReplySend(o, kP, kE, false, kSameLog).force);
  // Sends that force nothing anyway carry no dedupe or ID, so the
  // interceptor's same-log count leaves them out.
  EXPECT_FALSE(DecideReplySend(o, kP, kRO, false, kSameLog).dedupe);
  EXPECT_FALSE(DecideOutgoing(o, kP, true, kF, false, kSameLog, nullptr, "uri")
                   .attach_call_id);
}

TEST(LoggingPolicyTest, SameLogSendIsNotTheMultiCallForce) {
  RuntimeOptions o = Optimized();
  o.multi_call_optimization = true;
  MultiCallTracker tracker;
  auto near =
      DecideOutgoing(o, kP, true, kP, false, kSameLog, &tracker, "uri_a");
  EXPECT_FALSE(near.force);
  EXPECT_FALSE(tracker.forced_once);
  EXPECT_TRUE(tracker.servers_called.empty());
  // The first cross-log call of the execution still forces, the next one
  // to another server does not.
  EXPECT_TRUE(
      DecideOutgoing(o, kP, true, kP, false, false, &tracker, "uri_b").force);
  EXPECT_FALSE(
      DecideOutgoing(o, kP, true, kP, false, false, &tracker, "uri_c").force);
}

TEST(LoggingPolicyTest, SameLogSendClearsTheMultiCallForce) {
  RuntimeOptions o = Optimized();
  o.multi_call_optimization = true;
  MultiCallTracker tracker;
  EXPECT_TRUE(
      DecideOutgoing(o, kP, true, kP, false, false, &tracker, "uri_a").force);
  // The same-log server's reply is unforced, so it is not durable in its
  // last-call table: the next cross-log call must force it.
  EXPECT_FALSE(
      DecideOutgoing(o, kP, true, kP, false, kSameLog, &tracker, "uri_s")
          .force);
  EXPECT_FALSE(tracker.forced_once);
  EXPECT_TRUE(
      DecideOutgoing(o, kP, true, kP, false, false, &tracker, "uri_b").force);
  EXPECT_FALSE(
      DecideOutgoing(o, kP, true, kP, false, false, &tracker, "uri_c").force);
}

}  // namespace
}  // namespace phoenix
