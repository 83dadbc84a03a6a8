#include "core/phoenix.h"

#include "core/retry.h"
#include "recovery/recovery_service.h"

namespace phoenix {

ExternalClient::ExternalClient(Simulation* sim, std::string machine)
    : sim_(sim), machine_(std::move(machine)) {}

Result<Value> ExternalClient::Call(const std::string& uri,
                                   const std::string& method, ArgList args) {
  CallMessage msg;
  msg.target_uri = uri;
  msg.method = method;
  msg.args = std::move(args);
  // No call ID, no sender attachment: that absence is how servers recognize
  // an external caller (§2.3).

  const RuntimeOptions& opts = sim_->options();
  int attempts = opts.external_client_retries ? opts.max_call_retries + 1 : 1;
  RetryBackoff backoff(opts.call_retry);
  Status last = Status::Unavailable("not attempted");
  for (int i = 0; i < attempts; ++i) {
    ++calls_sent_;
    if (i > 0) ++retries_;
    Result<ReplyMessage> reply = sim_->RouteCall(machine_, msg);
    if (reply.ok()) {
      if (!reply->status.ok()) return reply->status;
      return std::move(reply)->value;
    }
    last = std::move(reply).status();
    if (!last.IsUnavailable()) return last;
    if (i + 1 >= attempts) break;  // no retry coming: leave the server down
    double delay = backoff.NextDelayMs(sim_->retry_rng());
    if (delay < 0.0) break;  // retry budget exhausted
    sim_->clock().AdvanceMs(delay);
    Process* target = sim_->ResolveProcess(uri);
    if (target != nullptr) {
      Status restart =
          target->machine()->recovery_service().EnsureProcessAlive(
              target->pid());
      if (!restart.ok()) return restart;
    }
  }
  return last;
}

Result<std::string> ExternalClient::CreateComponent(
    Process& process, const std::string& type_name, const std::string& name,
    ComponentKind kind, ArgList ctor_args) {
  PHX_ASSIGN_OR_RETURN(
      Value uri,
      Call(process.ActivatorUri(), "Create",
           MakeArgs(type_name, name, static_cast<int64_t>(kind),
                    Value::List(std::move(ctor_args)))));
  return uri.AsString();
}

}  // namespace phoenix
