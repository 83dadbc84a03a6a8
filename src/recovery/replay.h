#ifndef PHOENIX_RECOVERY_REPLAY_H_
#define PHOENIX_RECOVERY_REPLAY_H_

#include <cstdint>
#include <map>

#include "runtime/context.h"
#include "runtime/message.h"
#include "wal/log_record.h"

namespace phoenix {

// One buffered unit of replay for a context (§4.4): either its creation
// call or one incoming method call, plus the logged replies of the outgoing
// calls it made. The replay planner builds these (recovery/replay_plan.h);
// a unit is complete once the context's next incoming record is on the
// log, and a context's last unit — its final — replays in the replay
// engine's final phase (parallel_replay.h).
struct PendingReplay {
  bool is_creation = false;
  uint64_t start_lsn = 0;
  // Global replay order of the unit's first record: equal to start_lsn on a
  // single log, the frame's global sequence number on a sharded WAL (where
  // composite LSNs of different shards are not comparable). Every ordering
  // decision — plan topological order, the replay engine's ready queue and
  // its final phase — keys on this, never on start_lsn.
  uint64_t order = 0;
  IncomingCallRecord incoming;  // valid when !is_creation
  CreationRecord creation;      // valid when is_creation
  ReplayFeed feed;
};

// Rebuilds the CallMessage a logged incoming call was delivered as.
CallMessage MessageFromRecord(const IncomingCallRecord& record,
                              const std::string& target_uri);

}  // namespace phoenix

#endif  // PHOENIX_RECOVERY_REPLAY_H_
