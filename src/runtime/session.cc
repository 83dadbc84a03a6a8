#include "runtime/session.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/macros.h"
#include "common/strings.h"

#if defined(__SANITIZE_ADDRESS__)
#define PHX_SESSION_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PHX_SESSION_ASAN 1
#endif
#endif

#ifdef PHX_SESSION_ASAN
#include <dlfcn.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace phoenix {
namespace {

// A session's usable stack, as large as a new thread's default stack. It
// is reserved, not committed, so a chain costs only the pages it touches.
constexpr size_t kStackBytes = size_t{8} << 20;

// ASan follows one stack per thread unless every switch names the stack
// that comes next (StartSwitch) and, once there, learns the one it left
// (FinishSwitch). A null `fake_stack` in StartSwitch marks the last switch
// off a stack. Without ASan these do nothing.
#ifdef PHX_SESSION_ASAN
void StartSwitch(void** fake_stack, const void* bottom, size_t size) {
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
}
void FinishSwitch(void* fake_stack, const void** bottom, size_t* size) {
  __sanitizer_finish_switch_fiber(fake_stack, bottom, size);
}
// ASan's swapcontext interceptor warns, once per process, that it cannot
// follow ucontext stacks by itself, and wipes the shadow of the stack it
// switches to. The annotations above already tell it about every stack,
// so switch with glibc's own swapcontext.
int SwapContext(ucontext_t* from, const ucontext_t* to) {
  using Fn = int (*)(ucontext_t*, const ucontext_t*);
  static const Fn libc_swapcontext = reinterpret_cast<Fn>(
      dlsym(dlopen("libc.so.6", RTLD_NOW | RTLD_NOLOAD), "swapcontext"));
  PHX_CHECK(libc_swapcontext != nullptr);
  return libc_swapcontext(from, to);
}
#else
void StartSwitch(void**, const void*, size_t) {}
void FinishSwitch(void*, const void**, size_t*) {}
int SwapContext(ucontext_t* from, const ucontext_t* to) {
  return swapcontext(from, to);
}
#endif

}  // namespace

SessionScheduler::SessionScheduler(uint64_t seed)
    : rng_(seed), page_bytes_(static_cast<size_t>(sysconf(_SC_PAGESIZE))) {}

SessionScheduler::~SessionScheduler() {
  // Run() releases everything; nothing to do unless Run was never called.
  PHX_CHECK(sessions_.empty());
}

bool SessionScheduler::ParkSatisfied(const Session& s) {
  if (s.wait_pipeline != nullptr) {
    return s.wait_pipeline->durable_lsn() >= s.wait_lsn ||
           s.wait_pipeline->abort_epoch() != s.wait_epoch;
  }
  PHX_CHECK(s.ready_pred != nullptr);
  return s.ready_pred();
}

bool SessionScheduler::TryGroupFlush() {
  // Group parked durability waiters by pipeline, in session-index order so
  // ties resolve deterministically.
  std::vector<std::pair<CommitPipeline*, size_t>> groups;
  for (const auto& up : sessions_) {
    const Session& s = *up;
    if (s.state != Session::State::kParked || s.wait_pipeline == nullptr) {
      continue;
    }
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == s.wait_pipeline; });
    if (it == groups.end()) {
      groups.emplace_back(s.wait_pipeline, 1);
    } else {
      ++it->second;
    }
  }
  if (groups.empty()) return false;
  auto best = groups.begin();
  for (auto it = groups.begin(); it != groups.end(); ++it) {
    // Most parked waiters wins; equal counts prefer the lower shard id
    // (sharded WALs have N pipelines per process, so "most parked" alone
    // is ambiguous). Remaining ties keep the first-encountered group,
    // i.e. session-index order — which is also the complete rule when
    // every pipeline is shard 0 (the single-log layout).
    if (it->second > best->second ||
        (it->second == best->second &&
         it->first->shard_id() < best->first->shard_id())) {
      best = it;
    }
  }
  best->first->GroupFlush(best->second);
  return true;
}

void SessionScheduler::SessionMain(uint32_t self_hi, uint32_t self_lo) {
  auto* self = reinterpret_cast<SessionScheduler*>(
      (static_cast<uintptr_t>(self_hi) << 32) | self_lo);
  Session* s = self->current_;
  FinishSwitch(nullptr, &self->scheduler_stack_bottom_,
               &self->scheduler_stack_size_);
  s->body();
  s->state = Session::State::kDone;
  // The last switch off this stack; nothing resumes it.
  StartSwitch(nullptr, self->scheduler_stack_bottom_,
              self->scheduler_stack_size_);
  SwapContext(&s->context, &self->scheduler_context_);
}

void SessionScheduler::Resume(Session* s) {
  s->state = Session::State::kRunning;
  s->wait_pipeline = nullptr;
  s->ready_pred = nullptr;
  current_ = s;
  void* fake_stack = nullptr;
  StartSwitch(&fake_stack, s->stack, kStackBytes);
  PHX_CHECK(SwapContext(&scheduler_context_, &s->context) == 0);
  FinishSwitch(fake_stack, nullptr, nullptr);
  current_ = nullptr;
}

void SessionScheduler::Park(Session* s) {
  s->state = Session::State::kParked;
  void* fake_stack = nullptr;
  StartSwitch(&fake_stack, scheduler_stack_bottom_, scheduler_stack_size_);
  PHX_CHECK(SwapContext(&s->context, &scheduler_context_) == 0);
  FinishSwitch(fake_stack, &scheduler_stack_bottom_, &scheduler_stack_size_);
}

std::string SessionScheduler::DeadlockReport() const {
  static const char* const kStateNames[] = {"ready", "running", "parked",
                                            "done"};
  std::string report;
  for (const auto& up : sessions_) {
    const Session& s = *up;
    report += StrCat("  session ", s.index, ": ",
                     kStateNames[static_cast<int>(s.state)]);
    if (s.state == Session::State::kParked) {
      report += s.wait_pipeline != nullptr
                    ? StrCat(" on shard ", s.wait_pipeline->shard_id(),
                             " until lsn ", s.wait_lsn)
                    : std::string(" on predicate");
    }
    report += "\n";
  }
  return report;
}

void SessionScheduler::Run(std::vector<std::function<void()>> bodies) {
  PHX_CHECK(current_ == nullptr && "Run called from inside a session");
  PHX_CHECK(sessions_.empty());
  if (bodies.empty()) return;
  sessions_.reserve(bodies.size());
  auto self = reinterpret_cast<uintptr_t>(this);
  for (size_t i = 0; i < bodies.size(); ++i) {
    auto s = std::make_unique<Session>();
    s->index = static_cast<int>(i);
    s->body = std::move(bodies[i]);
    void* map = mmap(nullptr, page_bytes_ + kStackBytes,
                     PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    PHX_CHECK(map != MAP_FAILED && "cannot map a session stack");
    // The guard page: an overflow faults instead of running into the
    // next mapping.
    PHX_CHECK(mprotect(map, page_bytes_, PROT_NONE) == 0);
    s->stack = static_cast<char*>(map) + page_bytes_;
    PHX_CHECK(getcontext(&s->context) == 0);
    s->context.uc_stack.ss_sp = s->stack;
    s->context.uc_stack.ss_size = kStackBytes;
    s->context.uc_link = nullptr;
    makecontext(&s->context, reinterpret_cast<void (*)()>(&SessionMain), 2,
                static_cast<uint32_t>(self >> 32),
                static_cast<uint32_t>(self));
    sessions_.push_back(std::move(s));
  }

  while (true) {
    std::vector<Session*> ready;
    size_t done = 0;
    for (auto& up : sessions_) {
      Session* s = up.get();
      switch (s->state) {
        case Session::State::kDone:
          ++done;
          break;
        case Session::State::kReady:
          ready.push_back(s);
          break;
        case Session::State::kParked:
          if (ParkSatisfied(*s)) ready.push_back(s);
          break;
        case Session::State::kRunning:
          PHX_CHECK(false && "scheduler saw a running session");
      }
    }
    if (done == sessions_.size()) break;
    if (ready.empty()) {
      // Everyone is stalled. If any chain is stalled on durability this
      // is the group-commit harvest point; otherwise the workload
      // deadlocked (e.g. two sessions parked on each other's contexts).
      if (!TryGroupFlush()) {
        std::fprintf(stderr,
                     "session deadlock: no session is runnable and none "
                     "waits on durability\n%s",
                     DeadlockReport().c_str());
        std::abort();
      }
      continue;
    }
    // Max-wait policy: a pipeline whose oldest parked waiter has sat past
    // its bound is flushed now, even though runnable sessions remain —
    // bounding the latency a chain trades for a bigger batch. First
    // overdue waiter in session-index order picks the pipeline, so ties
    // resolve deterministically.
    CommitPipeline* overdue = nullptr;
    for (auto& up : sessions_) {
      Session* s = up.get();
      if (s->state != Session::State::kParked ||
          s->wait_pipeline == nullptr || ParkSatisfied(*s)) {
        continue;
      }
      double bound = s->wait_pipeline->group_commit_max_wait_ms();
      if (bound > 0.0 &&
          s->wait_pipeline->NowMs() - s->wait_since_ms >= bound) {
        overdue = s->wait_pipeline;
        break;
      }
    }
    if (overdue != nullptr) {
      size_t batch = 0;
      for (auto& up : sessions_) {
        Session* s = up.get();
        if (s->state == Session::State::kParked &&
            s->wait_pipeline == overdue && !ParkSatisfied(*s)) {
          ++batch;
        }
      }
      overdue->GroupFlush(batch);
      continue;
    }
    Resume(ready.size() == 1
               ? ready.front()
               : ready[static_cast<size_t>(rng_.Uniform(ready.size()))]);
  }

  for (auto& s : sessions_) {
    PHX_CHECK(munmap(s->stack - page_bytes_, page_bytes_ + kStackBytes) == 0);
  }
  sessions_.clear();
}

bool SessionScheduler::ParkUntilDurable(CommitPipeline* pipeline,
                                        uint64_t lsn) {
  Session* s = current_;
  if (s == nullptr) return false;
  s->wait_pipeline = pipeline;
  s->wait_lsn = lsn;
  s->wait_epoch = pipeline->abort_epoch();
  s->wait_since_ms = pipeline->NowMs();
  Park(s);
  return true;
}

size_t SessionScheduler::ParkedWaiters(const CommitPipeline* pipeline) const {
  size_t n = 0;
  for (const auto& up : sessions_) {
    const Session& s = *up;
    if (s.state == Session::State::kParked && s.wait_pipeline == pipeline) {
      ++n;
    }
  }
  return n;
}

bool SessionScheduler::ParkUntil(std::function<bool()> ready) {
  Session* s = current_;
  if (s == nullptr) return false;
  s->ready_pred = std::move(ready);
  Park(s);
  return true;
}

int SessionScheduler::current_session() const {
  return current_ != nullptr ? current_->index : -1;
}

std::vector<Context*>* SessionScheduler::current_context_stack() {
  return current_ != nullptr ? &current_->context_stack : nullptr;
}

std::vector<obs::SpanLink>* SessionScheduler::current_trace_stack() {
  return current_ != nullptr ? &current_->trace_stack : nullptr;
}

}  // namespace phoenix
