#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_set>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>
#endif

#include "obs/symbolize.h"

#if defined(__x86_64__)
// Linker-provided bounds of the executable's own code (GNU ld, gold, lld).
extern "C" char __executable_start;
extern "C" char etext;
#endif

namespace phonolid::obs {

namespace {

// A platform where both the per-thread CPU timers and the frame-pointer
// unwinder exist.  Elsewhere the probe reports ENOSYS and everything else
// degrades to no-ops.
#if defined(__linux__) && (defined(__x86_64__) || defined(__aarch64__))
#define PHONOLID_PROFILER_SUPPORTED 1
#else
#define PHONOLID_PROFILER_SUPPORTED 0
#endif

constexpr std::size_t kMaxFrames = 30;
constexpr std::size_t kMaxSpanDepth = 8;
constexpr std::size_t kDefaultRingCapacity = 1u << 12;  // samples per thread

/// Fixed-size ring slot written from signal context: raw return addresses
/// (leaf first) plus the open span-name stack (outermost first, pointers to
/// string literals).
struct RawSample {
  std::uint16_t num_frames = 0;
  std::uint16_t span_depth = 0;
  std::uintptr_t frames[kMaxFrames];
  const char* spans[kMaxSpanDepth];
};

/// Per-thread sampling state.  The SIGPROF handler receives the pointer via
/// the timer's sigev_value, so it never touches thread-local storage.  The
/// struct is owned by the (leaked) registry and outlives its thread: a
/// timer signal that was already queued when the timer was deleted finds
/// `armed == false` and backs out without touching the ring.
struct ThreadState {
  // Span-name stack: written by the owning thread (Span enter/exit), read
  // only by that same thread's signal handler.  `depth` may exceed
  // kMaxSpanDepth (deeper names are not recorded but the count stays
  // balanced); release stores keep the slot writes ordered before the
  // depth update at every instruction boundary the handler can observe.
  const char* span_names[kMaxSpanDepth] = {};
  std::atomic<std::uint32_t> span_depth{0};

  // SPSC sample ring: the handler writes, drains read.  head/tail are
  // monotonic; slot publication rides the release store of `head`.
  RawSample* ring = nullptr;
  std::size_t capacity = 0;
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> tail{0};
  std::atomic<std::uint64_t> dropped{0};

  std::uintptr_t stack_lo = 0, stack_hi = 0;  // fp-walk bounds

  std::atomic<bool> armed{false};
  bool timer_valid = false;
#if defined(__linux__)
  timer_t timer{};
  pid_t tid = 0;
#endif
  pthread_t handle{};
  bool dead = false;  // guarded by the registry mutex

  std::mutex drain_mutex;  // serializes ring readers (owner vs snapshot)
};

/// Aggregation key: the exact span-name stack and pc stack of a sample.
/// Span names are string literals, so pointer identity is stable.
using AggKey =
    std::pair<std::vector<const char*>, std::vector<std::uintptr_t>>;

struct Registry {
  std::mutex mutex;                   // thread list + arm/disarm
  std::vector<ThreadState*> threads;  // leaked on purpose (see trace.cpp)
  std::mutex agg_mutex;
  std::map<AggKey, std::uint64_t> agg;
  std::uint64_t retired_dropped = 0;
};

Registry& registry() {
  static Registry* reg = new Registry();
  return *reg;
}

std::atomic<bool> g_enabled{false};
// 0 = unprobed, 1 = available, 2 = unavailable (same scheme as perf.cpp).
std::atomic<int> g_state{0};
std::atomic<int> g_errno{0};
std::atomic<int> g_forced_errno{0};
std::atomic<int> g_hz{kDefaultProfileHz};
std::atomic<std::size_t> g_ring_capacity{kDefaultRingCapacity};
std::mutex g_control_mutex;  // start/stop/probe/test hooks

thread_local ThreadState* tls_state = nullptr;
thread_local bool tls_torn_down = false;

void teardown_thread() noexcept;

struct ThreadExitGuard {
  bool active = false;
  ~ThreadExitGuard() {
    if (active) teardown_thread();
  }
};
thread_local ThreadExitGuard tls_exit_guard;

#if PHONOLID_PROFILER_SUPPORTED

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

/// timer_create with the test-forced failure applied (like perf_open).
int checked_timer_create(clockid_t clock, sigevent* sev,
                         timer_t* out) noexcept {
  if (const int forced = g_forced_errno.load(std::memory_order_relaxed);
      forced != 0) {
    errno = forced;
    return -1;
  }
  return timer_create(clock, sev, out);
}

/// Async-signal-safe frame-pointer walk of the interrupted context.
/// Every dereference is bounds-checked against the thread's stack extent,
/// so a frame-pointer-less or corrupted chain terminates instead of
/// faulting; the leaf pc (frame 0) is always valid regardless.  It reads
/// other frames' stack words by design, so ASan must not instrument it.
__attribute__((no_sanitize("address")))
void unwind_context(const ThreadState* s, void* ucv,
                    RawSample& out) noexcept {
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucv);
#if defined(__x86_64__)
  auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  auto fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  auto sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  auto fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
  auto sp = static_cast<std::uintptr_t>(uc->uc_mcontext.sp);
#endif
  std::uint16_t n = 0;
  out.frames[n++] = pc;
  const std::uintptr_t lo = sp;  // frames live at or above the current sp
  const std::uintptr_t hi =
      s->stack_hi > lo ? s->stack_hi : lo + (1u << 20);
#if defined(__x86_64__)
  // A leaf in a shared library (libm's exp/log internals, libc's memcpy)
  // may run without a frame pointer and keep data in rbp, so the chain
  // below loses its caller and no frame of the sample has a name.  Its
  // small frame sits just above sp, with the return address into this
  // executable at its top: take the first of the next kScanWords words
  // that points into this executable's code.
  constexpr std::uintptr_t kScanWords = 64;
  const auto text_lo = reinterpret_cast<std::uintptr_t>(&__executable_start);
  const auto text_hi = reinterpret_cast<std::uintptr_t>(&etext);
  if ((pc < text_lo || pc >= text_hi) &&
      (sp & (sizeof(std::uintptr_t) - 1)) == 0) {
    const auto* word = reinterpret_cast<const std::uintptr_t*>(sp);
    for (std::uintptr_t i = 0;
         i < kScanWords && sp + (i + 1) * sizeof(std::uintptr_t) <= hi; ++i) {
      if (word[i] >= text_lo && word[i] < text_hi) {
        out.frames[n++] = word[i];
        break;
      }
    }
  }
#endif
  while (n < kMaxFrames) {
    if (fp < lo || fp > hi - 2 * sizeof(std::uintptr_t) ||
        (fp & (sizeof(std::uintptr_t) - 1)) != 0) {
      break;
    }
    const auto* frame = reinterpret_cast<const std::uintptr_t*>(fp);
    const std::uintptr_t next_fp = frame[0];
    const std::uintptr_t ret = frame[1];
    if (ret < 0x1000) break;  // not a plausible code address
    out.frames[n++] = ret;
    if (next_fp <= fp) break;  // stacks grow down; chain must ascend
    fp = next_fp;
  }
  out.num_frames = n;
}

void sigprof_handler(int, siginfo_t* info, void* ucv) {
  const int saved_errno = errno;
  auto* s = static_cast<ThreadState*>(info->si_value.sival_ptr);
  if (s != nullptr && s->armed.load(std::memory_order_acquire) &&
      g_enabled.load(std::memory_order_relaxed)) {
    const std::uint64_t h = s->head.load(std::memory_order_relaxed);
    const std::uint64_t t = s->tail.load(std::memory_order_acquire);
    if (h - t >= s->capacity) {
      s->dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      RawSample& slot = s->ring[h % s->capacity];
      unwind_context(s, ucv, slot);
      std::uint32_t depth = s->span_depth.load(std::memory_order_relaxed);
      if (depth > kMaxSpanDepth) depth = kMaxSpanDepth;
      for (std::uint32_t i = 0; i < depth; ++i) {
        slot.spans[i] = s->span_names[i];
      }
      slot.span_depth = static_cast<std::uint16_t>(depth);
      s->head.store(h + 1, std::memory_order_release);
    }
  }
  errno = saved_errno;
}

/// Install the SIGPROF handler and verify a per-thread CPU timer can be
/// created.  Caller holds g_control_mutex.
bool probe_locked() noexcept {
  struct sigaction sa {};
  sa.sa_sigaction = sigprof_handler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    g_errno.store(errno, std::memory_order_relaxed);
    return false;
  }
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = static_cast<pid_t>(syscall(SYS_gettid));
  sev.sigev_value.sival_ptr = nullptr;  // handler ignores null states
  timer_t probe{};
  if (checked_timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &probe) != 0) {
    g_errno.store(errno, std::memory_order_relaxed);
    return false;
  }
  timer_delete(probe);
  g_errno.store(0, std::memory_order_relaxed);
  return true;
}

/// Arm one registered thread: allocate its ring, create a timer on that
/// thread's CPU clock delivering SIGPROF to that thread.  Caller holds the
/// registry mutex.
void arm_locked(ThreadState* s) noexcept {
  if (s->dead || s->timer_valid) return;
  if (s->ring == nullptr) {
    const std::size_t cap = g_ring_capacity.load(std::memory_order_relaxed);
    s->ring = new (std::nothrow) RawSample[cap];
    if (s->ring == nullptr) return;
    s->capacity = cap;
  }
  clockid_t clock{};
  if (pthread_getcpuclockid(s->handle, &clock) != 0) return;
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = s->tid;
  sev.sigev_value.sival_ptr = s;
  if (checked_timer_create(clock, &sev, &s->timer) != 0) return;
  s->timer_valid = true;
  s->armed.store(true, std::memory_order_release);
  const long ns =
      std::max(1L, 1000000000L / g_hz.load(std::memory_order_relaxed));
  itimerspec its{};
  its.it_value.tv_sec = ns / 1000000000L;
  its.it_value.tv_nsec = ns % 1000000000L;
  its.it_interval = its.it_value;
  timer_settime(s->timer, 0, &its, nullptr);
}

/// Disarm one thread's timer; retained samples stay in the ring.  Caller
/// holds the registry mutex.  `armed` is cleared before timer_delete so a
/// signal that was already queued backs out instead of writing.
void disarm_locked(ThreadState* s) noexcept {
  if (!s->timer_valid) return;
  s->armed.store(false, std::memory_order_release);
  timer_delete(s->timer);
  s->timer_valid = false;
}

#else  // !PHONOLID_PROFILER_SUPPORTED

bool probe_locked() noexcept {
  g_errno.store(ENOSYS, std::memory_order_relaxed);
  return false;
}
void arm_locked(ThreadState*) noexcept {}
void disarm_locked(ThreadState*) noexcept {}

#endif  // PHONOLID_PROFILER_SUPPORTED

/// Move every retained sample of `s` into the central aggregation map.
/// Takes the drain mutex (owner-thread drains race with snapshot) but not
/// the registry mutex — callers differ.
void drain_state(ThreadState* s) {
  if (s->ring == nullptr) return;
  std::lock_guard drain_lock(s->drain_mutex);
  const std::uint64_t h = s->head.load(std::memory_order_acquire);
  std::uint64_t t = s->tail.load(std::memory_order_relaxed);
  if (t == h) return;
  Registry& reg = registry();
  std::lock_guard agg_lock(reg.agg_mutex);
  for (; t != h; ++t) {
    const RawSample& raw = s->ring[t % s->capacity];
    AggKey key;
    key.first.assign(raw.spans, raw.spans + raw.span_depth);
    key.second.assign(raw.frames, raw.frames + raw.num_frames);
    ++reg.agg[std::move(key)];
  }
  s->tail.store(t, std::memory_order_release);
}

void teardown_thread() noexcept {
  ThreadState* s = tls_state;
  tls_state = nullptr;
  tls_torn_down = true;
  if (s == nullptr) return;
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  disarm_locked(s);
  try {
    drain_state(s);
  } catch (...) {
  }
  reg.retired_dropped += s->dropped.load(std::memory_order_relaxed);
  s->dropped.store(0, std::memory_order_relaxed);
  // The ring can go (no signal can reach it past the armed=false store on
  // this same thread); the state struct stays for the registry.
  delete[] s->ring;
  s->ring = nullptr;
  s->capacity = 0;
  s->dead = true;
}

int resolve_hz(int hz) noexcept {
  if (hz <= 0) {
    if (const char* env = std::getenv("PHONOLID_PROFILE_HZ")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) hz = static_cast<int>(v);
    }
  }
  if (hz <= 0) hz = kDefaultProfileHz;
  return std::min(hz, 10000);
}

}  // namespace

void Profiler::register_thread() noexcept {
  if (tls_state != nullptr || tls_torn_down) return;
  auto* s = new (std::nothrow) ThreadState();
  if (s == nullptr) return;
  s->handle = pthread_self();
#if defined(__linux__)
  s->tid = static_cast<pid_t>(syscall(SYS_gettid));
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      s->stack_lo = reinterpret_cast<std::uintptr_t>(addr);
      s->stack_hi = s->stack_lo + size;
    }
    pthread_attr_destroy(&attr);
  }
#endif
  Registry& reg = registry();
  {
    std::lock_guard lock(reg.mutex);
    reg.threads.push_back(s);
    tls_state = s;
    if (g_enabled.load(std::memory_order_relaxed)) arm_locked(s);
  }
  tls_exit_guard.active = true;
}

namespace {

/// Span names reach us as `const char*` with no lifetime guarantee —
/// pipeline stages pass `std::string::c_str()` of strings that die before
/// the rings drain (see pipeline/stage_runner.cpp).  Ring slots and the
/// aggregation map hold these pointers until flush, so every name is
/// interned once into a leaked pool; node-based unordered_set keeps c_str()
/// stable across rehashes.
const char* intern_span_name(const char* name) noexcept {
  static std::mutex* mutex = new std::mutex();
  static std::unordered_set<std::string>* pool =
      new std::unordered_set<std::string>();
  try {
    std::lock_guard lock(*mutex);
    return pool->emplace(name).first->c_str();
  } catch (...) {
    return "(intern-failed)";
  }
}

}  // namespace

void Profiler::on_span_enter(const char* name) noexcept {
  ThreadState* s = tls_state;
  if (s == nullptr) {
    if (tls_torn_down) return;
    register_thread();
    s = tls_state;
    if (s == nullptr) return;
  }
  const std::uint32_t depth = s->span_depth.load(std::memory_order_relaxed);
  if (depth < kMaxSpanDepth) s->span_names[depth] = intern_span_name(name);
  s->span_depth.store(depth + 1, std::memory_order_release);
  // Opportunistic drain keeps ring memory bounded on long runs without any
  // background thread; only pays the locks when a backlog actually built.
  if (s->armed.load(std::memory_order_relaxed) &&
      s->head.load(std::memory_order_relaxed) -
              s->tail.load(std::memory_order_relaxed) >=
          s->capacity / 2) {
    try {
      drain_state(s);
    } catch (...) {
    }
  }
}

void Profiler::on_span_exit() noexcept {
  ThreadState* s = tls_state;
  if (s == nullptr) return;
  const std::uint32_t depth = s->span_depth.load(std::memory_order_relaxed);
  if (depth > 0) s->span_depth.store(depth - 1, std::memory_order_release);
}

bool Profiler::start(int hz) {
  std::lock_guard control(g_control_mutex);
  if (g_state.load(std::memory_order_acquire) == 0) {
    g_state.store(probe_locked() ? 1 : 2, std::memory_order_release);
  }
  if (g_state.load(std::memory_order_acquire) != 1) return false;
  g_hz.store(resolve_hz(hz), std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_release);
  register_thread();
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  for (ThreadState* s : reg.threads) arm_locked(s);
  return true;
}

void Profiler::stop() noexcept {
  std::lock_guard control(g_control_mutex);
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  g_enabled.store(false, std::memory_order_release);
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  for (ThreadState* s : reg.threads) disarm_locked(s);
}

bool Profiler::enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

bool Profiler::available() noexcept {
  return g_state.load(std::memory_order_acquire) == 1;
}

int Profiler::unavailable_errno() noexcept {
  return g_errno.load(std::memory_order_relaxed);
}

int Profiler::rate_hz() noexcept {
  return g_hz.load(std::memory_order_relaxed);
}

void Profiler::init_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* mode = std::getenv("PHONOLID_PROFILE");
    if (mode == nullptr || *mode == '\0' || std::strcmp(mode, "off") == 0) {
      return;
    }
    if (std::strcmp(mode, "cpu") != 0) {
      std::fprintf(stderr,
                   "phonolid: unknown PHONOLID_PROFILE '%s' (off|cpu); "
                   "profiling disabled\n",
                   mode);
      return;
    }
    if (!start(0)) {
      std::fprintf(stderr,
                   "phonolid: CPU profiler unavailable (%s); continuing "
                   "unprofiled\n",
                   std::strerror(unavailable_errno()));
    }
  });
}

ProfileData Profiler::snapshot() {
  ProfileData data;
  data.available = available();
  data.error = unavailable_errno();
  data.hz = rate_hz();

  Registry& reg = registry();
  std::uint64_t dropped = 0;
  {
    std::lock_guard lock(reg.mutex);
    for (ThreadState* s : reg.threads) {
      if (!s->dead) drain_state(s);
      dropped += s->dropped.load(std::memory_order_relaxed);
    }
    std::lock_guard agg_lock(reg.agg_mutex);
    dropped += reg.retired_dropped;
    data.dropped = dropped;

    Symbolizer symbolizer;
    // Re-aggregate by symbolized name stacks: distinct pcs inside one
    // function collapse onto one folded stack.
    std::map<std::pair<std::string, std::vector<std::string>>, std::uint64_t>
        folded;
    std::map<std::string, ProfileFunction> functions;
    std::map<std::string, std::uint64_t> spans;
    for (const auto& [key, count] : reg.agg) {
      data.samples += count;
      std::string span_path;
      for (const char* name : key.first) {
        if (!span_path.empty()) span_path.push_back('/');
        span_path.append(name);
      }
      spans[span_path] += count;

      std::vector<std::string> names;    // root-first
      std::vector<bool> symbolized;      // parallel to names
      names.reserve(key.second.size());
      symbolized.reserve(key.second.size());
      for (auto it = key.second.rbegin(); it != key.second.rend(); ++it) {
        const Symbol& sym = symbolizer.lookup(*it);
        data.total_frames += count;
        if (sym.symbolized) data.symbolized_frames += count;
        names.push_back(sym.name);
        symbolized.push_back(sym.symbolized);
      }
      // Function rollup: self time is charged to the innermost symbolized
      // frame (stripped-library internals like "libm.so.6+0x..." roll up
      // to their nearest named caller); every distinct name on the stack
      // accrues total time once (recursion counted once).
      if (!names.empty()) {
        std::size_t self_idx = names.size() - 1;
        while (self_idx > 0 && !symbolized[self_idx]) --self_idx;
        if (symbolized[self_idx]) data.attributed += count;
        ProfileFunction& leaf = functions[names[self_idx]];
        leaf.name = names[self_idx];
        leaf.self += count;
        std::vector<const std::string*> unique;
        for (const std::string& n : names) unique.push_back(&n);
        std::sort(unique.begin(), unique.end(),
                  [](const std::string* a, const std::string* b) {
                    return *a < *b;
                  });
        unique.erase(std::unique(unique.begin(), unique.end(),
                                 [](const std::string* a,
                                    const std::string* b) { return *a == *b; }),
                     unique.end());
        for (const std::string* n : unique) {
          ProfileFunction& fn = functions[*n];
          fn.name = *n;
          fn.total += count;
        }
      }
      folded[{std::move(span_path), std::move(names)}] += count;
    }
    for (auto& [key, count] : folded) {
      ProfileStack stack;
      stack.span_path = key.first;
      stack.frames = key.second;
      stack.count = count;
      data.stacks.push_back(std::move(stack));
    }
    for (auto& [name, fn] : functions) data.functions.push_back(fn);
    for (auto& [path, count] : spans) {
      data.spans.push_back(ProfileSpan{path, count});
    }
  }
  std::stable_sort(data.stacks.begin(), data.stacks.end(),
                   [](const ProfileStack& a, const ProfileStack& b) {
                     return a.count > b.count;
                   });
  std::stable_sort(data.functions.begin(), data.functions.end(),
                   [](const ProfileFunction& a, const ProfileFunction& b) {
                     return a.self != b.self ? a.self > b.self
                                             : a.total > b.total;
                   });
  std::stable_sort(data.spans.begin(), data.spans.end(),
                   [](const ProfileSpan& a, const ProfileSpan& b) {
                     return a.samples > b.samples;
                   });
  return data;
}

Json Profiler::profile_json() {
  Json profile = Json::object();
  const int state = g_state.load(std::memory_order_acquire);
  if (state == 0) {
    // Never started: PHONOLID_PROFILE was off for this process.
    profile["source"] = Json("off");
    profile["available"] = Json(false);
    profile["unavailable_reason"] = Json("disabled");
    return profile;
  }
  profile["source"] = Json("cpu");
  if (state != 1) {
    const int err = unavailable_errno();
    profile["available"] = Json(false);
    profile["unavailable_errno"] = Json(err);
    profile["unavailable_reason"] =
        Json(err != 0 ? std::strerror(err) : "unavailable");
    return profile;
  }
  const ProfileData data = snapshot();
  profile["available"] = Json(true);
  profile["hz"] = Json(data.hz);
  profile["samples"] = Json(data.samples);
  profile["dropped"] = Json(data.dropped);
  profile["total_frames"] = Json(data.total_frames);
  profile["symbolized_frames"] = Json(data.symbolized_frames);
  profile["symbolized_share"] =
      Json(data.total_frames == 0
               ? 0.0
               : static_cast<double>(data.symbolized_frames) /
                     static_cast<double>(data.total_frames));
  profile["attributed_share"] =
      Json(data.samples == 0 ? 0.0
                             : static_cast<double>(data.attributed) /
                                   static_cast<double>(data.samples));
  const double total = static_cast<double>(std::max<std::uint64_t>(
      data.samples, 1));
  constexpr std::size_t kTopFunctions = 20;
  Json functions = Json::array();
  for (std::size_t i = 0;
       i < std::min(kTopFunctions, data.functions.size()); ++i) {
    const ProfileFunction& fn = data.functions[i];
    Json entry = Json::object();
    entry["name"] = Json(fn.name);
    entry["self"] = Json(fn.self);
    entry["total"] = Json(fn.total);
    entry["self_share"] = Json(static_cast<double>(fn.self) / total);
    entry["total_share"] = Json(static_cast<double>(fn.total) / total);
    functions.push_back(std::move(entry));
  }
  profile["functions"] = std::move(functions);
  Json spans = Json::array();
  for (const ProfileSpan& span : data.spans) {
    Json entry = Json::object();
    entry["path"] = Json(span.path.empty() ? "(no span)" : span.path);
    entry["samples"] = Json(span.samples);
    entry["share"] = Json(static_cast<double>(span.samples) / total);
    spans.push_back(std::move(entry));
  }
  profile["spans"] = std::move(spans);
  return profile;
}

void Profiler::reset() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  for (ThreadState* s : reg.threads) {
    std::lock_guard drain_lock(s->drain_mutex);
    s->tail.store(s->head.load(std::memory_order_acquire),
                  std::memory_order_release);
    s->dropped.store(0, std::memory_order_relaxed);
  }
  std::lock_guard agg_lock(reg.agg_mutex);
  reg.agg.clear();
  reg.retired_dropped = 0;
}

void Profiler::force_timer_error_for_test(int err) {
  stop();
  std::lock_guard control(g_control_mutex);
  g_forced_errno.store(err, std::memory_order_relaxed);
  g_errno.store(0, std::memory_order_relaxed);
  g_state.store(0, std::memory_order_release);  // re-probe on next start
}

void Profiler::set_ring_capacity_for_test(std::size_t samples) {
  g_ring_capacity.store(samples != 0 ? samples : kDefaultRingCapacity,
                        std::memory_order_relaxed);
}

}  // namespace phonolid::obs
