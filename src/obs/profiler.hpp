// In-process sampling CPU profiler with engine-stage attribution.
//
// Sampling model
//   Every registered thread gets a POSIX per-thread CPU-time timer
//   (timer_create on the Linux thread CPU clock, SIGEV_THREAD_ID) that
//   delivers SIGPROF to that thread at the session frequency. The
//   handler runs *on the sampled thread*, so it can read the TLS stage
//   marker and walk its own stack with backtrace(3); it writes the
//   program counters into the thread's preallocated seqlock sample ring
//   (same write discipline as obs/flight's event rings) and touches
//   nothing else — no allocation, no locks, errno saved and restored.
//   backtrace() is warmed up once at construction so its lazy libgcc
//   initialisation (which may allocate) happens outside any handler.
//
// Stage attribution
//   The engine brackets each round stage (embed / predict / match /
//   attribute / dispatch) with a StageScope alongside its existing
//   ScopedSpan; the scope is a plain thread_local store, so profiles
//   decompose along the same axis as mfcp_engine_stage_seconds. While a
//   session is active the scope transitions additionally accumulate
//   exact per-stage thread-CPU nanoseconds, which the folded output
//   renders as `[stage_totals];<stage> <n>` anchor lines (n in
//   sample-equivalents at the session frequency, floored at 1) — so
//   every stage is visible even when it is too fast for the sampling
//   frequency to catch. When no session is active a StageScope is two
//   TLS stores and one relaxed load: cheap enough to leave compiled in.
//
// Determinism
//   The profiler is write-only telemetry: nothing in the engine reads
//   it back, so the round journal stays byte-identical with the
//   profiler armed (CI runs the engine with --profile and cmp's the
//   journal against the ratekeeper baseline).
//
// Output
//   Collapsed-stack ("folded") text, one `frame;frame;... count` line
//   per distinct stack, directly consumable by flamegraph.pl /
//   inferno / speedscope. Symbolization (dladdr) happens at drain
//   time, off every hot path. Exposed via GET /debug/profile on the
//   gateway and metrics exporter, `exp_online_engine --profile`, and
//   validated by `tools/obs_selfcheck --profile`.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/seqlock_ring.hpp"

namespace mfcp::obs {

/// Engine round stages, in round order. kNone marks code outside any
/// stage (queue pumping, HTTP work, pool idle). Part of the folded
/// output vocabulary — append only.
enum class EngineStage : std::uint8_t {
  kNone = 0,
  kEmbed = 1,
  kPredict = 2,
  kMatch = 3,
  kAttribute = 4,
  kDispatch = 5,
};
inline constexpr std::size_t kEngineStageCount = 6;

/// Stable lower-snake name ("embed", ...); "none" for kNone.
[[nodiscard]] std::string_view to_string(EngineStage stage) noexcept;

/// The calling thread's current stage (TLS; what SIGPROF samples read).
[[nodiscard]] EngineStage current_stage() noexcept;

/// RAII stage marker. Nests: restores the enclosing stage on exit, so a
/// helper that runs inside the match stage keeps the match tag unless
/// it scopes its own. Safe (and nearly free) when no profiler exists.
class StageScope {
 public:
  explicit StageScope(EngineStage stage) noexcept;
  ~StageScope();

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  /// Restores the enclosing stage early (mirrors ScopedSpan::stop(), so
  /// the engine's linear stage sequence needs no nested blocks).
  /// Idempotent; the destructor is then a no-op.
  void close() noexcept;

 private:
  EngineStage previous_;
  bool closed_ = false;
};

/// One decoded stack sample.
struct ProfileSample {
  std::uint64_t seq = 0;       // per-thread, 1-based
  std::uint16_t thread = 0;    // profiler thread ordinal
  EngineStage stage = EngineStage::kNone;
  std::vector<const void*> pcs;  // innermost first (backtrace order)
};

/// Frames retained per sample (deep enough for the engine's call
/// chains; deeper stacks are truncated at the outermost end).
inline constexpr std::size_t kMaxSampleFrames = 30;

/// Single-writer ring of sample slots (public for tests; production
/// samples arrive through SamplingProfiler's signal handler): the sample
/// encoding on a SeqlockRing of 32-word slots — seq, packed
/// depth/stage/thread, then up to kMaxSampleFrames program counters. The
/// write side is atomic stores only, so it is safe inside the SIGPROF
/// handler.
class SampleRing : private SeqlockRing<2 + kMaxSampleFrames> {
 public:
  explicit SampleRing(std::size_t capacity) : SeqlockRing(capacity) {}

  /// Records one stack (async-signal-safe: atomics only). `depth` is
  /// clamped to kMaxSampleFrames. Must only ever be called from one
  /// thread at a time (the owning thread's signal handler).
  void record(EngineStage stage, std::uint16_t thread,
              const void* const* pcs, std::size_t depth) noexcept;

  /// Copies out the currently-valid window, oldest first, skipping
  /// slots the writer is overwriting mid-copy (seqlock recheck).
  [[nodiscard]] std::vector<ProfileSample> snapshot() const;

  /// Samples ever written (== newest live sequence number).
  using SeqlockRing::head;
  using SeqlockRing::capacity;
  /// Empties the ring. Only call while no writer can be sampling into
  /// it (i.e. between sessions).
  using SeqlockRing::reset;
};

struct ProfilerConfig {
  /// Samples retained per thread (rounded up to a power of two). 4096
  /// covers a 30 s session at ~130 Hz before the ring wraps.
  std::size_t ring_capacity = 4096;
  /// Threads that can register as sampling targets; later threads are
  /// counted into dropped_registrations() instead of aliasing a ring.
  std::size_t max_threads = 16;
};

/// Parsed ?seconds=&hz= query of the GET /debug/profile route.
struct ProfileQuery {
  double seconds = 2.0;  // (0, 30]
  double hz = 97.0;      // [1, 1000]; prime default avoids beat patterns
  bool valid = true;     // false on malformed/unknown parameters
};

/// Parses the query-string suffix of the debug-route path
/// ("/debug/profile" or "/debug/profile?seconds=2&hz=97"). Unknown
/// keys, non-numeric values, and out-of-range values flip `valid` so
/// the route can answer 400.
[[nodiscard]] ProfileQuery parse_profile_query(std::string_view path);

/// One registered sampling target (defined in profiler.cpp; namespace
/// scope so the SIGPROF handler, a free function, can dereference it).
struct ProfilerThreadEntry;

/// On-demand sampling profiler. Construction preallocates every sample
/// ring, installs the SIGPROF handler, and warms up backtrace(3);
/// arming it is otherwise free until a session starts. Threads opt in
/// via register_current_thread(); sessions (start/stop or the blocking
/// collect_folded()) create one CPU-time timer per registered thread.
/// One session at a time: concurrent starts are refused, which the
/// HTTP route surfaces as 409.
class SamplingProfiler {
 public:
  explicit SamplingProfiler(ProfilerConfig config = {});
  ~SamplingProfiler();

  SamplingProfiler(const SamplingProfiler&) = delete;
  SamplingProfiler& operator=(const SamplingProfiler&) = delete;

  /// Registers the calling thread as a sampling target under `name`
  /// (one folded-output root frame per thread). Idempotent per thread;
  /// re-registration under a new name keeps the original ring. Returns
  /// false (and counts a drop) past max_threads.
  bool register_current_thread(std::string_view name);

  /// Detaches the calling thread: a running or future session stops
  /// sampling it. Its already-recorded samples stay drainable. Call
  /// before thread exit so sessions never target a dead thread id.
  void unregister_current_thread();

  /// Starts a sampling session at `hz` samples per CPU-second per
  /// thread. Returns false when a session is already active or `hz` is
  /// out of (0, 1000]. Resets rings and stage totals.
  bool start(double hz);

  /// Stops the active session (deletes timers, freezes stage totals).
  /// No-op when idle.
  void stop();

  [[nodiscard]] bool session_active() const noexcept;

  /// Blocking convenience used by the HTTP route and the bench flag:
  /// start(hz), sleep `seconds` of wall time, stop(), return folded().
  /// nullopt when another session already holds the profiler.
  [[nodiscard]] std::optional<std::string> collect_folded(double seconds,
                                                          double hz);

  /// Drains every ring, symbolizes (dladdr), and renders collapsed
  /// stacks: `<thread>;stage:<stage>;<outer>;...;<inner> <count>`
  /// lines plus the five exact `[stage_totals];<stage> <n>` anchor
  /// lines (n = stage CPU ns x hz, in sample-equivalents, min 1).
  /// Lines are sorted so the output is stable for a given sample set.
  [[nodiscard]] std::string folded() const;

  [[nodiscard]] std::uint64_t samples_total() const noexcept;
  [[nodiscard]] std::uint64_t truncated_total() const noexcept;
  [[nodiscard]] std::uint64_t sessions_total() const noexcept;
  [[nodiscard]] std::uint64_t dropped_registrations() const noexcept;
  [[nodiscard]] std::size_t threads_registered() const noexcept;
  [[nodiscard]] const ProfilerConfig& config() const noexcept {
    return config_;
  }

 private:
  ProfilerConfig config_;
  /// Process-unique instance id; thread-local bindings are keyed on it
  /// so a profiler at a recycled address never inherits stale rings.
  std::uint64_t serial_;

  mutable std::mutex mutex_;  // registration table + session lifecycle
  std::vector<std::unique_ptr<ProfilerThreadEntry>> entries_;
  std::vector<std::unique_ptr<SampleRing>> rings_;  // fixed at construction

  std::atomic<bool> session_active_{false};
  double session_hz_ = 0.0;   // last session's frequency (for folded())
  std::atomic<std::uint64_t> sessions_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> samples_{0};    // handler-incremented
  std::atomic<std::uint64_t> truncated_{0};  // stacks deeper than the slot
  /// Exact per-stage CPU ns accumulated by StageScope transitions
  /// while a session is active; frozen at stop() for folded().
  std::uint64_t stage_ns_[kEngineStageCount] = {};
};

/// Process-wide default profiler (same idiom as default_flight): layers
/// not worth plumbing a pointer through (thread pool workers, HTTP
/// workers, the engine loop) register themselves here when set. Starts
/// null. Clear it (and quiesce registering threads) before destroying
/// the profiler it points to.
[[nodiscard]] SamplingProfiler* default_profiler() noexcept;
void set_default_profiler(SamplingProfiler* profiler) noexcept;
/// Bumped on every set_default_profiler(); long-lived loops that cache
/// the resolved pointer compare generations before reuse.
[[nodiscard]] std::uint64_t default_profiler_generation() noexcept;

}  // namespace mfcp::obs
