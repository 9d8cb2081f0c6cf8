// Span recorder for the end-to-end benchmark harness.
//
// The harness opens a Span around every public call it makes into a layer
// (core.analyze, ckpt.checkpoint, backend.commit, ...).  Spans nest per
// thread; when one closes, its self time is its duration minus the time its
// direct children claimed, so the self times of one root's tree add up to
// the root's wall time.  Records stay in memory and are written out as
// Chrome trace-event JSON once the run ends.
//
// Tracing is off unless Tracer::enable() ran before the first Span: an
// untraced run then reads no clocks and records nothing.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace e2e {

/// One closed span.  Times are nanoseconds since the recorder's epoch.
struct SpanRecord {
  const char* name = "";     ///< static string
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root
  std::uint64_t root = 0;    ///< id of the outermost span of this tree
  std::uint32_t thread = 0;
  std::uint64_t calls = 1;   ///< >1 for a pass of coalesced calls
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;
};

class Tracer {
 public:
  /// Turns recording on for the rest of the process.  Call before any
  /// thread opens a Span.
  static void enable();
  [[nodiscard]] static bool enabled() noexcept;

  /// Monotonic nanoseconds since the recorder's epoch.
  [[nodiscard]] static std::int64_t now_ns();

  /// Records a closed child of this thread's innermost open span whose
  /// duration the library reported rather than the harness measured
  /// (AnalysisResult's record/sweep/harvest seconds).  The child is placed
  /// at `start_ns`; its duration counts against the parent's self time.
  static void add_child(const char* name, std::int64_t start_ns,
                        std::int64_t duration_ns);

  /// Records `calls` short calls made under this thread's innermost open
  /// span as one pass: `busy_ns` is their summed duration, `first_ns` and
  /// `last_ns` bound the window they fell in.  Used for per-object read and
  /// append calls, which can number thousands per checkpoint.
  static void add_pass(const char* name, std::uint64_t calls,
                       std::int64_t busy_ns, std::int64_t first_ns,
                       std::int64_t last_ns);

  [[nodiscard]] static std::vector<SpanRecord> records();

  /// Writes every record as a Chrome trace-event file (Perfetto and
  /// chrome://tracing open it).
  static void write_chrome_trace(const std::filesystem::path& path,
                                 const std::string& workload);
};

/// RAII span around one call.  Inert when tracing is off.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  /// Start time of this span (0 when tracing is off).
  [[nodiscard]] std::int64_t start_ns() const noexcept { return start_ns_; }

 private:
  bool active_ = false;
  std::int64_t start_ns_ = 0;
};

}  // namespace e2e
