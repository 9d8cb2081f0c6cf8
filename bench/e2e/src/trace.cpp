#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "support/error.hpp"

namespace e2e {

namespace {

struct OpenSpan {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t root;
  std::int64_t start_ns;
  std::int64_t child_ns;
};

struct Recorder {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint32_t> next_thread{1};
  const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  std::mutex mutex;
  std::vector<SpanRecord> records;  // guarded by mutex
};

Recorder& recorder() {
  static Recorder instance;
  return instance;
}

struct ThreadState {
  std::uint32_t thread = recorder().next_thread.fetch_add(1);
  std::vector<OpenSpan> stack;
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

void push_record(const SpanRecord& record) {
  Recorder& r = recorder();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.records.push_back(record);
}

/// Records a closed child of the innermost open span and charges its
/// duration against that span's self time.  No-op outside any span.
void record_child(const char* name, std::uint64_t calls, std::int64_t busy_ns,
                  std::int64_t start_ns, std::int64_t end_ns) {
  ThreadState& state = thread_state();
  if (state.stack.empty()) return;
  OpenSpan& parent = state.stack.back();
  parent.child_ns += busy_ns;
  SpanRecord record;
  record.name = name;
  record.id = recorder().next_id.fetch_add(1);
  record.parent = parent.id;
  record.root = parent.root;
  record.thread = state.thread;
  record.calls = calls;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  record.self_ns = busy_ns;
  push_record(record);
}

}  // namespace

void Tracer::enable() { recorder().enabled.store(true); }

bool Tracer::enabled() noexcept {
  return recorder().enabled.load(std::memory_order_relaxed);
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - recorder().epoch)
      .count();
}

void Tracer::add_child(const char* name, std::int64_t start_ns,
                       std::int64_t duration_ns) {
  if (!enabled()) return;
  record_child(name, 1, duration_ns, start_ns, start_ns + duration_ns);
}

void Tracer::add_pass(const char* name, std::uint64_t calls,
                      std::int64_t busy_ns, std::int64_t first_ns,
                      std::int64_t last_ns) {
  if (!enabled() || calls == 0) return;
  record_child(name, calls, busy_ns, first_ns, last_ns);
}

std::vector<SpanRecord> Tracer::records() {
  Recorder& r = recorder();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return r.records;
}

void Tracer::write_chrome_trace(const std::filesystem::path& path,
                                const std::string& workload) {
  std::FILE* file = std::fopen(path.string().c_str(), "w");
  SCRUTINY_REQUIRE(file != nullptr, "cannot write trace " + path.string());
  std::fprintf(file,
               "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":"
               "\"%s\"},\"traceEvents\":[",
               workload.c_str());
  bool first = true;
  for (const SpanRecord& record : records()) {
    // A coalesced pass is drawn as one bar of its busy time at the first
    // call; its window and call count ride in args.
    const std::int64_t duration = record.calls > 1
                                      ? record.self_ns
                                      : record.end_ns - record.start_ns;
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"root\":%llu,"
                 "\"calls\":%llu,\"self_us\":%.3f,\"window_us\":%.3f}}",
                 first ? "" : ",", record.name, record.thread,
                 static_cast<double>(record.start_ns) / 1e3,
                 static_cast<double>(duration) / 1e3,
                 static_cast<unsigned long long>(record.id),
                 static_cast<unsigned long long>(record.parent),
                 static_cast<unsigned long long>(record.root),
                 static_cast<unsigned long long>(record.calls),
                 static_cast<double>(record.self_ns) / 1e3,
                 static_cast<double>(record.end_ns - record.start_ns) / 1e3);
    first = false;
  }
  std::fprintf(file, "\n]}\n");
  const bool ok = std::fclose(file) == 0;
  SCRUTINY_REQUIRE(ok, "cannot finish trace " + path.string());
}

Span::Span(const char* name) {
  if (!Tracer::enabled()) return;
  active_ = true;
  start_ns_ = Tracer::now_ns();
  ThreadState& state = thread_state();
  const std::uint64_t id = recorder().next_id.fetch_add(1);
  const std::uint64_t parent = state.stack.empty() ? 0 : state.stack.back().id;
  const std::uint64_t root = state.stack.empty() ? id : state.stack.back().root;
  state.stack.push_back(OpenSpan{name, id, parent, root, start_ns_, 0});
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end = Tracer::now_ns();
  ThreadState& state = thread_state();
  const OpenSpan open = state.stack.back();
  state.stack.pop_back();
  const std::int64_t duration = end - open.start_ns;
  if (!state.stack.empty()) state.stack.back().child_ns += duration;
  SpanRecord record;
  record.name = open.name;
  record.id = open.id;
  record.parent = open.parent;
  record.root = open.root;
  record.thread = state.thread;
  record.start_ns = open.start_ns;
  record.end_ns = end;
  record.self_ns = duration - open.child_ns;
  push_record(record);
}

}  // namespace e2e
