// scrutiny_e2e — the end-to-end pipeline benchmark harness.
//
//   scrutiny_e2e --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//                [--scrutinyd PATH] [--setups N]
//
// Drives the public API the way a user's job does: analyze a program with
// reverse AD, save and reload the .scmask artifact, then run crash-and-
// restart episodes — checkpoint every step through a CheckpointManager,
// lose the process, poison a fresh instance's memory, restart from the
// newest slot chain, finish the run and compare against golden outputs.
// Each workload repeats the stage whose layer it stresses (see README.md).
//
// Prints one JSON object on stdout's last line: correctness, op counts and
// every metric with its unit and sample count.  With --trace 1 it also
// records a span around every call into a layer, writes
// DIR/trace-NAME.json, and adds the per-layer metrics.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/backend_spec.hpp"
#include "ckpt/codec.hpp"
#include "ckpt/failure.hpp"
#include "ckpt/manager.hpp"
#include "ckpt/registry.hpp"
#include "core/program.hpp"
#include "core/session.hpp"
#include "npb/expected_masks.hpp"
#include "npb/npb_common.hpp"
#include "npb/suite.hpp"
#include "serve/remote_backend.hpp"
#include "support/cli_args.hpp"
#include "support/crc64.hpp"
#include "support/error.hpp"
#include "support/stable_hash.hpp"
#include "support/timer.hpp"
#include "timed_backend.hpp"
#include "trace.hpp"

extern char** environ;

namespace {

using namespace scrutiny;
namespace fs = std::filesystem;
using e2e::Span;
using e2e::Tracer;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------------

enum class Store { Memory, File, Remote };

struct WorkloadSpec {
  std::string name;
  std::vector<std::string> apps;
  /// Analyze before every episode (the analyze-* workloads); otherwise the
  /// analysis runs once per app during set-up.
  bool analyze_each_episode = false;
  /// Analyze under a tape budget of 25% of the resident tape, spilling to
  /// files, with two sweep threads.
  bool spill = false;
  Store store = Store::Memory;
  std::string codec;
};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"analyze-resident", {"BT", "MG", "FT", "CG"}, true, false,
       Store::Memory, "prune"},
      {"analyze-spill", {"BT", "MG", "CG"}, true, true, Store::Memory,
       "prune"},
      {"ckpt-local", {"BT", "MG", "FT", "IS"}, false, false, Store::File,
       "prune+delta"},
      {"serve-remote", {"BT", "MG", "FT"}, false, false, Store::Remote,
       "prune"},
  };
  return specs;
}

const WorkloadSpec& find_workload(const std::string& name) {
  std::string inventory;
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return spec;
    inventory += " " + spec.name;
  }
  throw ScrutinyError("unknown workload: " + name + " (valid:" + inventory +
                      ")");
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path out;
  std::string scrutinyd;
  std::size_t setups = 5;
};

// ---------------------------------------------------------------------------
// statistics
// ---------------------------------------------------------------------------

/// Linear interpolation between closest ranks; 0 for an empty sample.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

/// Sums of the counters AnalysisResult reports, for per-analysis means.
struct AdTally {
  std::uint64_t analyses = 0;
  double record_s = 0.0;
  double sweep_s = 0.0;
  double harvest_s = 0.0;
  double statements = 0.0;
  double passes = 0.0;
  double spilled = 0.0;
  double reloaded = 0.0;
  double efficiency = 0.0;
  std::uint64_t resident_peak_bytes = 0;

  void add(const core::AnalysisResult& result) {
    ++analyses;
    record_s += result.record_seconds;
    sweep_s += result.sweep_seconds;
    harvest_s += result.harvest_seconds;
    statements += static_cast<double>(result.tape_stats.num_statements);
    passes += static_cast<double>(result.sweep_passes);
    spilled += static_cast<double>(result.tape_stats.segments_spilled);
    reloaded += static_cast<double>(result.tape_stats.segments_reloaded);
    efficiency += result.parallel_efficiency;
    resident_peak_bytes = std::max(resident_peak_bytes,
                                   result.tape_stats.resident_peak_bytes);
  }
  void merge(const AdTally& other) {
    analyses += other.analyses;
    record_s += other.record_s;
    sweep_s += other.sweep_s;
    harvest_s += other.harvest_s;
    statements += other.statements;
    passes += other.passes;
    spilled += other.spilled;
    reloaded += other.reloaded;
    efficiency += other.efficiency;
    resident_peak_bytes =
        std::max(resident_peak_bytes, other.resident_peak_bytes);
  }
  [[nodiscard]] double mean(double sum) const {
    return analyses == 0 ? 0.0 : sum / static_cast<double>(analyses);
  }
};

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Timings and byte counts of one app.  Latency medians are taken per app
/// and then averaged: the apps' checkpoints differ in size by 60x, so a
/// median over all of them would sit on whichever app's cluster happens to
/// hold the middle rank.
struct AppSamples {
  std::vector<double> analyze_s;
  std::vector<double> ckpt_ms;
  std::vector<double> restart_ms;
  double container_bytes = 0.0;
  double state_bytes = 0.0;

  void merge(const AppSamples& other) {
    append(analyze_s, other.analyze_s);
    append(ckpt_ms, other.ckpt_ms);
    append(restart_ms, other.restart_ms);
    container_bytes += other.container_bytes;
    state_bytes += other.state_bytes;
  }
};

/// What one thread observed.  Merged into the run's tally after join.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t episodes = 0;
  std::vector<std::string> errors;
  std::map<std::string, AppSamples> apps;
  std::uint64_t checkpoints = 0;
  double codec_s = 0.0;
  double elements_skipped = 0.0;
  double elements_total = 0.0;
  AdTally ad;

  void note(const std::string& message) {
    if (errors.size() < 32) errors.push_back(message);
  }
  /// One op that threw: counted, never fatal.
  void failed_op(const std::string& what, const std::exception& error) {
    ++failed;
    note(what + " threw: " + error.what());
  }
  /// One verification op.
  void verify(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    ++mismatches;
    note("MISMATCH " + what);
  }

  /// Takes over only the op counts and errors of `other`.
  void count_ops(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    mismatches += other.mismatches;
    for (const std::string& error : other.errors) note(error);
  }

  void merge(const Tally& other) {
    count_ops(other);
    episodes += other.episodes;
    for (const auto& [name, samples] : other.apps) apps[name].merge(samples);
    checkpoints += other.checkpoints;
    codec_s += other.codec_s;
    elements_skipped += other.elements_skipped;
    elements_total += other.elements_total;
    ad.merge(other.ad);
  }

  /// One series of every app, concatenated.
  [[nodiscard]] std::vector<double> pooled(
      std::vector<double> AppSamples::*series) const {
    std::vector<double> all;
    for (const auto& [name, samples] : apps) append(all, samples.*series);
    return all;
  }

  /// Mean over apps of each app's median of one series (apps without
  /// samples skipped).
  [[nodiscard]] double mean_of_app_medians(
      std::vector<double> AppSamples::*series) const {
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& [name, samples] : apps) {
      if ((samples.*series).empty()) continue;
      sum += median(samples.*series);
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

  [[nodiscard]] double container_bytes() const {
    double total = 0.0;
    for (const auto& [name, samples] : apps) total += samples.container_bytes;
    return total;
  }
};

// ---------------------------------------------------------------------------
// per-app state
// ---------------------------------------------------------------------------

/// Crash steps drawn from the seed in balanced blocks: every block is a
/// seeded shuffle of the whole range, so each step occurs equally often.
class CrashSchedule {
 public:
  CrashSchedule(int first, int last, std::uint64_t seed)
      : first_(first), last_(last), rng_(seed) {}

  int next() {
    if (pending_.empty()) {
      for (int step = first_; step <= last_; ++step) pending_.push_back(step);
      for (std::size_t i = pending_.size(); i > 1; --i) {
        std::swap(pending_[i - 1], pending_[rng_() % i]);
      }
    }
    const int step = pending_.back();
    pending_.pop_back();
    return step;
  }

 private:
  int first_;
  int last_;
  std::mt19937_64 rng_;
  std::vector<int> pending_;
};

struct AppState {
  std::string name;
  const core::AnyProgram* program = nullptr;
  core::AnalysisConfig config;
  std::vector<double> golden;
  double tolerance = 0.0;
  int warmup = 0;
  int total_steps = 0;
  /// Masks every analysis must reproduce: the closed-form oracle where one
  /// exists, otherwise the first analysis of the run.
  std::map<std::string, CriticalMask> reference;
  ckpt::PruneMap masks;  ///< from the newest loaded .scmask
  fs::path scmask;
  CrashSchedule crashes{0, 0, 0};
  std::uint64_t next_episode = 0;
};

bool all_close(const std::vector<double>& a, const std::vector<double>& b,
               double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) || std::isnan(b[i])) return false;
    const double scale = std::max({1.0, std::fabs(a[i]), std::fabs(b[i])});
    if (std::fabs(a[i] - b[i]) > tol * scale) return false;
  }
  return true;
}

/// Name of the first variable whose mask differs from the reference, or ""
/// when all agree.  Variables without a reference adopt this mask.
std::string mask_mismatch(const core::AnalysisResult& result, AppState& app) {
  for (const core::VariableCriticality& variable : result.variables) {
    const auto it = app.reference.find(variable.name);
    if (it == app.reference.end()) {
      app.reference.emplace(variable.name, variable.mask);
    } else if (!(it->second == variable.mask)) {
      return variable.name;
    }
  }
  return "";
}

bool same_analysis(const core::AnalysisResult& a,
                   const core::AnalysisResult& b) {
  if (a.program != b.program || a.num_outputs != b.num_outputs ||
      a.variables.size() != b.variables.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.variables.size(); ++i) {
    const core::VariableCriticality& x = a.variables[i];
    const core::VariableCriticality& y = b.variables[i];
    if (x.name != y.name || x.shape != y.shape ||
        x.element_size != y.element_size || x.is_integer != y.is_integer ||
        !(x.mask == y.mask) || x.impact != y.impact) {
      return false;
    }
  }
  return true;
}

AppState make_app(const std::string& name, std::uint64_t seed,
                  const fs::path& out) {
  AppState app;
  app.name = name;
  app.program = &core::ProgramRegistry::global().get(name);
  app.config = app.program->default_config();
  app.config.threads = 1;
  app.tolerance = app.program->traits().verify_tolerance;
  app.golden = core::ScrutinySession(*app.program).golden_outputs();
  app.warmup = app.config.warmup_steps;
  const auto instance = app.program->make_primal();
  app.total_steps = instance->total_steps();
  const int last = std::min(app.warmup + 3, app.total_steps - 1);
  SCRUTINY_REQUIRE(app.warmup + 1 <= last,
                   name + " runs too few steps for a crash episode");
  app.crashes = CrashSchedule(app.warmup + 1, last,
                              seed ^ support::stable_hash64(name));
  const npb::BenchmarkId id = npb::parse_benchmark_or_throw(name);
  for (const core::BindingInfo& binding : instance->binding_info()) {
    if (auto oracle = npb::expected_mask(id, binding.name)) {
      app.reference.emplace(binding.name, std::move(*oracle));
    }
  }
  app.scmask = out / (name + ".scmask");
  return app;
}

// ---------------------------------------------------------------------------
// the daemon child process
// ---------------------------------------------------------------------------

/// `scrutinyd serve` on an ephemeral loopback port.  The destructor stops
/// it with SIGTERM and reaps it.
class DaemonProcess {
 public:
  explicit DaemonProcess(const std::string& binary) {
    SCRUTINY_REQUIRE(!binary.empty(), "serve-remote needs --scrutinyd PATH");
    int pipe_fds[2];
    SCRUTINY_REQUIRE(::pipe(pipe_fds) == 0, "pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
    posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
    std::vector<std::string> args = {binary,     "serve",     "--port",
                                     "0",        "--backend", "memory:",
                                     "--workers", "2",        "--log-interval",
                                     "0"};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(pipe_fds[1]);
    stdout_fd_ = pipe_fds[0];
    if (rc != 0) {
      pid_ = -1;
      stop();
      throw ScrutinyError("cannot spawn " + binary + ": " +
                          std::strerror(rc));
    }
    try {
      port_ = read_port();
    } catch (...) {
      stop();
      throw;
    }
  }

  ~DaemonProcess() { stop(); }

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  DaemonProcess(DaemonProcess&&) = delete;
  DaemonProcess& operator=(DaemonProcess&&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// User + system CPU milliseconds the daemon has used so far.
  [[nodiscard]] double cpu_ms() const {
    std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    const std::size_t close = text.rfind(')');
    SCRUTINY_REQUIRE(close != std::string::npos, "unreadable daemon stat");
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i >= 14) ticks += std::stod(field);
    }
    return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// The daemon's peak resident set (VmHWM) in MiB.
  [[nodiscard]] double peak_rss_mib() const {
    return status_kib("/proc/" + std::to_string(pid_) + "/status", "VmHWM:") /
           1024.0;
  }

  static double status_kib(const std::string& path, const std::string& key) {
    std::ifstream status(path);
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size()));
    }
    return 0.0;
  }

 private:
  std::uint16_t read_port() {
    std::string line;
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (line.find('\n') == std::string::npos) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      SCRUTINY_REQUIRE(left.count() > 0, "scrutinyd did not report a port");
      pollfd fd{stdout_fd_, POLLIN, 0};
      if (::poll(&fd, 1, static_cast<int>(left.count())) <= 0) continue;
      char buffer[256];
      const ssize_t n = ::read(stdout_fd_, buffer, sizeof(buffer));
      SCRUTINY_REQUIRE(n > 0, "scrutinyd exited before reporting a port");
      line.append(buffer, static_cast<std::size_t>(n));
    }
    const std::size_t colon = line.rfind(':', line.find('\n'));
    SCRUTINY_REQUIRE(colon != std::string::npos,
                     "unexpected scrutinyd banner: " + line);
    return static_cast<std::uint16_t>(std::stoul(line.substr(colon + 1)));
  }

  void stop() noexcept {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      const auto deadline = Clock::now() + std::chrono::seconds(10);
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (Clock::now() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// pipeline legs
// ---------------------------------------------------------------------------

/// One analysis op: analyze → plan → save_analysis (timed as the offline
/// job), then load_analysis, whose masks the following episodes prune with.
void run_analysis(AppState& app, Tally& tally) {
  ++tally.attempted;
  try {
    core::ScrutinySession session(*app.program);
    const Timer timer;
    {
      const Span span("core.analyze");
      const core::AnalysisResult& result = session.analyze(app.config);
      // The library's own phase timings become child spans, so the
      // parent's self time is what no phase accounts for.
      std::int64_t at = span.start_ns();
      for (const auto& [name, seconds] :
           {std::pair{"ad.record", result.record_seconds},
            std::pair{"ad.sweep", result.sweep_seconds},
            std::pair{"ad.harvest", result.harvest_seconds}}) {
        const auto duration = static_cast<std::int64_t>(seconds * 1e9);
        Tracer::add_child(name, at, duration);
        at += duration;
      }
      tally.ad.add(result);
    }
    {
      const Span span("mask.plan");
      (void)session.plan();
    }
    {
      const Span span("core.save_analysis");
      session.save_analysis(app.scmask);
    }
    tally.apps[app.name].analyze_s.push_back(timer.seconds());

    core::ScrutinySession loaded(*app.program);
    {
      const Span span("core.load_analysis");
      (void)loaded.load_analysis(app.scmask);
    }
    const std::string differs = mask_mismatch(session.analysis(), app);
    tally.verify(differs.empty(),
                 app.name + ": mask of " + differs +
                     " differs from the oracle / first analysis");
    tally.verify(same_analysis(session.analysis(), loaded.analysis()),
                 app.name + ": .scmask round trip changed the analysis");
    app.masks = loaded.analysis().to_prune_map();
  } catch (const std::exception& error) {
    tally.failed_op(app.name + " analysis", error);
  }
}

/// Runs a fresh instance to `crash`, checkpointing every step from the
/// warmup on.  Returning is the crash: instance, registry and manager go.
void write_until_crash(AppState& app, int crash,
                       const std::shared_ptr<ckpt::StorageBackend>& backend,
                       const ckpt::ManagerConfig& config,
                       const std::string& where, Tally& tally) {
  AppSamples& samples = tally.apps[app.name];
  std::unique_ptr<core::PrimalInstance> instance;
  ckpt::CheckpointRegistry registry;
  {
    const Span span("npb.init");
    instance = app.program->make_primal();
    instance->init();
    instance->register_checkpoint(registry);
  }
  ckpt::CheckpointManager manager(config, backend);
  manager.set_prune_map(app.masks);
  const auto state_bytes = static_cast<double>(registry.total_payload_bytes());
  for (int step = 1; step <= crash; ++step) {
    {
      const Span span("npb.step");
      instance->step();
    }
    if (step < app.warmup) continue;
    ++tally.attempted;
    try {
      const Timer timer;
      std::optional<ckpt::WriteReport> report;
      {
        const Span span("ckpt.checkpoint");
        report = manager.maybe_checkpoint(static_cast<std::uint64_t>(step),
                                          registry);
      }
      if (!report.has_value()) continue;
      samples.ckpt_ms.push_back(timer.milliseconds());
      samples.container_bytes += static_cast<double>(report->file_bytes);
      samples.state_bytes += state_bytes;
      ++tally.checkpoints;
      tally.codec_s += report->codec_seconds;
      tally.elements_skipped += static_cast<double>(report->elements_skipped);
      tally.elements_total += static_cast<double>(report->elements_skipped +
                                                  report->elements_written);
    } catch (const std::exception& error) {
      tally.failed_op(where + " checkpoint " + std::to_string(step), error);
    }
  }
}

/// A fresh instance with every checkpointed element poisoned restarts
/// through a new manager and finishes the run; its outputs must match the
/// golden run within the program's tolerance.
void restart_and_finish(AppState& app, int crash,
                        const std::shared_ptr<ckpt::StorageBackend>& backend,
                        const ckpt::ManagerConfig& config,
                        const std::string& where, Tally& tally) {
  std::unique_ptr<core::PrimalInstance> instance;
  ckpt::CheckpointRegistry registry;
  {
    const Span span("npb.init");
    instance = app.program->make_primal();
    instance->init();
    instance->register_checkpoint(registry);
    ckpt::FailureInjector().poison_all(registry);
  }
  std::optional<ckpt::RestoreReport> restored;
  ++tally.attempted;
  try {
    const Timer timer;
    {
      const Span span("ckpt.restart");
      ckpt::CheckpointManager manager(config, backend);
      restored = manager.restart(registry);
    }
    tally.apps[app.name].restart_ms.push_back(timer.milliseconds());
  } catch (const std::exception& error) {
    tally.failed_op(where + " restart", error);
    return;
  }
  std::string problem = "no restorable checkpoint";
  if (restored.has_value()) {
    problem = "restart from step " + std::to_string(restored->step) +
              " (crash at " + std::to_string(crash) +
              ") does not reproduce the golden outputs";
    try {
      for (auto step = static_cast<int>(restored->step);
           step < app.total_steps; ++step) {
        const Span span("npb.step");
        instance->step();
      }
      if (restored->step == static_cast<std::uint64_t>(crash) &&
          all_close(app.golden, instance->outputs(), app.tolerance)) {
        problem.clear();
      }
    } catch (const std::exception& error) {
      problem += std::string(": ") + error.what();
    }
  }
  tally.verify(problem.empty(), where + ": " + problem);
  if (problem.empty()) ++tally.episodes;
}

/// One crash-and-restart episode under its own slot basename; its objects
/// are removed afterwards.  Nothing it calls can abort the run: a throw is
/// a failed op.
void run_episode(AppState& app, int crash,
                 const std::shared_ptr<ckpt::StorageBackend>& backend,
                 const ckpt::ManagerConfig& base, const std::string& workload,
                 Tally& tally) {
  const std::uint64_t episode = app.next_episode++;
  ckpt::ManagerConfig config = base;
  config.basename = app.name + "_e" + std::to_string(episode);
  const std::string where =
      workload + " " + app.name + " episode " + std::to_string(episode);
  const Span root("episode");
  try {
    write_until_crash(app, crash, backend, config, where, tally);
    restart_and_finish(app, crash, backend, config, where, tally);
  } catch (const std::exception& error) {
    ++tally.attempted;
    tally.failed_op(where, error);
  }
  try {
    for (const std::string& key : backend->list(config.basename + ".")) {
      backend->remove(key);
    }
  } catch (const std::exception& error) {
    ++tally.attempted;
    tally.failed_op(where + " cleanup", error);
  }
}

// ---------------------------------------------------------------------------
// set-up
// ---------------------------------------------------------------------------

/// Every slot is written (interval 1), two are kept, and delta chains are
/// at most three deltas long.
ckpt::ManagerConfig manager_config(const WorkloadSpec& spec) {
  ckpt::ManagerConfig config;
  config.interval = 1;
  config.keep_slots = 2;
  ckpt::apply_codec_spec(config.codec, spec.codec);
  config.codec.keyframe_interval = 4;
  return config;
}

struct Client {
  std::shared_ptr<ckpt::RemoteBackend> remote;  ///< null unless remote
  std::shared_ptr<ckpt::StorageBackend> backend;  ///< what managers use
};

/// Everything the measured phase needs.  The daemon is declared before the
/// clients so their connections close before it is stopped.
struct Setup {
  std::vector<AppState> apps;
  std::unique_ptr<DaemonProcess> daemon;
  std::vector<Client> clients;
  Tally tally;  ///< set-up analyses and the op counts of the warm-up
};

std::unique_ptr<Setup> set_up(const WorkloadSpec& spec, const Options& opt) {
  auto setup = std::make_unique<Setup>();
  npb::register_suite();
  for (const std::string& name : spec.apps) {
    setup->apps.push_back(make_app(name, opt.seed, opt.out));
  }

  if (spec.spill) {
    // The budget is a quarter of the tape a resident analysis holds; that
    // analysis also pins the reference masks the spilled ones must equal.
    for (AppState& app : setup->apps) {
      core::ScrutinySession session(*app.program);
      const core::AnalysisResult* result = &session.analyze(app.config);
      const std::string differs = mask_mismatch(*result, app);
      setup->tally.verify(differs.empty(), app.name + ": resident mask of " +
                                               differs +
                                               " differs from the oracle");
      const std::uint64_t resident =
          std::max(result->tape_stats.resident_peak_bytes,
                   result->tape_stats.resident_bytes);
      app.config.tape_memory_limit = std::max<std::uint64_t>(1, resident / 4);
      app.config.tape_spill_backend = ckpt::BackendKind::File;
      app.config.threads = 2;
    }
  }
  if (!spec.analyze_each_episode) {
    for (AppState& app : setup->apps) {
      run_analysis(app, setup->tally);
    }
  }

  std::shared_ptr<ckpt::StorageBackend> local;
  if (spec.store == Store::Memory) {
    local = ckpt::make_backend(ckpt::BackendSpec::memory());
  } else if (spec.store == Store::File) {
    const fs::path dir = opt.out / "ckpt";
    fs::create_directories(dir);
    local =
        ckpt::make_backend(ckpt::BackendSpec::parse("file:" + dir.string()));
  }
  if (spec.store == Store::Remote) {
    setup->daemon = std::make_unique<DaemonProcess>(opt.scrutinyd);
    const ckpt::BackendSpec where = ckpt::BackendSpec::parse(
        "remote:127.0.0.1:" + std::to_string(setup->daemon->port()));
    for (std::size_t i = 0; i < setup->apps.size(); ++i) {
      ckpt::RemoteBackendConfig config;
      config.host = where.host;
      config.port = where.port;
      config.tenant = "e2e-" + std::to_string(i);
      auto remote = std::make_shared<ckpt::RemoteBackend>(config);
      remote->ping();
      setup->clients.push_back(
          Client{remote, std::make_shared<e2e::TimedBackend>(remote)});
    }
  } else {
    setup->clients.push_back(
        Client{nullptr, std::make_shared<e2e::TimedBackend>(local)});
  }

  if (!spec.analyze_each_episode) {
    // One untimed episode per app lets the heap and the store reach their
    // steady state before timing starts.  Only its op counts are kept.
    Tally warm;
    for (std::size_t i = 0; i < setup->apps.size(); ++i) {
      AppState& app = setup->apps[i];
      const Client& client = setup->clients[i % setup->clients.size()];
      run_episode(app, app.warmup + 1, client.backend, manager_config(spec),
                  spec.name, warm);
    }
    setup->tally.count_ops(warm);
  }
  return setup;
}

// ---------------------------------------------------------------------------
// measurement
// ---------------------------------------------------------------------------

/// The measured phase.  Analyze and local workloads run whole round-robin
/// rounds over the apps on one thread; serve-remote runs one closed-loop
/// client thread per app, each on its own tenant connection.
double measure(const WorkloadSpec& spec, const Options& opt, Setup& setup,
               Tally& tally) {
  const ckpt::ManagerConfig base = manager_config(spec);
  const Timer wall;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  if (spec.store != Store::Remote) {
    const std::size_t offset = opt.seed % setup.apps.size();
    while (Clock::now() < deadline) {
      for (std::size_t i = 0; i < setup.apps.size(); ++i) {
        AppState& app = setup.apps[(offset + i) % setup.apps.size()];
        if (spec.analyze_each_episode) run_analysis(app, tally);
        run_episode(app, app.crashes.next(), setup.clients.front().backend,
                    base, spec.name, tally);
      }
    }
    return wall.seconds();
  }

  std::vector<Tally> tallies(setup.apps.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < setup.apps.size(); ++i) {
    threads.emplace_back([&, i] {
      AppState& app = setup.apps[i];
      while (Clock::now() < deadline) {
        run_episode(app, app.crashes.next(), setup.clients[i].backend, base,
                    spec.name, tallies[i]);
      }
      std::string raised;
      try {
        setup.clients[i].remote->wait();
      } catch (const std::exception& error) {
        raised = error.what();
      }
      tallies[i].verify(raised.empty(), spec.name + " " + setup.apps[i].name +
                                            ": RemoteBackend::wait() raised " +
                                            raised);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Tally& t : tallies) tally.merge(t);
  return wall.seconds();
}

// ---------------------------------------------------------------------------
// reporting
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

using Metrics = std::map<std::string, Metric>;

double cpu_ms_self() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// Resets the kernel's peak-RSS counter so VmHWM covers only what follows.
/// Returns false where the kernel refuses (VmHWM then covers the process).
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Summed span statistics per name, plus the root self-time check.
struct SpanSummary {
  std::map<std::string, std::vector<double>> self_ms;
  std::map<std::string, double> wall_ms;
  std::uint64_t roots = 0;
  std::uint64_t unbalanced_roots = 0;
};

SpanSummary summarize_spans() {
  SpanSummary summary;
  std::map<std::uint64_t, double> root_wall;
  std::map<std::uint64_t, double> root_self;
  for (const e2e::SpanRecord& record : Tracer::records()) {
    const double self = static_cast<double>(record.self_ns) / 1e6;
    summary.self_ms[record.name].push_back(self);
    summary.wall_ms[record.name] +=
        static_cast<double>(record.end_ns - record.start_ns) / 1e6;
    root_self[record.root] += std::max(self, 0.0);
    if (record.parent == 0) {
      root_wall[record.id] =
          static_cast<double>(record.end_ns - record.start_ns) / 1e6;
    }
  }
  for (const auto& [root, wall] : root_wall) {
    ++summary.roots;
    if (std::fabs(root_self[root] - wall) > 0.01 * wall + 1e-6) {
      ++summary.unbalanced_roots;
    }
  }
  return summary;
}

/// CRC-64 throughput over a buffer of the workload's mean container size.
double crc64_mb_s(double mean_bytes) {
  const auto size = static_cast<std::size_t>(std::max(mean_bytes, 4096.0));
  std::vector<std::byte> buffer(size);
  std::mt19937_64 rng(42);
  for (std::byte& b : buffer) b = static_cast<std::byte>(rng());
  Crc64 crc;
  std::uint64_t bytes = 0;
  const Timer timer;
  double elapsed = 0.0;
  while (elapsed < 0.2) {
    crc.update(buffer.data(), buffer.size());
    bytes += buffer.size();
    elapsed = timer.seconds();
  }
  return static_cast<double>(bytes) / elapsed / 1e6;
}

void add_span_metrics(Metrics& metrics, const SpanSummary& spans) {
  static const char* const kNames[] = {
      "core.analyze",     "mask.plan",         "core.save_analysis",
      "core.load_analysis", "npb.init",        "npb.step",
      "ckpt.checkpoint",  "ckpt.restart",      "episode",
      "backend.open_write", "backend.append",  "backend.commit",
      "backend.open_read", "backend.read",     "backend.list",
      "backend.remove"};
  for (const char* name : kNames) {
    const auto it = spans.self_ms.find(name);
    const std::vector<double> none;
    const std::vector<double>& self = it == spans.self_ms.end() ? none
                                                                : it->second;
    const auto n = static_cast<std::uint64_t>(self.size());
    double total = 0.0;
    for (double v : self) total += v;
    const std::string prefix(name);
    metrics[prefix + ".count"] = {static_cast<double>(n), "count", n};
    metrics[prefix + ".self_ms_p50"] = {percentile(self, 0.5), "ms", n};
    metrics[prefix + ".self_ms_p99"] = {percentile(self, 0.99), "ms", n};
    metrics[prefix + ".self_ms_total"] = {total, "ms", n};
  }
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// What the measured phase observed beyond the tally.
struct Observed {
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  double peak_rss_mib = 0.0;
  double daemon_cpu_ms = 0.0;
  double daemon_peak_rss_mib = 0.0;
  ckpt::RemoteBackendStats remote;
};

Metrics end_to_end_metrics(const Tally& tally,
                           const std::vector<double>& setup_s,
                           const Observed& observed) {
  const std::vector<double> ckpt_ms = tally.pooled(&AppSamples::ckpt_ms);
  const std::vector<double> restart_ms =
      tally.pooled(&AppSamples::restart_ms);
  const auto n_ckpt = static_cast<std::uint64_t>(ckpt_ms.size());
  const auto n_restart = static_cast<std::uint64_t>(restart_ms.size());
  double analyze_s = 0.0;
  std::uint64_t analyses = 0;
  double stored_ratio = 0.0;
  for (const auto& [name, samples] : tally.apps) {
    if (!samples.analyze_s.empty()) analyze_s += median(samples.analyze_s);
    analyses += samples.analyze_s.size();
    if (samples.state_bytes > 0) {
      stored_ratio += samples.container_bytes / samples.state_bytes /
                      static_cast<double>(tally.apps.size());
    }
  }
  Metrics metrics;
  metrics["setup_s"] = {median(setup_s), "s", setup_s.size()};
  metrics["peak_rss_mib"] = {observed.peak_rss_mib, "MiB", 1};
  metrics["analyze_s"] = {analyze_s, "s", analyses};
  metrics["ckpt_ms_p50"] = {tally.mean_of_app_medians(&AppSamples::ckpt_ms),
                            "ms", n_ckpt};
  metrics["ckpt_ms_p99"] = {percentile(ckpt_ms, 0.99), "ms", n_ckpt};
  metrics["restart_ms_p50"] = {
      tally.mean_of_app_medians(&AppSamples::restart_ms), "ms", n_restart};
  metrics["restart_ms_p99"] = {percentile(restart_ms, 0.99), "ms", n_restart};
  metrics["stored_ratio"] = {stored_ratio, "ratio", n_ckpt};
  metrics["episodes_per_s"] = {
      static_cast<double>(tally.episodes) / observed.wall_s, "1/s",
      tally.episodes};
  return metrics;
}

double total(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

Metrics per_layer_metrics(const Tally& tally, const SpanSummary& spans,
                          const Observed& observed) {
  Metrics metrics;
  add_span_metrics(metrics, spans);
  const AdTally& ad = tally.ad;
  const std::uint64_t analyses = ad.analyses;
  metrics["ad.record_ms"] = {ad.mean(ad.record_s) * 1e3, "ms", analyses};
  metrics["ad.sweep_ms"] = {ad.mean(ad.sweep_s) * 1e3, "ms", analyses};
  metrics["ad.harvest_ms"] = {ad.mean(ad.harvest_s) * 1e3, "ms", analyses};
  metrics["ad.tape_statements"] = {ad.mean(ad.statements), "count", analyses};
  metrics["ad.tape_resident_mib"] = {
      static_cast<double>(ad.resident_peak_bytes) / (1024.0 * 1024.0), "MiB",
      analyses};
  metrics["ad.sweep_passes"] = {ad.mean(ad.passes), "count", analyses};
  metrics["ad.segments_spilled"] = {ad.mean(ad.spilled), "count", analyses};
  metrics["ad.segments_reloaded"] = {ad.mean(ad.reloaded), "count", analyses};
  metrics["ad.parallel_efficiency"] = {ad.mean(ad.efficiency), "ratio",
                                       analyses};

  const std::uint64_t n_ckpt = tally.checkpoints;
  const auto per_ckpt = [&](double sum) {
    return n_ckpt == 0 ? 0.0 : sum / static_cast<double>(n_ckpt);
  };
  const double bytes = tally.container_bytes();
  const double mb = bytes / 1e6;
  const auto per_mb = [&](double value) { return mb > 0 ? value / mb : 0.0; };
  metrics["ckpt.codec_ms"] = {per_ckpt(tally.codec_s) * 1e3, "ms", n_ckpt};
  metrics["ckpt.elements_skipped_frac"] = {
      tally.elements_total > 0 ? tally.elements_skipped / tally.elements_total
                               : 0.0,
      "ratio", n_ckpt};
  metrics["ckpt.bytes_per_ckpt"] = {per_ckpt(bytes), "B", n_ckpt};
  metrics["serve.round_trips_per_commit"] = {
      per_ckpt(static_cast<double>(observed.remote.round_trips)), "count",
      n_ckpt};
  metrics["serve.reconnects"] = {
      static_cast<double>(observed.remote.reconnects), "count", 1};
  metrics["serve.retried_ops"] = {
      static_cast<double>(observed.remote.retried_ops), "count", 1};
  metrics["serve.daemon_cpu_ms_per_mb"] = {per_mb(observed.daemon_cpu_ms),
                                           "ms/MB", 1};
  metrics["serve.daemon_peak_rss_mib"] = {observed.daemon_peak_rss_mib, "MiB",
                                          1};
  metrics["harness.cpu_ms_per_mb"] = {per_mb(observed.cpu_ms), "ms/MB", 1};
  metrics["support.crc64_mb_s"] = {crc64_mb_s(per_ckpt(bytes)), "MB/s", 1};

  // Derived: the time no counter or child span accounts for.
  const auto self_of = [&](const char* name) {
    const auto it = spans.self_ms.find(name);
    return it == spans.self_ms.end() ? std::vector<double>{} : it->second;
  };
  const std::vector<double> analyze_self = self_of("core.analyze");
  const std::vector<double> checkpoint_self = self_of("ckpt.checkpoint");
  const auto mean = [](const std::vector<double>& values) {
    return values.empty() ? 0.0
                          : total(values) / static_cast<double>(values.size());
  };
  metrics["core.analyze_unattributed_ms"] = {
      mean(analyze_self), "ms",
      static_cast<std::uint64_t>(analyze_self.size())};
  metrics["ckpt.checkpoint_serialize_ms"] = {
      std::max(0.0, mean(checkpoint_self) - per_ckpt(tally.codec_s) * 1e3),
      "ms", n_ckpt};
  const auto episode_wall = spans.wall_ms.find("episode");
  const double wall =
      episode_wall == spans.wall_ms.end() ? 0.0 : episode_wall->second;
  metrics["episode.unclaimed_frac"] = {
      wall > 0 ? total(self_of("episode")) / wall : 0.0, "ratio",
      tally.episodes};
  return metrics;
}

#ifdef __clang__
constexpr const char* kCompiler = __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string result_json(const WorkloadSpec& spec, const Options& opt,
                        const Tally& tally, double wall_s,
                        const Metrics& metrics) {
  std::ostringstream json;
  json.precision(17);
  json << "{\"workload\":\"" << spec.name << "\",\"seed\":" << opt.seed
       << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"compiler\":\""
       << json_escape(kCompiler) << "\",\"correct\":"
       << (tally.mismatches == 0 ? "true" : "false")
       << ",\"attempted\":" << tally.attempted << ",\"failed\":" << tally.failed
       << ",\"duration_s\":" << wall_s << ",\"errors\":[";
  for (std::size_t i = 0; i < tally.errors.size(); ++i) {
    json << (i ? "," : "") << "\"" << json_escape(tally.errors[i]) << "\"";
  }
  json << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
         << metric.value << ",\"unit\":\"" << metric.unit
         << "\",\"samples\":" << metric.samples << "}";
    first = false;
  }
  json << "}}";
  return json.str();
}

int run(const Options& opt, const Timer& since_process_start) {
  const WorkloadSpec& spec = find_workload(opt.workload);
  fs::create_directories(opt.out);

  // Set up several times; report the median and keep the last.  The set-up
  // tallies carry the one-time analyses of the episode workloads, which
  // are their analyze_s samples.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  Tally tally;
  for (std::size_t i = 0; i < opt.setups; ++i) {
    const Timer timer;
    setup.reset();
    setup = set_up(spec, opt);
    setup_s.push_back(i == 0 ? since_process_start.seconds() : timer.seconds());
    tally.merge(setup->tally);
  }

  Observed observed;
  const bool peak_reset = reset_peak_rss();
  const double cpu_before = cpu_ms_self();
  const double daemon_cpu_before =
      setup->daemon ? setup->daemon->cpu_ms() : 0.0;
  Tally measured;
  observed.wall_s = measure(spec, opt, *setup, measured);
  observed.cpu_ms = cpu_ms_self() - cpu_before;
  if (setup->daemon) {
    observed.daemon_cpu_ms = setup->daemon->cpu_ms() - daemon_cpu_before;
    observed.daemon_peak_rss_mib = setup->daemon->peak_rss_mib();
  }
  if (peak_reset) {
    observed.peak_rss_mib =
        DaemonProcess::status_kib("/proc/self/status", "VmHWM:") / 1024.0;
  } else {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    observed.peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
  for (const Client& client : setup->clients) {
    if (client.remote == nullptr) continue;
    const ckpt::RemoteBackendStats stats = client.remote->stats();
    observed.remote.round_trips += stats.round_trips;
    observed.remote.reconnects += stats.reconnects;
    observed.remote.retried_ops += stats.retried_ops;
  }
  setup.reset();  // closes the connections, then stops the daemon
  tally.merge(measured);

  Metrics metrics = end_to_end_metrics(tally, setup_s, observed);
  if (opt.trace) {
    const SpanSummary spans = summarize_spans();
    metrics.merge(per_layer_metrics(tally, spans, observed));
    tally.verify(spans.unbalanced_roots == 0,
                 std::to_string(spans.unbalanced_roots) + " of " +
                     std::to_string(spans.roots) +
                     " trace roots whose span self times do not add up to "
                     "their wall time");
    Tracer::write_chrome_trace(opt.out / ("trace-" + spec.name + ".json"),
                               spec.name);
  }
  std::printf("%s\n",
              result_json(spec, opt, tally, observed.wall_s, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Timer since_process_start;
  try {
    const CliArgs args(argc, argv);
    args.require_known({"workload", "seed", "seconds", "trace", "out",
                        "scrutinyd", "setups"});
    SCRUTINY_REQUIRE(args.has("workload") && args.has("out"),
                     "usage: scrutiny_e2e --workload NAME --out DIR [--seed N] "
                     "[--seconds S] [--trace 0|1] [--scrutinyd PATH] "
                     "[--setups N]");
    Options opt;
    opt.workload = args.get("workload", "");
    opt.seed = args.get_uint("seed", 1);
    opt.seconds = args.get_double("seconds", 10.0);
    opt.trace = args.get_uint("trace", 0) != 0;
    opt.out = args.get("out", "");
    opt.scrutinyd = args.get("scrutinyd", "");
    opt.setups = std::max<std::uint64_t>(1, args.get_uint("setups", 5));
    if (opt.trace) Tracer::enable();
    return run(opt, since_process_start);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "scrutiny_e2e: %s\n", error.what());
    return 2;
  }
}
