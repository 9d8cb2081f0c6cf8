#include "timed_backend.hpp"

#include <cstdint>
#include <optional>
#include <utility>

#include "trace.hpp"

namespace e2e {

namespace ckpt = scrutiny::ckpt;

namespace {

/// Sums the duration of many short calls into one pass record.
class PassClock {
 public:
  explicit PassClock(const char* name) : name_(name) {}
  ~PassClock() {
    Tracer::add_pass(name_, calls_, busy_ns_, first_ns_, last_ns_);
  }

  PassClock(const PassClock&) = delete;
  PassClock& operator=(const PassClock&) = delete;
  PassClock(PassClock&&) = delete;
  PassClock& operator=(PassClock&&) = delete;

  template <typename Fn>
  void time(Fn&& fn) {
    if (!Tracer::enabled()) {
      fn();
      return;
    }
    const std::int64_t start = Tracer::now_ns();
    fn();
    const std::int64_t end = Tracer::now_ns();
    if (calls_ == 0) first_ns_ = start;
    last_ns_ = end;
    busy_ns_ += end - start;
    ++calls_;
  }

 private:
  const char* name_;
  std::uint64_t calls_ = 0;
  std::int64_t busy_ns_ = 0;
  std::int64_t first_ns_ = 0;
  std::int64_t last_ns_ = 0;
};

class TimedWriter final : public ckpt::StorageWriter {
 public:
  explicit TimedWriter(std::unique_ptr<ckpt::StorageWriter> inner)
      : inner_(std::move(inner)) {}

  void append(const void* data, std::size_t size) override {
    appends_.time([&] { inner_->append(data, size); });
  }
  void commit() override {
    const Span span("backend.commit");
    inner_->commit();
  }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept override {
    return inner_->bytes_written();
  }

 private:
  // Declared after inner_ so the pass is recorded before the inner writer
  // is dropped.
  std::unique_ptr<ckpt::StorageWriter> inner_;
  PassClock appends_{"backend.append"};
};

class TimedReader final : public ckpt::StorageReader {
 public:
  explicit TimedReader(std::unique_ptr<ckpt::StorageReader> inner)
      : inner_(std::move(inner)) {}

  void read(void* data, std::size_t size) override {
    reads_.time([&] { inner_->read(data, size); });
  }
  [[nodiscard]] std::uint64_t bytes_read() const noexcept override {
    return inner_->bytes_read();
  }
  [[nodiscard]] std::optional<std::uint64_t> size() const override {
    return inner_->size();
  }

 private:
  std::unique_ptr<ckpt::StorageReader> inner_;
  PassClock reads_{"backend.read"};
};

}  // namespace

TimedBackend::TimedBackend(std::shared_ptr<ckpt::StorageBackend> inner)
    : inner_(std::move(inner)) {}

std::unique_ptr<ckpt::StorageWriter> TimedBackend::open_for_write(
    const std::string& key) {
  const Span span("backend.open_write");
  return std::make_unique<TimedWriter>(inner_->open_for_write(key));
}

std::unique_ptr<ckpt::StorageReader> TimedBackend::open_for_read(
    const std::string& key) {
  const Span span("backend.open_read");
  return std::make_unique<TimedReader>(inner_->open_for_read(key));
}

bool TimedBackend::exists(const std::string& key) {
  return inner_->exists(key);
}

void TimedBackend::remove(const std::string& key) {
  const Span span("backend.remove");
  inner_->remove(key);
}

std::vector<std::string> TimedBackend::list(const std::string& prefix) {
  const Span span("backend.list");
  return inner_->list(prefix);
}

void TimedBackend::wait() { inner_->wait(); }

bool TimedBackend::drained() { return inner_->drained(); }

bool TimedBackend::hierarchical_keys() const {
  return inner_->hierarchical_keys();
}

std::string TimedBackend::name() const {
  return "timed(" + inner_->name() + ")";
}

}  // namespace e2e
