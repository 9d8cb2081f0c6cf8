// TimedBackend: a ckpt::StorageBackend decorator that records a span around
// every call the checkpoint layer makes into the real backend.
//
// It wraps the backend in traced and untraced runs alike, so both run the
// same code; clocks are read only when tracing is on.  open_write, commit,
// open_read, list and remove are one span per call.  append and read calls
// are far more numerous (a pruned restore reads each region bound
// separately), so each writer or reader reports its calls as one pass when
// it is destroyed.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ckpt/storage_backend.hpp"

namespace e2e {

class TimedBackend final : public scrutiny::ckpt::StorageBackend {
 public:
  explicit TimedBackend(
      std::shared_ptr<scrutiny::ckpt::StorageBackend> inner);

  [[nodiscard]] std::unique_ptr<scrutiny::ckpt::StorageWriter> open_for_write(
      const std::string& key) override;
  [[nodiscard]] std::unique_ptr<scrutiny::ckpt::StorageReader> open_for_read(
      const std::string& key) override;
  [[nodiscard]] bool exists(const std::string& key) override;
  void remove(const std::string& key) override;
  [[nodiscard]] std::vector<std::string> list(
      const std::string& prefix) override;
  void wait() override;
  [[nodiscard]] bool drained() override;
  [[nodiscard]] bool hierarchical_keys() const override;
  [[nodiscard]] std::string name() const override;

 private:
  std::shared_ptr<scrutiny::ckpt::StorageBackend> inner_;
};

}  // namespace e2e
