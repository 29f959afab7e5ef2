// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms for the telemetry layer (DESIGN.md §10).
//
// The hot path is lock-free: counter and histogram writes go to a
// per-thread shard of relaxed atomics (one cache-friendly slot array per
// thread, registered once on first use), so instrumented kernels never
// contend on a shared line and the layer is race-free under TSan by
// construction. Gauges are single relaxed atomic cells (last write wins).
// snapshot() takes the registration mutex — held only by registration and
// snapshots, never by metric updates — and merges every shard.
//
// Metrics are observation only: nothing read from the registry may feed
// back into simulation arithmetic, so enabling telemetry cannot move a
// float. Registration is idempotent by name; a name may not change kind.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/quantile.hpp"

namespace spatl::obs {

class MetricsRegistry;

/// Monotonic event count. Copyable value handle; add/increment are
/// relaxed atomic adds on the calling thread's shard.
class Counter {
 public:
  Counter() = default;
  inline void add(std::uint64_t n);
  void increment() { add(1); }

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* registry, std::uint32_t slot)
      : registry_(registry), slot_(slot) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Last-write-wins instantaneous value (queue depth, utilization, ratios).
class Gauge {
 public:
  Gauge() = default;
  void set(double v) {
    if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<double>* cell) : cell_(cell) {}
  std::atomic<double>* cell_ = nullptr;
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds in
/// ascending order plus an implicit overflow bucket. The running sum is
/// kept in signed micro-units (1e-6 resolution) so it stays a single
/// atomic add; telemetry precision, not accounting precision.
class Histogram {
 public:
  Histogram() = default;
  inline void record(double value);

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* registry, std::uint32_t base,
            const std::vector<double>* bounds)
      : registry_(registry), base_(base), bounds_(bounds) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t base_ = 0;                      // first bucket slot
  const std::vector<double>* bounds_ = nullptr; // registry-owned
};

/// Named quantile sketch handle (LogBucketSketch, DESIGN.md §10.1).
/// Unlike counters/histograms, records take a dedicated registry mutex —
/// sketches serve cold paths only (once-per-round latency totals), where
/// bounded-relative-error percentiles matter more than lock-freedom.
class Sketch {
 public:
  Sketch() = default;
  inline void record(double value);

 private:
  friend class MetricsRegistry;
  Sketch(MetricsRegistry* registry, std::size_t index)
      : registry_(registry), index_(index) {}
  MetricsRegistry* registry_ = nullptr;
  std::size_t index_ = 0;
};

struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  /// Quantile sketches (own name plane, e.g. the runner's per-phase
  /// "fl.train.round_ms" latency; a sketch may share a histogram's name).
  std::map<std::string, SketchSnapshot> sketches;
};

class MetricsRegistry {
 public:
  /// Process-wide registry (never destroyed before exit).
  static MetricsRegistry& instance();

  /// Register-or-look-up by name. Throws std::invalid_argument when the
  /// name is already bound to a different kind (or different histogram
  /// bounds), std::length_error when the shard slot budget is exhausted.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name, std::vector<double> bounds);
  /// Named quantile sketch (separate name plane from the slot-backed
  /// kinds). Throws std::invalid_argument when the name is already bound
  /// to a different relative accuracy.
  Sketch sketch(const std::string& name, double relative_accuracy = 0.01);

  /// Merge every thread's shard into one consistent view.
  MetricsSnapshot snapshot() const;

  /// Zero every counter/histogram slot and gauge cell; registrations and
  /// handles stay valid. Test isolation only — not thread-safe against
  /// concurrent metric updates.
  void reset();

  // --- hot-path internals (public for the inline handles) ----------------

  /// Slot budget per shard; registration throws once exceeded.
  static constexpr std::size_t kSlotCapacity = 1024;

  struct Shard {
    std::array<std::atomic<std::uint64_t>, kSlotCapacity> slots;
    Shard() {
      for (auto& s : slots) s.store(0, std::memory_order_relaxed);
    }
  };

  /// The calling thread's shard (registered under the mutex on first use,
  /// then cached in a thread_local — no lock afterwards).
  Shard& local_shard() {
    thread_local Shard* shard = &register_shard();
    return *shard;
  }

 private:
  MetricsRegistry() = default;

  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind = Kind::kCounter;
    std::uint32_t slot = 0;            // counter / histogram base slot
    std::atomic<double>* gauge = nullptr;
    const std::vector<double>* bounds = nullptr;
  };

  Shard& register_shard();
  std::uint32_t allocate_slots(std::size_t n);
  std::uint64_t sum_slot(std::uint32_t slot) const;

  friend class Sketch;
  void record_sketch(std::size_t index, double value);

  mutable std::mutex mu_;
  std::deque<std::unique_ptr<Shard>> shards_;        // guarded by mu_
  std::map<std::string, Entry> entries_;             // guarded by mu_
  std::deque<std::atomic<double>> gauge_cells_;      // stable references
  std::deque<std::vector<double>> histogram_bounds_; // stable references
  std::size_t next_slot_ = 0;                        // guarded by mu_

  // Sketch plane: its own mutex so a (cold-path) record never contends
  // with registration. Lock order when both are needed: mu_, sketch_mu_.
  mutable std::mutex sketch_mu_;
  std::map<std::string, std::size_t> sketch_names_;  // guarded by sketch_mu_
  std::deque<LogBucketSketch> sketch_store_;         // stable references
};

inline void Counter::add(std::uint64_t n) {
  if (registry_ == nullptr) return;
  registry_->local_shard().slots[slot_].fetch_add(n,
                                                  std::memory_order_relaxed);
}

inline void Sketch::record(double value) {
  if (registry_ == nullptr) return;
  registry_->record_sketch(index_, value);
}

inline void Histogram::record(double value) {
  if (registry_ == nullptr) return;
  auto& slots = registry_->local_shard().slots;
  std::size_t bucket = bounds_->size();  // overflow by default
  for (std::size_t i = 0; i < bounds_->size(); ++i) {
    if (value <= (*bounds_)[i]) {
      bucket = i;
      break;
    }
  }
  slots[base_ + bucket].fetch_add(1, std::memory_order_relaxed);
  // Sum travels as signed micro-units in the unsigned slot (two's
  // complement add is exact under wraparound; decoded on snapshot).
  const auto micros = static_cast<std::int64_t>(value * 1e6);
  slots[base_ + bounds_->size() + 1].fetch_add(
      static_cast<std::uint64_t>(micros), std::memory_order_relaxed);
}

}  // namespace spatl::obs
