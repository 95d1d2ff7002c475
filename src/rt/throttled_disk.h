// Token-bucket throttled "disk" for the real-time runtime.
//
// The real-time runtime (rt::) runs the DYRS master/slave protocol with
// actual threads instead of simulated time. Reads block the calling thread
// for bytes/rate wall-clock time, like a synchronous pread from a device
// with the given bandwidth. The rate can be changed at any time
// (interference), affecting reads in progress proportionally: the one
// pacing loop (read_batch) re-checks the rate in small slices, so a
// slowdown mid-read lengthens the remainder, which is exactly the
// behaviour the overdue-estimate correction reacts to.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace dyrs::rt {

class ThrottledDisk {
 public:
  /// `bandwidth` in bytes per wall-clock second.
  explicit ThrottledDisk(Rate bandwidth) : nominal_(bandwidth), bandwidth_(bandwidth) {
    DYRS_CHECK(bandwidth > 0);
  }

  /// Effective rate: nominal * degradation.
  Rate bandwidth() const { return bandwidth_.load(std::memory_order_relaxed); }

  /// Reconfigures the device's nominal rate; any active degradation factor
  /// keeps applying multiplicatively, so a fault-injection episode can
  /// never clobber a reconfigured nominal rate (or vice versa).
  void set_nominal_bandwidth(Rate bandwidth) {
    DYRS_CHECK(bandwidth > 0);
    nominal_.store(bandwidth, std::memory_order_relaxed);
    update_effective();
  }

  /// Multiplicative bandwidth degradation episode (fault injection): the
  /// effective rate becomes nominal * factor until restored with 1.0.
  void set_degradation(double factor) {
    DYRS_CHECK(factor > 0);
    degradation_.store(factor, std::memory_order_relaxed);
    update_effective();
  }

  double degradation() const { return degradation_.load(std::memory_order_relaxed); }
  Rate nominal_bandwidth() const { return nominal_.load(std::memory_order_relaxed); }

  /// Blocks the caller for bytes/bandwidth seconds: a batch of one through
  /// read_batch(). `on_slice` runs once per slice — the rt slave publishes
  /// its heartbeat there, so a long read does not read as a silent node.
  /// Returns false if `cancelled` became true before the read finished.
  bool read(Bytes bytes, const std::atomic<bool>* cancelled = nullptr,
            const std::function<void()>& on_slice = nullptr) {
    std::function<bool(std::size_t)> item_cancelled;
    if (cancelled != nullptr) {
      item_cancelled = [cancelled](std::size_t) {
        return cancelled->load(std::memory_order_relaxed);
      };
    }
    return read_batch({bytes}, nullptr, on_slice, nullptr, item_cancelled) == 1;
  }

  /// The token bucket: serves `items` FIFO, sliced at ~1ms of work so
  /// mid-read bandwidth changes and cancellation take effect promptly. On
  /// Linux each sleep_for costs ~50-100us of timer overshoot, which would
  /// dominate the token time of sub-millisecond blocks if every slice slept.
  /// Instead the bucket tracks how far its served virtual time runs ahead of
  /// the wall clock and only sleeps once it is at least one slice ahead, so
  /// a batch of many small reads pays a handful of sleeps instead of one per
  /// block. The residual lead is slept out before returning, so every call
  /// — a batch of one included — takes at least sum(bytes)/bandwidth wall
  /// time.
  ///
  ///  * `aborted()` is polled per slice; true abandons the whole batch
  ///    (slave crash / stop) and returns immediately.
  ///  * `on_slice` runs once per slice — heartbeats.
  ///  * `on_start(i)` fires before item i consumes its first token;
  ///    returning false skips the item (cancelled while batched).
  ///  * `item_cancelled(i)` is polled per slice of item i and drops the
  ///    remainder of that item only; its on_done never fires and the batch
  ///    moves on.
  ///  * `on_done(i, service_s)` fires when item i is fully served.
  ///    `service_s` is the item's token-bucket service time — the duration
  ///    a bandwidth estimator should learn. (Wall time would undercount
  ///    items that complete inside an un-slept lead window.)
  ///
  /// Returns the number of items fully served.
  std::size_t read_batch(const std::vector<Bytes>& items,
                         const std::function<bool()>& aborted = nullptr,
                         const std::function<void()>& on_slice = nullptr,
                         const std::function<bool(std::size_t)>& on_start = nullptr,
                         const std::function<bool(std::size_t)>& item_cancelled = nullptr,
                         const std::function<void(std::size_t, double)>& on_done = nullptr) {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    double virtual_us = 0;  // token time served across the batch so far
    std::size_t served = 0;

    const auto lead_us = [&] {
      const double elapsed =
          std::chrono::duration<double, std::micro>(clock::now() - t0).count();
      return virtual_us - elapsed;
    };

    for (std::size_t i = 0; i < items.size(); ++i) {
      if (aborted && aborted()) return served;
      if (on_start && !on_start(i)) continue;
      DYRS_CHECK(items[i] > 0);
      double remaining = static_cast<double>(items[i]);
      double item_us = 0;
      bool dropped = false;
      while (remaining > 0) {
        if (aborted && aborted()) return served;
        if (item_cancelled && item_cancelled(i)) {
          dropped = true;
          break;
        }
        if (on_slice) on_slice();
        const double rate = bandwidth_.load(std::memory_order_relaxed);
        // Slice: at most 1ms of work, so rate changes bite quickly.
        const double slice_bytes = std::min(remaining, rate / 1000.0);
        const double slice_us = slice_bytes / rate * 1e6;
        virtual_us += slice_us;
        item_us += slice_us;
        remaining -= slice_bytes;
        const double lead = lead_us();
        if (lead >= 1000.0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(static_cast<std::int64_t>(lead)));
        }
      }
      if (dropped) continue;
      if (on_done) on_done(i, item_us / 1e6);
      ++served;
    }
    // Drain the residual lead so the call's aggregate pacing matches the
    // configured bandwidth exactly before control returns to the caller.
    const double lead = lead_us();
    if (lead > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<std::int64_t>(lead) + 1));
    }
    return served;
  }

 private:
  void update_effective() {
    bandwidth_.store(nominal_.load(std::memory_order_relaxed) *
                         degradation_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }

  std::atomic<Rate> nominal_;
  std::atomic<double> degradation_{1.0};
  std::atomic<Rate> bandwidth_;  // cached nominal * degradation
};

}  // namespace dyrs::rt
