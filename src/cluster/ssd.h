// Node SSD: the middle tier of the storage hierarchy (disk -> SSD ->
// memory). Models what the buffer manager needs from a flash device used
// as a demotion target: capacity accounting for spilled migrated blocks
// and a fixed-rate read/write model well between disk and memory. Like
// Memory (and unlike the rotational Disk), it has no seek penalty, so
// fair-sharing is skipped and transfers are fixed-rate.
#pragma once

#include <functional>

#include "core/tier_store.h"
#include "common/check.h"
#include "common/timeseries.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace dyrs::cluster {

class Ssd final : public core::TierStore {
 public:
  struct Options {
    Bytes capacity = gib(512);
    Rate read_bandwidth = mib_per_sec(500);  // commodity SATA-SSD rate
  };

  Ssd(sim::Simulator& sim, Options opts) : sim_(sim), opts_(opts) {}

  // --- TierStore ---------------------------------------------------------
  Tier tier() const override { return Tier::Ssd; }
  Bytes capacity() const override { return opts_.capacity; }
  Bytes used() const override { return used_; }

  bool admit(Bytes bytes) override {
    DYRS_CHECK(bytes >= 0);
    if (used_ + bytes > opts_.capacity) return false;
    used_ += bytes;
    usage_.record(sim_.now(), static_cast<double>(used_));
    return true;
  }

  void release(Bytes bytes) override {
    DYRS_CHECK(bytes >= 0 && bytes <= used_);
    used_ -= bytes;
    usage_.record(sim_.now(), static_cast<double>(used_));
  }

  double read_seconds(Bytes bytes) const override {
    return static_cast<double>(bytes) / opts_.read_bandwidth;
  }

  // --- sim-side transfer model -------------------------------------------
  SimDuration read_time(Bytes bytes) const {
    return static_cast<SimDuration>(read_seconds(bytes) * 1e6);
  }

  /// Schedules an SSD read and invokes `done` at completion.
  void read(Bytes bytes, std::function<void()> done) {
    sim_.schedule_after(read_time(bytes), std::move(done));
  }

  /// Occupied-bytes step function over time — the SSD lane of the
  /// capacity-sweep footprint figures.
  const TimeSeries& usage_series() const { return usage_; }

 private:
  sim::Simulator& sim_;
  Options opts_;
  Bytes used_ = 0;
  TimeSeries usage_;
};

}  // namespace dyrs::cluster
