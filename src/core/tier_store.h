// TierStore — the unified capacity/admission surface of one storage tier.
//
// The sim's cluster::Disk, Ssd and Memory all implement it, so the buffer
// manager tracks residency and applies pressure policy against an abstract
// tier instead of a concrete cluster::Memory&. The interface lives in core
// and is deliberately free of simulator types: the rt backend accounts its pinned heap buffers and
// SSD spillover through CountingTier instances, so one BufferManager
// serves both backends and their tier decisions come out identical.
#pragma once

#include <limits>

#include "common/check.h"
#include "common/tier.h"
#include "common/units.h"

namespace dyrs::core {

class TierStore {
 public:
  virtual ~TierStore() = default;

  virtual Tier tier() const = 0;
  virtual Bytes capacity() const = 0;
  virtual Bytes used() const = 0;

  /// Attempts to reserve `bytes` in this tier. Returns false (no state
  /// change) if the tier would exceed its capacity.
  virtual bool admit(Bytes bytes) = 0;

  /// Releases previously admitted bytes.
  virtual void release(Bytes bytes) = 0;

  /// Unloaded time to read `bytes` from this tier — the read-time model a
  /// tier-aware placement policy compares (memory ~ns/MiB, SSD in between,
  /// disk the paper's 160x slower end).
  virtual double read_seconds(Bytes bytes) const = 0;

  Bytes available() const { return capacity() - used(); }
};

/// Plain-counter TierStore for the rt backend and unit tests: no clock, no
/// fair sharing, just capacity accounting and a fixed-rate read model.
/// Capacity 0 means unbounded.
class CountingTier final : public TierStore {
 public:
  CountingTier(Tier tier, Bytes capacity, Rate read_bandwidth)
      : tier_(tier), capacity_(capacity), read_bandwidth_(read_bandwidth) {
    DYRS_CHECK(read_bandwidth_ > 0);
  }

  Tier tier() const override { return tier_; }
  Bytes capacity() const override {
    return capacity_ > 0 ? capacity_ : std::numeric_limits<Bytes>::max();
  }
  Bytes used() const override { return used_; }

  bool admit(Bytes bytes) override {
    DYRS_CHECK(bytes >= 0);
    if (used_ + bytes > capacity()) return false;
    used_ += bytes;
    return true;
  }

  void release(Bytes bytes) override {
    DYRS_CHECK(bytes >= 0 && bytes <= used_);
    used_ -= bytes;
  }

  double read_seconds(Bytes bytes) const override {
    return static_cast<double>(bytes) / read_bandwidth_;
  }

 private:
  Tier tier_;
  Bytes capacity_;
  Rate read_bandwidth_;
  Bytes used_ = 0;
};

}  // namespace dyrs::core
