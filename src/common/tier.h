// Storage tiers of the migration target hierarchy (disk -> SSD -> memory).
//
// Shared vocabulary for the whole stack: the cluster hardware models
// (core::TierStore instances), the control-plane admission policy
// (core::TierPolicy), the buffer manager's residency tracking and the
// `mig_demote` lifecycle events all name tiers with this enum. Ordered so
// that a numerically lower tier is colder (slower, larger).
#pragma once

namespace dyrs {

enum class Tier { Disk = 0, Ssd = 1, Memory = 2 };

inline const char* to_string(Tier t) {
  switch (t) {
    case Tier::Disk: return "disk";
    case Tier::Ssd: return "ssd";
    case Tier::Memory: return "memory";
  }
  return "?";
}

/// The next tier downward (demotion direction); Disk demotes to itself.
inline Tier lower(Tier t) {
  switch (t) {
    case Tier::Memory: return Tier::Ssd;
    case Tier::Ssd: return Tier::Disk;
    case Tier::Disk: return Tier::Disk;
  }
  return Tier::Disk;
}

}  // namespace dyrs
