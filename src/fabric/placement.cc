#include "fabric/placement.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"

namespace ustore::fabric {

namespace {

// Salt so a stripe's spare probe decorrelates from its original probe —
// otherwise the spare would start at the stripe's own (excluded) domains
// and waste a deterministic prefix of the cycle every time.
constexpr std::uint64_t kSpareSalt = 0xC2B2AE3D27D4EB4FULL;

}  // namespace

std::uint64_t StripeProbeHash(std::uint64_t seed, std::uint64_t stripe_id) {
  return SplitMix64(seed ^ SplitMix64(stripe_id));
}

DeclusteredPlacement::DeclusteredPlacement(PlacementOptions options)
    : options_(options) {
  assert(options_.data_chunks > 0 && options_.parity_chunks >= 0);
}

void DeclusteredPlacement::AddDomains(int count, int disks_per_domain) {
  assert(count > 0 && disks_per_domain > 0);
  for (int d = 0; d < count; ++d) {
    domain_first_disk_.push_back(disks());
    domain_size_.push_back(disks_per_domain);
    for (int i = 0; i < disks_per_domain; ++i) {
      disk_domain_.push_back(domains() - 1);
      disk_load_.push_back(0);
    }
  }
}

int DeclusteredPlacement::PickDiskInDomain(int domain) const {
  const int first = domain_first_disk_[domain];
  const int size = domain_size_[domain];
  int best = -1;
  for (int d = first; d < first + size; ++d) {
    if (best < 0 || disk_load_[d] < disk_load_[best]) best = d;
  }
  return best;
}

Result<StripePlacement> DeclusteredPlacement::PlaceStripe(
    std::uint64_t stripe_id) {
  const int width = options_.stripe_width();
  if (domains() < width) {
    return FailedPreconditionError(
        "stripe width " + std::to_string(width) + " needs >= " +
        std::to_string(width) + " failure domains, have " +
        std::to_string(domains()));
  }
  // Even-fill ceiling including this stripe's own chunks: a disk may be
  // accepted while strictly below it, so no disk ever exceeds it.
  int allowed = static_cast<int>(
      (chunks_placed_ + static_cast<std::uint64_t>(width) +
       static_cast<std::uint64_t>(disks()) - 1) /
      static_cast<std::uint64_t>(disks()));
  if (allowed < 1) allowed = 1;

  StripePlacement placement;
  placement.reserve(width);
  std::vector<bool> used(domains(), false);
  const int start =
      static_cast<int>(StripeProbeHash(options_.seed, stripe_id) %
                       static_cast<std::uint64_t>(domains()));
  while (static_cast<int>(placement.size()) < width) {
    int cycle_min = -1;  // least loaded candidate seen among rejections
    bool accepted_any = false;
    for (int step = 0; step < domains() &&
                       static_cast<int>(placement.size()) < width;
         ++step) {
      const int domain = (start + step) % domains();
      if (used[domain]) continue;
      const int disk = PickDiskInDomain(domain);
      if (disk_load_[disk] < allowed) {
        used[domain] = true;
        placement.push_back({domain, disk});
        ++disk_load_[disk];
        accepted_any = true;
      } else if (cycle_min < 0 || disk_load_[disk] < cycle_min) {
        cycle_min = disk_load_[disk];
      }
    }
    if (static_cast<int>(placement.size()) < width && !accepted_any) {
      // Sequential Checking relaxation: a full cycle found every remaining
      // domain at or above the ceiling (after a scale-out step, the old
      // disks sit above the shrunk even-fill line). Jump straight to the
      // least-loaded rejected candidate so one extra cycle always makes
      // progress.
      assert(cycle_min >= allowed);
      allowed = cycle_min + 1;
    }
  }
  peak_ceiling_ = std::max(peak_ceiling_, allowed);
  chunks_placed_ += static_cast<std::uint64_t>(width);
  return placement;
}

Result<ChunkLocation> DeclusteredPlacement::PlaceSpare(
    std::uint64_t stripe_id, const std::vector<int>& excluded_domains,
    int excluded_disk) {
  std::vector<bool> excluded(domains(), false);
  int available = domains();
  for (int domain : excluded_domains) {
    if (domain >= 0 && domain < domains() && !excluded[domain]) {
      excluded[domain] = true;
      --available;
    }
  }
  if (available <= 0) {
    return ResourceExhaustedError("no failure domain left for spare chunk");
  }
  int allowed = static_cast<int>(
      (chunks_placed_ + static_cast<std::uint64_t>(disks())) /
      static_cast<std::uint64_t>(disks()));
  if (allowed < 1) allowed = 1;
  const int start = static_cast<int>(
      StripeProbeHash(options_.seed ^ kSpareSalt, stripe_id) %
      static_cast<std::uint64_t>(domains()));
  for (;;) {
    int cycle_min = -1;
    for (int step = 0; step < domains(); ++step) {
      const int domain = (start + step) % domains();
      if (excluded[domain]) continue;
      int disk = PickDiskInDomain(domain);
      if (disk == excluded_disk) {
        // Least-loaded member is the failed disk itself: take the next
        // least-loaded member, or skip a single-disk domain entirely.
        const int first = domain_first_disk_[domain];
        disk = -1;
        for (int d = first; d < first + domain_size_[domain]; ++d) {
          if (d == excluded_disk) continue;
          if (disk < 0 || disk_load_[d] < disk_load_[disk]) disk = d;
        }
        if (disk < 0) continue;
      }
      if (disk_load_[disk] < allowed) {
        ++disk_load_[disk];
        ++chunks_placed_;
        peak_ceiling_ = std::max(peak_ceiling_, allowed);
        return ChunkLocation{domain, disk};
      }
      if (cycle_min < 0 || disk_load_[disk] < cycle_min) {
        cycle_min = disk_load_[disk];
      }
    }
    if (cycle_min < 0) {
      return ResourceExhaustedError("no disk left for spare chunk");
    }
    allowed = cycle_min + 1;
  }
}

void DeclusteredPlacement::ReleaseChunk(const ChunkLocation& loc) {
  assert(loc.disk >= 0 && loc.disk < disks() && disk_load_[loc.disk] > 0);
  --disk_load_[loc.disk];
  --chunks_placed_;
}

int DeclusteredPlacement::BalanceBound() const {
  return std::max(peak_ceiling_, 1);
}

}  // namespace ustore::fabric
