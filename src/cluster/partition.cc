#include "src/cluster/partition.h"

#include <algorithm>

#include "src/base/macros.h"

namespace apcm::cluster {

PartitionMap::PartitionMap(uint32_t num_partitions, uint32_t num_backends) {
  APCM_CHECK(num_partitions > 0);
  APCM_CHECK(num_backends > 0);
  owner_.resize(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    owner_[p] = p % num_backends;
  }
  alive_.assign(num_backends, true);
  live_ = num_backends;
}

uint32_t PartitionMap::PartitionOf(uint64_t id, uint32_t num_partitions) {
  // splitmix64 finalizer: a stable, well-mixed function of the id alone, so
  // a subscription's partition survives restarts and topology changes.
  uint64_t x = id + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<uint32_t>(x % num_partitions);
}

std::vector<uint32_t> PartitionMap::PartitionsOf(uint32_t slot) const {
  std::vector<uint32_t> partitions;
  for (uint32_t p = 0; p < owner_.size(); ++p) {
    if (owner_[p] == slot) partitions.push_back(p);
  }
  return partitions;
}

std::vector<PartitionMap::Move> PartitionMap::AddSlot() {
  const uint32_t slot = num_slots();
  alive_.push_back(true);
  ++live_;

  std::vector<uint32_t> load(num_slots(), 0);
  for (uint32_t o : owner_) ++load[o];

  // Steal until the new slot holds its fair share, taking each partition
  // from whichever live slot is currently the most loaded. Deterministic:
  // ties break toward the lowest slot, partitions are scanned ascending.
  const uint32_t share = num_partitions() / live_;
  std::vector<Move> moves;
  for (uint32_t taken = 0; taken < share; ++taken) {
    uint32_t victim = slot;
    for (uint32_t s = 0; s < num_slots(); ++s) {
      if (s != slot && alive_[s] && load[s] > load[victim]) victim = s;
    }
    if (victim == slot || load[victim] <= load[slot] + 1) break;
    for (uint32_t p = 0; p < num_partitions(); ++p) {
      if (owner_[p] == victim) {
        owner_[p] = slot;
        --load[victim];
        ++load[slot];
        moves.push_back(Move{p, victim, slot});
        break;
      }
    }
  }
  std::sort(moves.begin(), moves.end(),
            [](const Move& a, const Move& b) {
              return a.partition < b.partition;
            });
  return moves;
}

std::vector<PartitionMap::Move> PartitionMap::RemoveSlot(uint32_t slot) {
  APCM_CHECK(slot < num_slots());
  APCM_CHECK(alive_[slot]);
  APCM_CHECK(live_ > 1);
  alive_[slot] = false;
  --live_;

  std::vector<uint32_t> load(num_slots(), 0);
  for (uint32_t o : owner_) ++load[o];

  // Deal the dead slot's partitions to the least-loaded live slots.
  std::vector<Move> moves;
  for (uint32_t p = 0; p < num_partitions(); ++p) {
    if (owner_[p] != slot) continue;
    uint32_t heir = num_slots();
    for (uint32_t s = 0; s < num_slots(); ++s) {
      if (!alive_[s]) continue;
      if (heir == num_slots() || load[s] < load[heir]) heir = s;
    }
    APCM_CHECK(heir < num_slots());
    owner_[p] = heir;
    --load[slot];
    ++load[heir];
    moves.push_back(Move{p, slot, heir});
  }
  return moves;
}

}  // namespace apcm::cluster
