#include "src/store/checkpoint.h"

#include <utility>

#include "src/base/crc32c.h"
#include "src/base/macros.h"
#include "src/store/wal.h"

namespace apcm::store {
namespace {

constexpr std::string_view kMagic = "APCMCKP1";

Status Corrupt(const char* what) {
  return Status::IOError(std::string("corrupt checkpoint: ") + what);
}

}  // namespace

std::string EncodeCheckpoint(const CheckpointState& state) {
  std::string out;
  out.append(kMagic);
  ByteWriter writer(&out);
  writer.U64(state.wal_seq);
  writer.U32(state.next_sub_id);
  writer.U32(static_cast<uint32_t>(state.subscriptions.size()));
  for (const auto& [id, predicates] : state.subscriptions) {
    writer.U32(id);
    EncodePredicates(predicates, &writer);
  }
  writer.U32(static_cast<uint32_t>(state.priorities.size()));
  for (const auto& [id, priority] : state.priorities) {
    writer.U32(id);
    writer.F64(priority);
  }
  writer.U32(static_cast<uint32_t>(state.dnf_groups.size()));
  for (const auto& [external, internals] : state.dnf_groups) {
    writer.U32(external);
    writer.U32(static_cast<uint32_t>(internals.size()));
    for (const SubscriptionId internal : internals) writer.U32(internal);
  }
  if (!state.index_kind.empty()) {
    writer.U8(1);
    writer.Bytes(state.index_kind);
    writer.Bytes(state.index_image);
  } else {
    writer.U8(0);
  }
  writer.U32(MaskCrc32c(Crc32c(0, out.data(), out.size())));
  return out;
}

StatusOr<CheckpointState> DecodeCheckpoint(std::string_view data) {
  if (data.size() < kMagic.size() + sizeof(uint32_t)) {
    return Corrupt("too small");
  }
  if (data.substr(0, kMagic.size()) != kMagic) return Corrupt("bad magic");
  // Validate the trailing whole-file checksum before trusting any field.
  const size_t body_size = data.size() - sizeof(uint32_t);
  ByteReader crc_reader(data.substr(body_size));
  uint32_t masked_crc = 0;
  APCM_CHECK(crc_reader.U32(&masked_crc));
  if (Crc32c(0, data.data(), body_size) != UnmaskCrc32c(masked_crc)) {
    return Corrupt("checksum mismatch");
  }

  ByteReader reader(data.substr(kMagic.size(), body_size - kMagic.size()));
  CheckpointState state;
  uint32_t nsubs = 0;
  if (!reader.U64(&state.wal_seq) || !reader.U32(&state.next_sub_id) ||
      !reader.U32(&nsubs)) {
    return Corrupt("truncated header");
  }
  if (nsubs > reader.remaining() / 8) return Corrupt("implausible sub count");
  state.subscriptions.resize(nsubs);
  for (auto& [id, predicates] : state.subscriptions) {
    if (!reader.U32(&id) || !DecodePredicates(&reader, &predicates)) {
      return Corrupt("invalid subscription entry");
    }
  }
  uint32_t nprios = 0;
  if (!reader.U32(&nprios) || nprios > reader.remaining() / 12) {
    return Corrupt("implausible priority count");
  }
  state.priorities.resize(nprios);
  for (auto& [id, priority] : state.priorities) {
    if (!reader.U32(&id) || !reader.F64(&priority)) {
      return Corrupt("invalid priority entry");
    }
  }
  uint32_t ngroups = 0;
  if (!reader.U32(&ngroups) || ngroups > reader.remaining() / 8) {
    return Corrupt("implausible group count");
  }
  state.dnf_groups.resize(ngroups);
  for (auto& [external, internals] : state.dnf_groups) {
    uint32_t ninternals = 0;
    if (!reader.U32(&external) || !reader.U32(&ninternals) ||
        ninternals == 0 || ninternals > reader.remaining() / 4) {
      return Corrupt("invalid group entry");
    }
    internals.resize(ninternals);
    for (SubscriptionId& internal : internals) {
      if (!reader.U32(&internal)) return Corrupt("invalid group entry");
    }
  }
  uint8_t has_index = 0;
  if (!reader.U8(&has_index) || has_index > 2) {
    return Corrupt("invalid index flag");
  }
  if (has_index == 1) {
    std::string_view kind;
    std::string_view image;
    if (!reader.Bytes(&kind) || kind.empty() || !reader.Bytes(&image)) {
      return Corrupt("invalid index section");
    }
    state.index_kind.assign(kind);
    state.index_image.assign(image);
  } else if (has_index == 2) {
    // Retired per-shard images: validate the framing, drop the images, and
    // leave recovery to rebuild the index. Rejecting the checkpoint instead
    // would fall back to an older one whose WAL may already be truncated.
    std::string_view kind;
    uint32_t nshards = 0;
    if (!reader.Bytes(&kind) || kind.empty() || !reader.U32(&nshards) ||
        nshards == 0 || nshards > reader.remaining()) {
      return Corrupt("invalid shard index section");
    }
    for (uint32_t s = 0; s < nshards; ++s) {
      std::string_view image;
      if (!reader.Bytes(&image)) return Corrupt("invalid shard image");
    }
  }
  if (!reader.exhausted()) return Corrupt("trailing bytes");
  return state;
}

}  // namespace apcm::store
