#include "src/engine/trace_ring.h"

#include "src/base/string_util.h"

namespace apcm::engine {

namespace {

size_t RoundUpPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Kind-specific names for the a/b/c payload values; nullptr = unused.
struct FieldNames {
  const char* a;
  const char* b;
  const char* c;
};

FieldNames FieldNamesFor(TraceRing::Kind kind) {
  switch (kind) {
    case TraceRing::Kind::kRoundStart:
      return {"events", nullptr, nullptr};
    case TraceRing::Kind::kRoundEnd:
      return {"events", "matches", nullptr};
    case TraceRing::Kind::kRebuildSchedule:
      return {"live_subs", "compaction", nullptr};
    case TraceRing::Kind::kRebuildPublish:
      return {"build_ns", "compaction", nullptr};
    case TraceRing::Kind::kBackpressureBlock:
      return {"depth", nullptr, nullptr};
    case TraceRing::Kind::kBackpressureReject:
      return {"depth", nullptr, nullptr};
    case TraceRing::Kind::kEventStage:
      return {"trace_id", "stage", "t_stage_ns"};
  }
  return {"a", "b", "c"};
}

}  // namespace

TraceRing::TraceRing(size_t capacity)
    : slots_(capacity == 0 ? 0 : RoundUpPowerOfTwo(capacity)) {
  mask_ = slots_.empty() ? 0 : slots_.size() - 1;
}

std::string_view TraceRing::KindName(Kind kind) {
  switch (kind) {
    case Kind::kRoundStart:
      return "round_start";
    case Kind::kRoundEnd:
      return "round_end";
    case Kind::kRebuildSchedule:
      return "rebuild_schedule";
    case Kind::kRebuildPublish:
      return "rebuild_publish";
    case Kind::kBackpressureBlock:
      return "backpressure_block";
    case Kind::kBackpressureReject:
      return "backpressure_reject";
    case Kind::kEventStage:
      return "event_stage";
  }
  return "unknown";
}

void TraceRing::Record(Kind kind, uint64_t a, uint64_t b, uint64_t c) {
  if (slots_.empty()) return;
  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[static_cast<size_t>(seq) & mask_];
  // Seqlock write. Writers a full ring apart can race for one slot, and two
  // interleaved payloads under one committed stamp would be a torn span, so
  // a writer first claims the slot: it moves the stamp from an older
  // committed (even) value to its own in-progress (odd) value. A writer
  // that finds the slot in progress or already holding a newer span drops
  // its span — the ring is best-effort by design.
  const uint64_t writing = 2 * seq + 1;
  uint64_t stamp = slot.stamp.load(std::memory_order_relaxed);
  do {
    if ((stamp & 1) != 0 || stamp > writing) return;
  } while (!slot.stamp.compare_exchange_weak(stamp, writing,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed));
  // Release payload stores: a reader that loads any of them also sees the
  // claim above, so its stamp re-check catches the overlap.
  slot.t_ns.store(timer_.ElapsedNanos(), std::memory_order_release);
  slot.a.store(a, std::memory_order_release);
  slot.b.store(b, std::memory_order_release);
  slot.c.store(c, std::memory_order_release);
  slot.kind.store(static_cast<uint8_t>(kind), std::memory_order_release);
  // Publish with release order so a reader that observes the committed
  // stamp also observes the payload.
  slot.stamp.store(2 * (seq + 1), std::memory_order_release);
}

std::vector<TraceRing::Span> TraceRing::Snapshot() const {
  std::vector<Span> spans;
  if (slots_.empty()) return spans;
  const uint64_t head = next_.load(std::memory_order_acquire);
  const uint64_t cap = slots_.size();
  const uint64_t first = head > cap ? head - cap : 0;
  spans.reserve(static_cast<size_t>(head - first));
  for (uint64_t seq = first; seq < head; ++seq) {
    const Slot& slot = slots_[static_cast<size_t>(seq) & mask_];
    const uint64_t expected = 2 * (seq + 1);
    if (slot.stamp.load(std::memory_order_acquire) != expected) continue;
    // Payload loads are acquire so the stamp re-check below cannot hoist
    // above them (GCC's TSan does not support atomic_thread_fence, which is
    // the usual way to order a seqlock read).
    Span span;
    span.seq = seq;
    span.t_ns = slot.t_ns.load(std::memory_order_acquire);
    span.a = slot.a.load(std::memory_order_acquire);
    span.b = slot.b.load(std::memory_order_acquire);
    span.c = slot.c.load(std::memory_order_acquire);
    span.kind = static_cast<Kind>(slot.kind.load(std::memory_order_acquire));
    // Re-check after copying: a writer that raced us bumped or invalidated
    // the stamp, making the copy unreliable.
    if (slot.stamp.load(std::memory_order_relaxed) != expected) continue;
    spans.push_back(span);
  }
  return spans;
}

std::string TraceRing::ToJson() const {
  const std::vector<Span> spans = Snapshot();
  std::string json = "{\"spans\":[";
  bool first_span = true;
  for (const Span& span : spans) {
    if (!first_span) json += ',';
    first_span = false;
    json += StringPrintf("{\"seq\":%llu,\"t_ns\":%lld,\"kind\":\"%s\"",
                         static_cast<unsigned long long>(span.seq),
                         static_cast<long long>(span.t_ns),
                         std::string(KindName(span.kind)).c_str());
    const FieldNames names = FieldNamesFor(span.kind);
    if (names.a != nullptr) {
      json += StringPrintf(",\"%s\":%llu", names.a,
                           static_cast<unsigned long long>(span.a));
    }
    if (names.b != nullptr) {
      json += StringPrintf(",\"%s\":%llu", names.b,
                           static_cast<unsigned long long>(span.b));
    }
    if (names.c != nullptr) {
      json += StringPrintf(",\"%s\":%llu", names.c,
                           static_cast<unsigned long long>(span.c));
    }
    json += '}';
  }
  json += "]}";
  return json;
}

}  // namespace apcm::engine
