#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"

namespace ustore::obs {

namespace {

// (seq << 32) | slot. Record() spans never live in the slab, so they use a
// slot value no slab index can reach.
constexpr std::uint64_t MakeSpanId(std::uint32_t seq, std::uint32_t slot) {
  return (static_cast<std::uint64_t>(seq) << 32) | slot;
}

// Renders a SpanAttr into an existing pair, reusing whatever string
// capacity the destination already holds (ring slots recycle theirs).
void AssignAttr(std::pair<std::string, std::string>& dst,
                const SpanAttr& attr) {
  dst.first.assign(attr.key);
  if (attr.numeric) {
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), attr.nval);
    (void)ec;
    dst.second.assign(buf, static_cast<std::size_t>(end - buf));
  } else {
    dst.second.assign(attr.sval);
  }
}

void AppendAttrs(TraceSpan& span, std::initializer_list<SpanAttr> attrs) {
  for (const SpanAttr& attr : attrs) AssignAttr(span.attrs.emplace_back(), attr);
}

}  // namespace

SpanId TraceBuffer::Begin(std::string_view component, std::string_view name,
                          TraceContext ctx) {
  return StartAt(component, name, now(), ctx);
}

SpanId TraceBuffer::Begin(std::string_view component, std::string_view name,
                          TraceContext ctx,
                          std::initializer_list<SpanAttr> attrs) {
  const SpanId id = StartAt(component, name, now(), ctx);
  if (id == kInvalidSpan || id == kUnsampledSpan) return id;
  // StartAt just placed the span, so the slot lookup is a warm hit.
  AppendAttrs(open_slots_[static_cast<std::uint32_t>(id & 0xFFFFFFFFu)].span,
              attrs);
  return id;
}

bool TraceBuffer::Sampled(const TraceContext& ctx) {
  // Inside a trace, the root already decided: suppressed trees carry the
  // kUnsampledSpan marker as their trace_id.
  if (ctx.active()) return ctx.trace_id != kUnsampledSpan;
  // A new root: deterministic 1-in-N.
  return sample_every_ <= 1 || sample_counter_++ % sample_every_ == 0;
}

SpanId TraceBuffer::StartAt(std::string_view component, std::string_view name,
                            sim::Time start, TraceContext ctx) {
  if (!enabled_) return kInvalidSpan;
  if (!Sampled(ctx)) return kUnsampledSpan;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(open_slots_.size());
    open_slots_.emplace_back();
  }
  OpenSlot& entry = open_slots_[slot];
  TraceSpan& span = entry.span;
  span.id = MakeSpanId(next_seq_++, slot);
  span.trace_id = ctx.active() ? ctx.trace_id : span.id;
  span.parent = ctx.active() ? ctx.parent : kInvalidSpan;
  span.component.assign(component);
  span.name.assign(name);
  span.start = start;
  span.end = -1;
  span.attrs.clear();
  entry.in_use = true;
  ++open_count_;
  return span.id;
}

TraceSpan* TraceBuffer::FindOpen(SpanId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  if (id == kInvalidSpan || slot >= open_slots_.size()) return nullptr;
  OpenSlot& entry = open_slots_[slot];
  if (!entry.in_use || entry.span.id != id) return nullptr;
  return &entry.span;
}

const TraceSpan* TraceBuffer::FindOpen(SpanId id) const {
  return const_cast<TraceBuffer*>(this)->FindOpen(id);
}

void TraceBuffer::Annotate(SpanId id, std::string_view key,
                           std::string_view value) {
  TraceSpan* span = FindOpen(id);
  if (span == nullptr) return;
  auto& attr = span->attrs.emplace_back();
  attr.first.assign(key);
  attr.second.assign(value);
}

void TraceBuffer::End(SpanId id) { EndAt(id, now()); }

void TraceBuffer::EndAt(SpanId id, sim::Time end) {
  TraceSpan* span = FindOpen(id);
  if (span == nullptr) return;
  span->end = end;
  PushCompleted(*span);
  open_slots_[static_cast<std::uint32_t>(id & 0xFFFFFFFFu)].in_use = false;
  free_slots_.push_back(static_cast<std::uint32_t>(id & 0xFFFFFFFFu));
  --open_count_;
}

void TraceBuffer::EndWith(SpanId id, std::initializer_list<SpanAttr> attrs) {
  EndAtWith(id, now(), attrs);
}

void TraceBuffer::EndAtWith(SpanId id, sim::Time end,
                            std::initializer_list<SpanAttr> attrs) {
  TraceSpan* span = FindOpen(id);
  if (span == nullptr) return;
  AppendAttrs(*span, attrs);
  span->end = end;
  PushCompleted(*span);
  open_slots_[static_cast<std::uint32_t>(id & 0xFFFFFFFFu)].in_use = false;
  free_slots_.push_back(static_cast<std::uint32_t>(id & 0xFFFFFFFFu));
  --open_count_;
}

SpanId TraceBuffer::Emit(std::string_view component, std::string_view name,
                         sim::Time start, sim::Time end, TraceContext ctx,
                         std::initializer_list<SpanAttr> attrs) {
  if (!enabled_) return kInvalidSpan;
  if (!Sampled(ctx)) return kUnsampledSpan;
  TraceSpan& span = *AcquireRingSlot();
  span.id = MakeSpanId(next_seq_++, kNoSlot);
  span.trace_id = ctx.active() ? ctx.trace_id : span.id;
  span.parent = ctx.active() ? ctx.parent : kInvalidSpan;
  span.component.assign(component);
  span.name.assign(name);
  span.start = start;
  span.end = end;
  // Overwrite the recycled slot's attrs in place so their string
  // capacities survive; only shrink (which destroys storage) when the new
  // span has fewer attrs than the evicted one.
  if (span.attrs.size() > attrs.size()) span.attrs.resize(attrs.size());
  std::size_t i = 0;
  for (const SpanAttr& attr : attrs) {
    if (i < span.attrs.size()) {
      AssignAttr(span.attrs[i], attr);
    } else {
      AssignAttr(span.attrs.emplace_back(), attr);
    }
    ++i;
  }
  return span.id;
}

TraceContext TraceBuffer::ContextFor(SpanId id) const {
  if (id == kUnsampledSpan) return {kUnsampledSpan, kUnsampledSpan};
  const TraceSpan* span = FindOpen(id);
  if (span == nullptr) return {};
  return {span->trace_id, span->id};
}

void TraceBuffer::Record(std::string_view component, std::string_view name,
                         sim::Time start, sim::Time end,
                         std::vector<std::pair<std::string, std::string>> attrs,
                         TraceContext ctx) {
  if (!enabled_) return;
  if (!Sampled(ctx)) return;
  TraceSpan span;
  span.id = MakeSpanId(next_seq_++, kNoSlot);
  span.trace_id = ctx.active() ? ctx.trace_id : span.id;
  span.parent = ctx.active() ? ctx.parent : kInvalidSpan;
  span.component.assign(component);
  span.name.assign(name);
  span.start = start;
  span.end = end;
  span.attrs = std::move(attrs);
  PushCompleted(span);
}

void TraceBuffer::PushCompleted(TraceSpan& span) {
  if (ring_count_ < capacity_) {
    if (ring_.size() < capacity_) {
      // Lazy growth until the ring reaches capacity; after that slots are
      // recycled in place and retain their string/vector storage.
      ring_.push_back(std::move(span));
      ++ring_count_;
      return;
    }
    std::size_t tail = ring_head_ + ring_count_;
    if (tail >= ring_.size()) tail -= ring_.size();
    ring_[tail] = std::move(span);
    ++ring_count_;
    return;
  }
  // Full: overwrite the oldest. Swap so the evicted span's capacities flow
  // back into `span`'s storage (an open slab slot or Record() local).
  std::swap(ring_[ring_head_], span);
  ring_head_ = ring_head_ + 1 == ring_.size() ? 0 : ring_head_ + 1;
  ++dropped_;
}

TraceSpan* TraceBuffer::AcquireRingSlot() {
  if (ring_count_ < capacity_) {
    if (ring_.size() < capacity_) {
      ring_.emplace_back();
      ++ring_count_;
      return &ring_.back();
    }
    std::size_t tail = ring_head_ + ring_count_;
    if (tail >= ring_.size()) tail -= ring_.size();
    ++ring_count_;
    return &ring_[tail];
  }
  TraceSpan* slot = &ring_[ring_head_];
  ring_head_ = ring_head_ + 1 == ring_.size() ? 0 : ring_head_ + 1;
  ++dropped_;
  return slot;
}

std::vector<TraceSpan> TraceBuffer::CompletedInOrder() const {
  std::vector<TraceSpan> out;
  out.reserve(ring_count_);
  for (std::size_t i = 0; i < ring_count_; ++i) {
    std::size_t idx = ring_head_ + i;
    if (idx >= ring_.size()) idx -= ring_.size();
    out.push_back(ring_[idx]);
  }
  return out;
}

void TraceBuffer::set_capacity(std::size_t capacity) {
  capacity_ = std::max<std::size_t>(capacity, 1);
  if (ring_count_ <= capacity_) {
    // Re-pack so lazy growth / recycling stay consistent with the new cap.
    std::vector<TraceSpan> keep = CompletedInOrder();
    ring_ = std::move(keep);
    ring_head_ = 0;
    return;
  }
  const std::size_t evict = ring_count_ - capacity_;
  dropped_ += evict;
  std::vector<TraceSpan> keep;
  keep.reserve(capacity_);
  for (std::size_t i = evict; i < ring_count_; ++i) {
    std::size_t idx = ring_head_ + i;
    if (idx >= ring_.size()) idx -= ring_.size();
    keep.push_back(std::move(ring_[idx]));
  }
  ring_ = std::move(keep);
  ring_head_ = 0;
  ring_count_ = capacity_;
}

void TraceBuffer::Clear() {
  // next_seq_ is deliberately NOT reset: SpanIds stay unique across Clear()
  // so a stale id held through a Clear() cannot alias a new span.
  open_slots_.clear();
  free_slots_.clear();
  open_count_ = 0;
  ring_.clear();
  ring_head_ = 0;
  ring_count_ = 0;
  dropped_ = 0;
  sample_counter_ = 0;  // same workload + same rate -> same sampled traces
}

// Tracer() is defined in metrics.cc next to Metrics(): both singleton
// accessors share the thread-local override slots that ScopedObsBinding
// installs for parallel fleet units.

namespace {

std::vector<TraceSpan> SortedByStart(std::vector<TraceSpan> spans) {
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.id < b.id;
                   });
  return spans;
}

}  // namespace

std::string FormatTimeline(const TraceBuffer& buffer) {
  const std::vector<TraceSpan> spans = SortedByStart(buffer.CompletedInOrder());

  std::string out;
  char line[256];
  for (const TraceSpan& span : spans) {
    std::snprintf(line, sizeof(line), "[%12.6fs .. %12.6fs] %10.3fms  %-18s %-16s",
                  sim::ToSeconds(span.start), sim::ToSeconds(span.end),
                  sim::ToMillis(span.duration()), span.component.c_str(),
                  span.name.c_str());
    out += line;
    for (const auto& [key, value] : span.attrs) {
      out += " " + key + "=" + value;
    }
    out += "\n";
  }
  if (buffer.dropped() > 0) {
    std::snprintf(line, sizeof(line), "(+%llu older spans evicted)\n",
                  static_cast<unsigned long long>(buffer.dropped()));
    out += line;
  }
  return out;
}

std::string DumpTraceJson(const std::vector<TraceSpan>& unsorted) {
  const std::vector<TraceSpan> spans = SortedByStart(unsorted);
  std::unordered_set<SpanId> present;
  present.reserve(spans.size());
  for (const TraceSpan& span : spans) present.insert(span.id);

  std::string out = "[";
  bool first = true;
  for (const TraceSpan& span : spans) {
    out += first ? "\n" : ",\n";
    first = false;
    // A parent evicted from the buffer (or still open) would dangle; export
    // re-roots the surviving subtree instead.
    const SpanId parent =
        present.count(span.parent) != 0 ? span.parent : kInvalidSpan;
    out += "  {\"id\": " + std::to_string(span.id) +
           ", \"trace_id\": " + std::to_string(span.trace_id) +
           ", \"parent\": " + std::to_string(parent) +
           ", \"component\": \"" + span.component + "\", \"name\": \"" +
           span.name + "\", \"start_ns\": " + std::to_string(span.start) +
           ", \"end_ns\": " + std::to_string(span.end) + ", \"attrs\": {";
    bool first_attr = true;
    for (const auto& [key, value] : span.attrs) {
      if (!first_attr) out += ", ";
      first_attr = false;
      out += "\"" + key + "\": \"" + value + "\"";
    }
    out += "}}";
  }
  out += first ? "]" : "\n]";
  return out;
}

std::string DumpTraceJson(const TraceBuffer& buffer) {
  return DumpTraceJson(buffer.CompletedInOrder());
}

std::string DumpChromeTraceJson(const std::vector<TraceSpan>& unsorted) {
  const std::vector<TraceSpan> spans = SortedByStart(unsorted);

  // One deterministic tid per component, assigned by sorted component name,
  // so trace rows group by subsystem in the Perfetto UI.
  std::vector<std::string> components;
  for (const TraceSpan& span : spans) components.push_back(span.component);
  std::sort(components.begin(), components.end());
  components.erase(std::unique(components.begin(), components.end()),
                   components.end());
  std::unordered_map<std::string, int> tid;
  for (std::size_t i = 0; i < components.size(); ++i) {
    tid[components[i]] = static_cast<int>(i + 1);
  }

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buf[64];
  bool first = true;
  for (const std::string& component : components) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(tid[component]) +
           ", \"name\": \"thread_name\", \"args\": {\"name\": \"" + component +
           "\"}}";
  }
  for (const TraceSpan& span : spans) {
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.3f", span.start / 1000.0);
    out += "  {\"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(tid[span.component]) + ", \"ts\": " + buf;
    std::snprintf(buf, sizeof(buf), "%.3f", span.duration() / 1000.0);
    out += std::string(", \"dur\": ") + buf + ", \"name\": \"" + span.name +
           "\", \"cat\": \"" + span.component + "\", \"args\": {\"trace_id\": \"" +
           std::to_string(span.trace_id) + "\", \"span_id\": \"" +
           std::to_string(span.id) + "\", \"parent\": \"" +
           std::to_string(span.parent) + "\"";
    for (const auto& [key, value] : span.attrs) {
      out += ", \"" + key + "\": \"" + value + "\"";
    }
    out += "}}";
  }
  out += first ? "]}" : "\n]}";
  return out;
}

std::string DumpChromeTraceJson(const TraceBuffer& buffer) {
  return DumpChromeTraceJson(buffer.CompletedInOrder());
}

std::uint64_t TraceDigest(const TraceBuffer& buffer) {
  return Fnv1a(DumpTraceJson(buffer));
}

}  // namespace ustore::obs
