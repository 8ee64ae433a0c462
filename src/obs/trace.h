// Bounded buffer of causally-linked trace spans over simulated time.
//
// A span covers one unit of work in one component — a disk I/O, an RPC, a
// Paxos election, a failover — with sim-time start/end stamps and free-form
// string attributes. Spans form per-request trees: a TraceContext
// {trace_id, parent_span} is propagated along the request path (ClientLib
// -> RPC envelope -> iSCSI target -> hw::Disk queue entry), so every span
// carries the id of the request tree it belongs to and of its parent span.
// Work that starts without a context (elections, heartbeats, background
// timers) becomes its own single-span tree. DESIGN.md §11 documents the
// propagation rules and the phase taxonomy built on top of these trees.
//
// The buffer is bounded: once `capacity` completed spans accumulate, the
// oldest are evicted (and counted in `dropped`), so long experiments pay a
// constant memory cost. Eviction degrades trees but never corrupts them:
// exporters rewrite parent ids that no longer resolve to 0, so a surviving
// subtree re-roots instead of dangling.
//
// Hot-path design: open spans live in a slot slab (free-list indexed by the
// low half of the SpanId — no hashing, no per-span node allocation) and
// completed spans in a recycling ring whose slots keep their string/vector
// capacities, so steady-state span emission allocates nothing. The
// tracing-vs-off overhead on the data-plane hot path is pinned by
// bench_obs.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace ustore::obs {

using SpanId = std::uint64_t;
inline constexpr SpanId kInvalidSpan = 0;
// Sentinel id for spans suppressed by head sampling (set_sample_every):
// every operation on it is a no-op, like kInvalidSpan, but a context
// derived from it still marks "inside an unsampled trace" — so an
// unsampled root's descendants are suppressed with it instead of starting
// new trees. Real ids always have a non-zero sequence in their high half,
// so neither sentinel can collide with one.
inline constexpr SpanId kUnsampledSpan = 1;

// Causal position propagated along a request path. `trace_id` is the
// SpanId of the tree's root span; an inactive context (trace_id 0) makes
// the next span a root of its own tree.
struct TraceContext {
  std::uint64_t trace_id = 0;
  SpanId parent = kInvalidSpan;
  bool active() const { return trace_id != 0; }
};

struct TraceSpan {
  SpanId id = kInvalidSpan;
  std::uint64_t trace_id = 0;      // root span id of this span's tree
  SpanId parent = kInvalidSpan;    // 0 for roots
  std::string component;  // e.g. "disk:u0-d3", "rpc", "master"
  std::string name;       // e.g. "io", "spin_up", "failover"
  sim::Time start = 0;
  sim::Time end = -1;  // -1 while open
  std::vector<std::pair<std::string, std::string>> attrs;

  sim::Duration duration() const { return end < start ? 0 : end - start; }
};

// A pre-rendered attribute for the single-call span APIs. String values
// are referenced (not copied) until the tracer stores them; integer values
// are formatted by the tracer with std::to_chars, so hot call sites never
// build a temporary std::string. Integer attrs must be non-negative.
struct SpanAttr {
  std::string_view key;
  std::string_view sval;
  unsigned long long nval = 0;
  bool numeric = false;

  constexpr SpanAttr(std::string_view k, std::string_view v)
      : key(k), sval(v) {}
  constexpr SpanAttr(std::string_view k, const char* v)
      : key(k), sval(v) {}
  template <typename Int,
            typename = std::enable_if_t<std::is_integral_v<Int>>>
  constexpr SpanAttr(std::string_view k, Int v)
      : key(k), nval(static_cast<unsigned long long>(v)), numeric(true) {}
};

class TraceBuffer {
 public:
  using TimeSource = sim::Time (*)(void*);

  explicit TraceBuffer(std::size_t capacity = 4096) : capacity_(capacity) {}

  // Opens a span at the current sim time, as a child of `ctx` (or as a new
  // tree root when the context is inactive), carrying the open-time
  // attributes — one slab touch for all of them. Ending or annotating an
  // unknown/already-ended id is a harmless no-op.
  SpanId Begin(std::string_view component, std::string_view name,
               TraceContext ctx = {},
               std::initializer_list<SpanAttr> attrs = {});
  // Opens a span with an explicit start time (batched NCQ members start at
  // their submission time, which predates the drain event that emits them).
  SpanId StartAt(std::string_view component, std::string_view name,
                 sim::Time start, TraceContext ctx = {});
  void Annotate(SpanId id, std::string_view key, std::string_view value);
  // Appends the completion-time attributes and ends the span, in one slab
  // touch.
  void End(SpanId id, std::initializer_list<SpanAttr> attrs = {});
  // Same, at an explicit time (a batch member's platter completion
  // predates the delivery event that closes its span).
  void EndAt(SpanId id, sim::Time end,
             std::initializer_list<SpanAttr> attrs = {});

  // One-shot emission for spans whose full interval and attributes are
  // known at completion (batched NCQ members, retry backoffs, election
  // markers): writes the span straight into the completed ring, reusing
  // the evicted slot's string/vector storage, and never touches the
  // open-span slab. Returns the span's id (kInvalidSpan while disabled).
  // Children cannot be attached afterwards — the span is already closed.
  SpanId Emit(std::string_view component, std::string_view name,
              sim::Time start, sim::Time end, TraceContext ctx,
              std::initializer_list<SpanAttr> attrs = {});

  // The context a child started under `id` should carry; inactive if the
  // span is unknown, already ended, or tracing is disabled.
  TraceContext ContextFor(SpanId id) const;

  // Completed spans, oldest surviving first (a snapshot copy: the live
  // storage is a recycling ring).
  std::vector<TraceSpan> CompletedInOrder() const;
  std::size_t completed_count() const { return ring_count_; }
  // The i-th oldest surviving completed span (i < completed_count()), read
  // in place in the ring.
  const TraceSpan& completed(std::size_t i) const {
    std::size_t idx = ring_head_ + i;
    if (idx >= ring_.size()) idx -= ring_.size();
    return ring_[idx];
  }
  std::size_t open_count() const { return open_count_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t capacity() const { return capacity_; }
  void set_capacity(std::size_t capacity);

  // Master switch for span emission. While disabled, Begin/StartAt/Emit
  // return kInvalidSpan and record nothing; contexts derived from disabled
  // spans are inactive, so propagation degrades to no-ops everywhere.
  // Completed spans already in the buffer are kept.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Deterministic head sampling (Dapper-style): with sample_every == n,
  // every n-th trace ROOT is recorded and the rest return kUnsampledSpan;
  // descendants always follow their root's decision via the propagated
  // context, so a sampled trace is still a complete causal tree — there
  // are no partially-sampled trees. 1 (the default) records everything.
  // The root counter is process-deterministic: fixed workload + fixed
  // rate → the same traces survive on every run.
  void set_sample_every(std::uint32_t n) { sample_every_ = n == 0 ? 1 : n; }
  std::uint32_t sample_every() const { return sample_every_; }

  void Clear();

  void set_time_source(TimeSource source, void* arg) {
    time_source_ = source;
    time_arg_ = arg;
  }
  sim::Time now() const {
    return time_source_ != nullptr ? time_source_(time_arg_) : 0;
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  // The ring slot the next completed span should be written into, in
  // place, evicting (and counting) the oldest span when the ring is full.
  TraceSpan* AcquireRingSlot();
  TraceSpan* FindOpen(SpanId id);
  const TraceSpan* FindOpen(SpanId id) const;

  // True when this call should open a real span: suppressed contexts and
  // sampled-out roots get the kUnsampledSpan sentinel instead.
  bool Sampled(const TraceContext& ctx);

  std::size_t capacity_;
  bool enabled_ = true;
  std::uint32_t sample_every_ = 1;
  std::uint32_t sample_counter_ = 0;
  TimeSource time_source_ = nullptr;
  void* time_arg_ = nullptr;
  std::uint32_t next_seq_ = 1;  // high half of every SpanId

  // Open-span slab: SpanId = (seq << 32) | slot. A slot's stored id must
  // match exactly, so stale ids from before Clear() cannot alias.
  struct OpenSlot {
    TraceSpan span;
    bool in_use = false;
  };
  std::vector<OpenSlot> open_slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t open_count_ = 0;

  // Completed ring, lazily grown to capacity_, then recycled in place.
  std::vector<TraceSpan> ring_;
  std::size_t ring_head_ = 0;   // index of the oldest completed span
  std::size_t ring_count_ = 0;
  std::uint64_t dropped_ = 0;
};

// The process-wide trace buffer (clock bound via obs::BindSimulator).
TraceBuffer& Tracer();

// Completed spans sorted by start time and rendered one per line:
//   [  12.345s ..  12.347s]   2.1ms  disk:u0-d3  io  dir=read size=4096
std::string FormatTimeline(const TraceBuffer& buffer);

// The trace buffer as a JSON array of span objects (same order as the
// timeline). Every span carries id/trace_id/parent; a parent id that no
// longer resolves inside the buffer (evicted, or still open) is rewritten
// to 0 so the exported forest never dangles.
std::string DumpTraceJson(const TraceBuffer& buffer);
std::string DumpTraceJson(const std::vector<TraceSpan>& spans);

// Chrome-trace-event JSON ("traceEvents" array of complete "X" events,
// microsecond timestamps), loadable in Perfetto / chrome://tracing. One
// deterministic tid per component, sorted by name.
std::string DumpChromeTraceJson(const TraceBuffer& buffer);
std::string DumpChromeTraceJson(const std::vector<TraceSpan>& spans);

// FNV-1a over the canonical DumpTraceJson rendering: a deterministic
// fingerprint of the whole buffer, used by the sharded-cluster reports to
// assert bit-identical traces across shard and thread counts. The bytes
// are hashed as they render, without building the document.
std::uint64_t TraceDigest(const TraceBuffer& buffer);

}  // namespace ustore::obs
