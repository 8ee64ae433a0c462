// client_io: the paper's 16-disk prototype Cluster on the single-queue
// Simulator, driven through ClientLib. Eight closed-loop clients, one volume
// each on its own spindle, submit windows of 70% 128 KiB random cold reads
// and 30% 1 MiB sequential archival writes (reads and writes as two
// SubmitBatch calls), then think for an exponential time whose mean equals
// the EndPoint idle spin-down timeout — so a share of windows finds its disk
// spun down and pays spin-up. A tagged write/read-back per volume ends the
// run. The data path does nearly all the work: ClientLib -> iSCSI -> net
// RPC -> hw::Disk NCQ -> sim::Simulator; no pump, sharded engine or large
// fabric scan runs.
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/cluster.h"
#include "harness.h"
#include "profile.h"

namespace perfbench {

namespace {

using namespace ustore;
using IoOp = core::ClientLib::Volume::IoOp;
using IoOpResult = core::ClientLib::Volume::IoOpResult;

constexpr int kClients = 8;
constexpr int kWindowOps = 64;
constexpr double kWriteShare = 0.3;
constexpr sim::Duration kIdleSpinDown = sim::Seconds(2);

struct Client {
  std::unique_ptr<core::ClientLib> lib;
  core::ClientLib::Volume* volume = nullptr;
  Rng rng{0};
  Bytes write_cursor = 0;
  std::uint64_t next_tag = 1;
  int pending_batches = 0;
};

class ClientIoRun {
 public:
  ClientIoRun(const Config& config, SpanLog& spans, RepOutcome& out)
      : config_(config), spans_(spans), out_(out) {}

  void Run();

 private:
  void IssueWindow(Client& client);
  void OnBatchDone(Client& client, sim::Time issued, bool reads,
                   std::size_t ops, Status status,
                   std::span<const IoOpResult> results);
  void ScheduleNext(Client& client);
  // Runs the simulator in slices until `done` holds or `limit` passes.
  bool RunUntil(const std::function<bool()>& done, sim::Duration limit);
  void ReadBack();
  std::uint64_t ReadBackTag(std::size_t block) const {
    return Fnv1a("tag" + std::to_string(block), config_.seed);
  }

  const Config& config_;
  SpanLog& spans_;
  RepOutcome& out_;
  std::unique_ptr<core::Cluster> cluster_;
  std::vector<Client> clients_;
  sim::Time end_ = 0;
  std::uint64_t digest_ = 1469598103934665603ULL;
  std::vector<double> read_ms_;
  std::vector<double> write_ms_;
};

void ClientIoRun::Run() {
  const auto setup_start = Clock::now();
  core::ClusterOptions options;
  options.seed = config_.seed;
  options.endpoint.idle_spin_down = kIdleSpinDown;
  {
    ScopedSpan span(spans_, "cluster.build");
    cluster_ = std::make_unique<core::Cluster>(options);
  }
  const auto start_begin = Clock::now();
  {
    ScopedSpan span(spans_, "cluster.start");
    cluster_->Start();
  }
  if (spans_.enabled()) {
    out_.layers["cluster.build_s"] =
        std::chrono::duration<double>(start_begin - setup_start).count();
    out_.layers["cluster.start_s"] = SecondsSince(start_begin);
  }
  clients_.resize(kClients);
  Rng seeder(config_.seed);  // one independent op stream per client
  int mounted = 0;
  for (int i = 0; i < kClients; ++i) {
    Client& client = clients_[static_cast<std::size_t>(i)];
    client.lib = cluster_->MakeClient("cio-client-" + std::to_string(i));
    client.rng = Rng(seeder.NextU64());
    // Distinct service names defeat the Master's same-service affinity, so
    // every volume gets its own spindle.
    client.lib->AllocateAndMount(
        "cio-svc-" + std::to_string(i), GiB(2),
        [&client, &mounted](Result<core::ClientLib::Volume*> volume) {
          if (volume.ok()) {
            client.volume = *volume;
            ++mounted;
          }
        });
  }
  RunUntil([&] { return mounted == kClients; }, sim::Seconds(60));
  out_.setup_s = SecondsSince(setup_start);
  if (mounted != kClients) {
    out_.Fail("client_io: only " + std::to_string(mounted) + " of " +
              std::to_string(kClients) + " volumes mounted");
    return;
  }

  const sim::Duration horizon = config_.tiny ? sim::Seconds(20)
                                             : sim::Seconds(600);
  const sim::Time start = cluster_->sim().now();
  const std::uint64_t events_before = cluster_->sim().events_processed();
  end_ = start + horizon;
  const auto run_start = Clock::now();
  for (Client& client : clients_) IssueWindow(client);
  const bool drained = RunUntil(
      [&] {
        for (const Client& client : clients_) {
          if (client.pending_batches > 0) return false;
        }
        return cluster_->sim().now() >= end_;
      },
      horizon + sim::Seconds(120));
  out_.run_wall_s = SecondsSince(run_start);
  out_.sim_s = static_cast<double>(cluster_->sim().now() - start) / 1e9;
  const std::uint64_t events =
      cluster_->sim().events_processed() - events_before;
  if (!drained) out_.Fail("client_io: windows still in flight at the limit");

  ReadBack();

  // The p50 rows carry the samples (and so print n and the highest
  // supported percentile); the p99 rows are the fixed percentile.
  const double read_p99 = Quantile(read_ms_, 0.99);
  const double write_p99 = Quantile(write_ms_, 0.99);
  out_.sim_metrics.push_back(
      {"read_p50_ms", "ms", Median(read_ms_), std::move(read_ms_)});
  out_.sim_metrics.push_back({"read_p99_ms", "ms", read_p99, {}});
  out_.sim_metrics.push_back(
      {"write_p50_ms", "ms", Median(write_ms_), std::move(write_ms_)});
  out_.sim_metrics.push_back({"write_p99_ms", "ms", write_p99, {}});
  digest_ = Fnv1a(std::to_string(cluster_->sim().now()), digest_);
  digest_ = Fnv1a(cluster_->active_master()->DumpAllocations(), digest_);
  out_.digest = digest_;

  if (spans_.enabled()) {
    AddObsLayers(obs::Metrics().Snapshot(), out_.layers);
    out_.layers["sim.events"] = static_cast<double>(events);
    out_.layers["sim.wall_ns_per_event"] =
        Ratio(out_.run_wall_s * 1e9, static_cast<double>(events));
    out_.layers["fabric.nodes"] = cluster_->fabric().topology().size();
  }
}

void ClientIoRun::IssueWindow(Client& client) {
  std::vector<IoOp> reads;
  std::vector<IoOp> writes;
  const Bytes length = client.volume->space().length;
  for (int i = 0; i < kWindowOps; ++i) {
    IoOp op;
    if (client.rng.NextBool(kWriteShare)) {
      op.length = MiB(1);
      if (client.write_cursor + op.length > length) client.write_cursor = 0;
      op.offset = client.write_cursor;
      op.is_read = false;
      op.random = false;
      op.tag = client.next_tag++;
      client.write_cursor += op.length;
      writes.push_back(op);
    } else {
      op.length = KiB(128);
      op.offset = static_cast<Bytes>(client.rng.NextBelow(
                      static_cast<std::uint64_t>(length / op.length))) *
                  op.length;
      op.is_read = true;
      op.random = true;
      reads.push_back(op);
    }
  }
  const sim::Time issued = cluster_->sim().now();
  for (const bool is_read : {true, false}) {
    const std::vector<IoOp>& ops = is_read ? reads : writes;
    if (ops.empty()) continue;
    ++client.pending_batches;
    out_.attempted += ops.size();
    ScopedSpan span(spans_, "client.submit");
    client.volume->SubmitBatch(
        ops, [this, &client, issued, is_read, n = ops.size()](
                 Status status, std::span<const IoOpResult> results) {
          ScopedSpan callback(spans_, "client.callback");
          OnBatchDone(client, issued, is_read, n, status, results);
        });
  }
}

void ClientIoRun::OnBatchDone(Client& client, sim::Time issued, bool reads,
                              std::size_t ops, Status status,
                              std::span<const IoOpResult> results) {
  const sim::Duration latency = cluster_->sim().now() - issued;
  std::size_t ok = 0;
  if (status.ok()) {
    for (const IoOpResult& result : results) {
      if (result.code == StatusCode::kOk) ++ok;
    }
  }
  out_.ops += ok;
  out_.failed += ops - ok;
  std::vector<double>& samples = reads ? read_ms_ : write_ms_;
  for (std::size_t i = 0; i < ok; ++i) {
    samples.push_back(static_cast<double>(latency) / 1e6);
  }
  digest_ = Fnv1a(std::to_string(latency) + (reads ? "r" : "w") +
                      std::to_string(ok),
                  digest_);
  if (--client.pending_batches == 0) ScheduleNext(client);
}

void ClientIoRun::ScheduleNext(Client& client) {
  const sim::Duration think = static_cast<sim::Duration>(
      client.rng.NextExponential(static_cast<double>(kIdleSpinDown)));
  if (cluster_->sim().now() + think >= end_) return;
  cluster_->sim().Schedule(think, [this, &client] { IssueWindow(client); });
}

bool ClientIoRun::RunUntil(const std::function<bool()>& done,
                           sim::Duration limit) {
  const sim::Time deadline = cluster_->sim().now() + limit;
  ScopedSpan span(spans_, "sim.run");
  while (!done()) {
    if (cluster_->sim().now() >= deadline) return false;
    cluster_->RunFor(sim::Millis(500));
  }
  return true;
}

// Tagged write, then read-back: every fingerprint must survive the client
// -> RPC -> target -> disk round trip.
void ClientIoRun::ReadBack() {
  constexpr std::size_t kBlocks = 4;
  int pending = 0;
  for (std::size_t v = 0; v < clients_.size(); ++v) {
    std::vector<IoOp> writes;
    for (std::size_t i = 0; i < kBlocks; ++i) {
      writes.push_back(IoOp{.offset = MiB(1) * static_cast<Bytes>(i),
                            .length = MiB(1),
                            .is_read = false,
                            .random = false,
                            .tag = ReadBackTag(v * kBlocks + i)});
    }
    out_.attempted += writes.size();
    ++pending;
    clients_[v].volume->SubmitBatch(
        writes, [this, &pending](Status status,
                                 std::span<const IoOpResult> results) {
          --pending;
          if (!status.ok()) {
            out_.failed += kBlocks;
            return;
          }
          for (const IoOpResult& result : results) {
            if (result.code != StatusCode::kOk) ++out_.failed;
          }
        });
  }
  RunUntil([&] { return pending == 0; }, sim::Seconds(120));

  for (std::size_t v = 0; v < clients_.size(); ++v) {
    std::vector<IoOp> reads;
    for (std::size_t i = 0; i < kBlocks; ++i) {
      reads.push_back(IoOp{.offset = MiB(1) * static_cast<Bytes>(i),
                           .length = MiB(1),
                           .is_read = true,
                           .random = false,
                           .tag = 0});
    }
    out_.attempted += reads.size();
    ++pending;
    clients_[v].volume->SubmitBatch(
        reads, [this, v, &pending](Status status,
                                   std::span<const IoOpResult> results) {
          --pending;
          for (std::size_t block = 0; block < kBlocks; ++block) {
            const std::uint64_t want = ReadBackTag(v * kBlocks + block);
            const bool ok = status.ok() && results.size() == kBlocks &&
                            results[block].tag == want;
            if (!ok) {
              ++out_.failed;
              out_.Fail("client_io: read-back fingerprint mismatch on volume " +
                        std::to_string(v));
            }
            digest_ = Fnv1a(std::to_string(ok ? want : 0), digest_);
          }
        });
  }
  if (!RunUntil([&] { return pending == 0; }, sim::Seconds(120))) {
    out_.Fail("client_io: read-back did not complete");
  }
}

}  // namespace

RepOutcome RunClientIo(const Config& config, SpanLog& spans) {
  RepOutcome out;
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  obs::ScopedObsBinding bind(&metrics, &trace);
  ClientIoRun run(config, spans, out);
  run.Run();
  return out;
}

}  // namespace perfbench
