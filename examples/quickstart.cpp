// Quickstart: bring up a simulated UStore deploy unit (16 disks, 4 hosts),
// allocate storage through the ClientLib, mount it as a block volume and
// do verified I/O.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "core/cluster.h"

using namespace ustore;

int main() {
  // 1. One deploy unit: USB fat-tree fabric, metadata quorum, Masters,
  //    EndPoints, Controllers — all simulated in-process.
  core::Cluster cluster;
  cluster.Start();
  std::printf("cluster up: %d hosts, %zu disks, active master: %s\n",
              cluster.host_count(),
              cluster.fabric().topology().Disks().size(),
              cluster.active_master()->id().c_str());

  // 2. A client allocates 100 GiB for its service and mounts it.
  auto client = cluster.MakeClient("quickstart-client");
  core::ClientLib::Volume* volume = nullptr;
  client->AllocateAndMount(
      "quickstart-svc", GiB(100),
      [&](Result<core::ClientLib::Volume*> result) {
        if (!result.ok()) {
          std::printf("allocation failed: %s\n",
                      result.status().ToString().c_str());
          return;
        }
        volume = *result;
      });
  cluster.RunFor(sim::Seconds(10));
  if (volume == nullptr) return 1;
  std::printf("allocated %s (%s) on %s\n",
              volume->id().ToString().c_str(),
              FormatBytes(volume->space().length).c_str(),
              volume->current_host().c_str());

  // 3. Write a tagged block, read it back, verify.
  bool ok = false;
  volume->Write(0, MiB(4), /*random=*/false, /*tag=*/0x5EED,
                [&](Status status) {
                  if (!status.ok()) return;
                  volume->Read(0, MiB(4), false,
                               [&](Result<std::uint64_t> tag) {
                                 ok = tag.ok() && *tag == 0x5EED;
                               });
                });
  cluster.RunFor(sim::Seconds(5));
  std::printf("write+read round trip: %s\n", ok ? "OK" : "FAILED");

  // 4. Where is my data? The directory service knows.
  client->Lookup(volume->id(), [&](Result<core::LookupResponse> lookup) {
    if (lookup.ok()) {
      std::printf("lookup: host=%s available=%s\n", lookup->host.c_str(),
                  lookup->available ? "yes" : "no");
    }
  });
  cluster.RunFor(sim::Seconds(2));
  return ok ? 0 : 1;
}
