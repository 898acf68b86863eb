// Application motifs written against the public rvma.h surface.
//
// Three programs exercising three corners of the API:
//  - RemotePagingMotif: page-fault handling by remote fetch — every rank
//    owns a slice of distributed memory in a captured window; a fault
//    picks a random (owner, page) and rvma_get()s the 4 KiB page into a
//    local frame (after Pilevisor's vsm_fetch_page).
//  - KvStoreMotif: N closed-loop clients hammer M servers with small
//    get/put records through the servers' catch-all mailboxes; replies
//    return as puts into per-client reply windows. The interesting NIC
//    ablation is nic::NicParams::doorbell_batch (RDMAbox request
//    merging), reached via the scenario's --doorbell-batch.
//  - AllToAllMotif: iterations of a full personalized exchange, one
//    receive window per (rank, iteration) so a fast peer's next-round
//    block can never inflate the current round's epoch threshold.
//
// Every vaddr is a fixed integer constant — results must never depend on
// heap layout — and all payloads are real bytes, deterministically
// filled, so data integrity is checkable end to end.
#pragma once

#include <cstdint>
#include <vector>

#include "motifs/api_motif.hpp"

namespace rvma::motifs {

struct RemotePagingConfig {
  std::uint64_t page_bytes = 4096;  ///< one paper-MTU page per fetch
  int pages_per_rank = 64;          ///< owned slice of distributed memory
  int faults = 32;                  ///< faults injected per rank
  Time think = 200 * kNanosecond;   ///< compute between faults
  std::uint64_t seed = 2021;
};

class RemotePagingMotif : public ApiMotif {
 public:
  explicit RemotePagingMotif(const RemotePagingConfig& cfg)
      : ApiMotif(kInstruments), cfg_(cfg) {}

 protected:
  void setup() override;
  void start(int rank) override;

 private:
  struct Arg {
    RemotePagingMotif* self;
    int rank;
  };
  enum Instrument { kFaultsLocal, kFaultsRemote, kBytesFetched };
  static constexpr const char* kInstruments[] = {
      "paging.faults_local", "paging.faults_remote", "paging.bytes_fetched"};
  void next_fault(int rank);
  void do_fault(int rank);
  void on_page(int rank, std::int64_t len);
  std::uint64_t next_rand(int rank);

  RemotePagingConfig cfg_;
  std::vector<std::vector<std::byte>> memory_;  ///< owned pages, read-only
  std::vector<std::vector<std::byte>> frame_;   ///< per-rank fetch frame
  std::vector<int> remaining_;
  std::vector<std::uint64_t> rng_;
  std::vector<Arg> args_;
};

struct KvStoreConfig {
  int servers = 1;
  int requests = 8;                ///< per client, closed loop
  std::uint64_t value_bytes = 64;  ///< record = 16-byte header + value
  int outstanding = 1;             ///< pipeline lanes per client
  Time server_compute = 100 * kNanosecond;
  std::uint64_t seed = 2021;
};

class KvStoreMotif : public ApiMotif {
 public:
  explicit KvStoreMotif(const KvStoreConfig& cfg)
      : ApiMotif(kInstruments), cfg_(cfg) {}

 protected:
  void setup() override;
  void start(int rank) override;

 private:
  struct Arg {
    KvStoreMotif* self;
    int rank;
  };
  enum Instrument {
    kRequests, kPuts, kGets, kStorePuts, kStoreGets, kServed, kReplies
  };
  static constexpr const char* kInstruments[] = {
      "kv.requests",   "kv.puts",   "kv.gets",   "kv.store_puts",
      "kv.store_gets", "kv.served", "kv.replies"};
  int clients() const { return ranks() - cfg_.servers; }
  std::uint64_t record_bytes() const { return 16 + cfg_.value_bytes; }
  void issue(int client, int lane);
  void on_request(int server, void* buf, std::int64_t len);
  void on_reply(int client, void* buf, std::int64_t len);
  std::uint64_t next_rand(int client);

  KvStoreConfig cfg_;
  // Server state (indexed by server rank).
  std::vector<std::vector<std::byte>> req_pool_;   ///< posted request bufs
  std::vector<std::vector<std::byte>> reply_pool_; ///< reply send ring
  std::vector<std::size_t> reply_next_;
  std::vector<std::vector<std::byte>> store_;      ///< the actual KV data
  std::vector<rvma_win> server_win_;
  // Client state (indexed by rank; only client ranks used).
  std::vector<std::vector<std::byte>> reply_bufs_; ///< posted reply bufs
  std::vector<std::vector<std::byte>> req_slots_;  ///< one slot per lane
  std::vector<rvma_win> client_win_;
  std::vector<int> issued_;
  std::vector<int> done_;
  std::vector<std::uint64_t> rng_;
  std::vector<Arg> args_;
};

struct AllToAllConfig {
  std::uint64_t bytes = 4096;  ///< block per (source, destination) pair
  int iterations = 1;
};

class AllToAllMotif : public ApiMotif {
 public:
  explicit AllToAllMotif(const AllToAllConfig& cfg)
      : ApiMotif(kInstruments), cfg_(cfg) {}

 protected:
  void setup() override;
  void start(int rank) override;

 private:
  struct Arg {
    AllToAllMotif* self;
    int rank;
    int iter;
  };
  enum Instrument { kRounds };
  static constexpr const char* kInstruments[] = {"a2a.rounds"};
  void begin_round(int rank, int iter);
  void on_part(int rank, int iter, bool recv);
  void try_advance(int rank);

  AllToAllConfig cfg_;
  std::vector<std::vector<std::byte>> send_;  ///< per-rank block, read-only
  std::vector<std::vector<std::byte>> recv_;  ///< iterations*ranks*bytes
  std::vector<int> round_;
  std::vector<std::vector<std::uint8_t>> recv_done_;
  std::vector<std::vector<std::uint8_t>> sent_done_;
  std::vector<std::vector<Arg>> args_;  ///< [rank][iter]
};

}  // namespace rvma::motifs
