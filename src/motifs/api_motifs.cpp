#include "motifs/api_motifs.hpp"

#include <cassert>
#include <cstring>

namespace rvma::motifs {

namespace {

// Fixed integer virtual addresses (never pointer-derived: results must
// not depend on heap layout). Each family lives in its own range.
constexpr std::uint64_t kPageVaddrBase = 0x21A00000ULL;   // + owner rank
constexpr std::uint64_t kKvReplyBase = 0x22B00000ULL;     // + client rank
constexpr std::uint64_t kA2AVaddrBase = 0x23C00000ULL;    // + r*1024 + iter
/// KV requests target an address no server window claims, so they land
/// in the server's catch-all mailbox (paper §III-C).
constexpr std::uint64_t kKvRequestVaddr = 0x44D0DEADULL;

constexpr int kKeysPerServer = 64;

std::uint64_t splitmix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void write_u32(std::byte* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void write_u64(std::byte* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint32_t read_u32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t read_u64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

// ---- RemotePagingMotif ----------------------------------------------

void RemotePagingMotif::setup() {
  const auto n = static_cast<std::size_t>(ranks());
  memory_.resize(n);
  frame_.resize(n);
  remaining_.assign(n, cfg_.faults);
  rng_.resize(n);
  args_.resize(n);
  for (int r = 0; r < ranks(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    args_[i] = Arg{this, r};
    rng_[i] = cfg_.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
    // The rank's owned slice of distributed memory: one window whose
    // single posted buffer never completes (huge threshold) — it exists
    // to be read by peers' rvma_get()s.
    memory_[i].resize(cfg_.page_bytes *
                      static_cast<std::uint64_t>(cfg_.pages_per_rank));
    for (std::size_t j = 0; j < memory_[i].size(); ++j) {
      memory_[i][j] = static_cast<std::byte>((r * 131 + j * 7) & 0xff);
    }
    frame_[i].resize(cfg_.page_bytes);
    rvma_win win =
        rvma_init_window(ctx(r), kPageVaddrBase + static_cast<unsigned>(r),
                         nullptr, INT64_MAX / 2, RVMA_EPOCH_BYTES);
    assert(win != nullptr);
    rvma_post_buffer(win, memory_[i].data(),
                     static_cast<std::int64_t>(memory_[i].size()), nullptr);
  }
}

void RemotePagingMotif::start(int rank) { next_fault(rank); }

void RemotePagingMotif::next_fault(int rank) {
  if (remaining_[static_cast<std::size_t>(rank)] == 0) {
    finish_rank(rank);
    return;
  }
  engine_for(rank).schedule(cfg_.think, [this, rank] { do_fault(rank); });
}

std::uint64_t RemotePagingMotif::next_rand(int rank) {
  return splitmix64(&rng_[static_cast<std::size_t>(rank)]);
}

void RemotePagingMotif::do_fault(int rank) {
  const auto i = static_cast<std::size_t>(rank);
  --remaining_[i];
  add_ops(rank, 1);
  const std::uint64_t x = next_rand(rank);
  const int owner = static_cast<int>(x % static_cast<unsigned>(ranks()));
  const auto page = static_cast<std::int64_t>(
      (x >> 20) % static_cast<unsigned>(cfg_.pages_per_rank));
  if (owner == rank) {
    counter(rank, kFaultsLocal).inc();
    next_fault(rank);
    return;
  }
  counter(rank, kFaultsRemote).inc();
  const rvma_status st = rvma_get_ex(
      ctx(rank), owner, kPageVaddrBase + static_cast<unsigned>(owner),
      page * static_cast<std::int64_t>(cfg_.page_bytes),
      static_cast<std::int64_t>(cfg_.page_bytes), frame_[i].data(),
      /*reply_virtual_addr=*/0,
      [](void* arg, void* /*buf*/, std::int64_t len) {
        auto* a = static_cast<Arg*>(arg);
        a->self->on_page(a->rank, len);
      },
      &args_[i]);
  assert(st == RVMA_SUCCESS);
  (void)st;
}

void RemotePagingMotif::on_page(int rank, std::int64_t len) {
  counter(rank, kBytesFetched).inc(static_cast<std::uint64_t>(len));
  next_fault(rank);
}

// ---- KvStoreMotif ----------------------------------------------------

void KvStoreMotif::setup() {
  const auto n = static_cast<std::size_t>(ranks());
  const std::uint64_t rec = record_bytes();
  req_pool_.resize(n);
  reply_pool_.resize(n);
  reply_next_.assign(n, 0);
  store_.resize(n);
  server_win_.assign(n, nullptr);
  reply_bufs_.resize(n);
  req_slots_.resize(n);
  client_win_.assign(n, nullptr);
  issued_.assign(n, 0);
  done_.assign(n, 0);
  rng_.resize(n);
  args_.resize(n);
  // In-flight bounds size every pool: at most clients*outstanding
  // requests (and as many replies) can be anywhere in the system; the
  // margin covers the completion-write + wake lag before reposting.
  const std::size_t inflight = static_cast<std::size_t>(clients()) *
                               static_cast<std::size_t>(cfg_.outstanding);
  for (int r = 0; r < ranks(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    args_[i] = Arg{this, r};
    rng_[i] = cfg_.seed ^ (0x517cc1b727220a95ULL * (i + 1));
    if (r < cfg_.servers) {
      store_[i].resize(kKeysPerServer * cfg_.value_bytes);
      for (std::size_t j = 0; j < store_[i].size(); ++j) {
        store_[i][j] = static_cast<std::byte>((r * 37 + j) & 0xff);
      }
      server_win_[i] = rvma_init_catch_all(
          ctx(r), static_cast<std::int64_t>(rec), RVMA_EPOCH_BYTES);
      assert(server_win_[i] != nullptr);
      rvma_win_observe(server_win_[i],
                       [](void* arg, void* buf, std::int64_t len) {
                         auto* a = static_cast<Arg*>(arg);
                         a->self->on_request(a->rank, buf, len);
                       },
                       &args_[i]);
      const std::size_t bufs = inflight + 8;
      req_pool_[i].resize(bufs * rec);
      for (std::size_t b = 0; b < bufs; ++b) {
        rvma_post_buffer(server_win_[i], req_pool_[i].data() + b * rec,
                         static_cast<std::int64_t>(rec), nullptr);
      }
      reply_pool_[i].resize((inflight + 8) * rec);
    } else {
      client_win_[i] = rvma_init_window(
          ctx(r), kKvReplyBase + static_cast<unsigned>(r), nullptr,
          static_cast<std::int64_t>(rec), RVMA_EPOCH_BYTES);
      assert(client_win_[i] != nullptr);
      rvma_win_observe(client_win_[i],
                       [](void* arg, void* buf, std::int64_t len) {
                         auto* a = static_cast<Arg*>(arg);
                         a->self->on_reply(a->rank, buf, len);
                       },
                       &args_[i]);
      const auto lanes = static_cast<std::size_t>(cfg_.outstanding);
      reply_bufs_[i].resize((lanes + 2) * rec);
      for (std::size_t b = 0; b < lanes + 2; ++b) {
        rvma_post_buffer(client_win_[i], reply_bufs_[i].data() + b * rec,
                         static_cast<std::int64_t>(rec), nullptr);
      }
      req_slots_[i].resize(lanes * rec);
    }
  }
}

void KvStoreMotif::start(int rank) {
  if (rank < cfg_.servers) {
    // Servers are passive; their finish stamp is t=0 and the makespan
    // comes from the clients (whose last reply postdates every serve).
    finish_rank(rank);
    return;
  }
  if (cfg_.requests == 0) {
    finish_rank(rank);
    return;
  }
  const int lanes = std::min(cfg_.outstanding, cfg_.requests);
  for (int lane = 0; lane < lanes; ++lane) issue(rank, lane);
}

std::uint64_t KvStoreMotif::next_rand(int client) {
  return splitmix64(&rng_[static_cast<std::size_t>(client)]);
}

void KvStoreMotif::issue(int client, int lane) {
  const auto i = static_cast<std::size_t>(client);
  const std::uint64_t rec = record_bytes();
  const std::uint64_t x = next_rand(client);
  const int server =
      static_cast<int>(x % static_cast<unsigned>(cfg_.servers));
  const std::uint64_t key = (x >> 8) % kKeysPerServer;
  const std::uint32_t op = (x >> 16) & 1;  // 0 = get, 1 = put
  std::byte* slot = req_slots_[i].data() + static_cast<std::size_t>(lane) * rec;
  write_u32(slot, static_cast<std::uint32_t>(client));
  write_u32(slot + 4, op | (static_cast<std::uint32_t>(lane) << 8));
  write_u64(slot + 8, key);
  for (std::uint64_t j = 0; j < cfg_.value_bytes; ++j) {
    slot[16 + j] = static_cast<std::byte>((key + j + x) & 0xff);
  }
  ++issued_[i];
  add_ops(client, 1);
  counter(client, kRequests).inc();
  counter(client, op == 1 ? kPuts : kGets).inc();
  const rvma_status st =
      rvma_put(ctx(client), slot, server, kKvRequestVaddr,
               static_cast<std::int64_t>(rec));
  assert(st == RVMA_SUCCESS);
  (void)st;
}

void KvStoreMotif::on_request(int server, void* buf, std::int64_t len) {
  const auto i = static_cast<std::size_t>(server);
  const std::uint64_t rec = record_bytes();
  assert(len == static_cast<std::int64_t>(rec));
  auto* req = static_cast<std::byte*>(buf);
  const std::uint32_t client = read_u32(req);
  const std::uint32_t op_lane = read_u32(req + 4);
  const std::uint64_t key = read_u64(req + 8);
  std::byte* value = store_[i].data() + (key % kKeysPerServer) * cfg_.value_bytes;
  if ((op_lane & 0xff) == 1) {
    std::memcpy(value, req + 16, cfg_.value_bytes);
    counter(server, kStorePuts).inc();
  } else {
    counter(server, kStoreGets).inc();
  }
  // Build the reply (header echo + current value) in the next ring slot,
  // then recycle the request buffer into the catch-all pool. The ring is
  // larger than the in-flight bound, so a slot is never overwritten
  // before the NIC has taken ownership of its bytes.
  const std::size_t slots = reply_pool_[i].size() / rec;
  std::byte* reply = reply_pool_[i].data() + (reply_next_[i] % slots) * rec;
  ++reply_next_[i];
  std::memcpy(reply, req, 16);
  std::memcpy(reply + 16, value, cfg_.value_bytes);
  rvma_post_buffer(server_win_[i], req, static_cast<std::int64_t>(rec),
                   nullptr);
  engine_for(server).schedule(cfg_.server_compute, [this, server, i, client,
                                                    reply, rec] {
    counter(server, kServed).inc();
    add_ops(server, 1);
    const rvma_status st = rvma_put(
        ctx(server), reply, static_cast<std::int32_t>(client),
        kKvReplyBase + client, static_cast<std::int64_t>(rec));
    assert(st == RVMA_SUCCESS);
    (void)st;
  });
}

void KvStoreMotif::on_reply(int client, void* buf, std::int64_t len) {
  const auto i = static_cast<std::size_t>(client);
  const std::uint64_t rec = record_bytes();
  assert(len == static_cast<std::int64_t>(rec));
  auto* reply = static_cast<std::byte*>(buf);
  const int lane = static_cast<int>((read_u32(reply + 4) >> 8) & 0xff);
  rvma_post_buffer(client_win_[i], reply, static_cast<std::int64_t>(rec),
                   nullptr);
  ++done_[i];
  counter(client, kReplies).inc();
  if (issued_[i] < cfg_.requests) {
    issue(client, lane);
  } else if (done_[i] == cfg_.requests) {
    finish_rank(client);
  }
}

// ---- AllToAllMotif ---------------------------------------------------

namespace {
std::uint64_t a2a_vaddr(int rank, int iter) {
  return kA2AVaddrBase + static_cast<std::uint64_t>(rank) * 1024 +
         static_cast<std::uint64_t>(iter);
}
}  // namespace

void AllToAllMotif::setup() {
  const auto n = static_cast<std::size_t>(ranks());
  const std::uint64_t block = cfg_.bytes;
  const std::uint64_t row = block * static_cast<std::uint64_t>(ranks());
  send_.resize(n);
  recv_.resize(n);
  round_.assign(n, 0);
  recv_done_.resize(n);
  sent_done_.resize(n);
  args_.resize(n);
  for (int r = 0; r < ranks(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    send_[i].resize(block);
    for (std::uint64_t j = 0; j < block; ++j) {
      send_[i][j] = static_cast<std::byte>((r * 17 + j) & 0xff);
    }
    recv_[i].resize(row * static_cast<std::uint64_t>(cfg_.iterations));
    recv_done_[i].assign(static_cast<std::size_t>(cfg_.iterations), 0);
    sent_done_[i].assign(static_cast<std::size_t>(cfg_.iterations), 0);
    args_[i].resize(static_cast<std::size_t>(cfg_.iterations));
    for (int it = 0; it < cfg_.iterations; ++it) {
      args_[i][static_cast<std::size_t>(it)] = Arg{this, r, it};
      // One window per (rank, iteration): a fast peer's round-(it+1)
      // block lands in its own mailbox and can never prematurely fire
      // round it's epoch threshold.
      rvma_win win = rvma_init_window(
          ctx(r), a2a_vaddr(r, it), nullptr,
          static_cast<std::int64_t>(block) * (ranks() - 1),
          RVMA_EPOCH_BYTES);
      assert(win != nullptr);
      rvma_post_buffer(win, recv_[i].data() + static_cast<std::uint64_t>(it) * row,
                       static_cast<std::int64_t>(row), nullptr);
      rvma_win_observe(win,
                       [](void* arg, void* /*buf*/, std::int64_t /*len*/) {
                         auto* a = static_cast<Arg*>(arg);
                         a->self->on_part(a->rank, a->iter, /*recv=*/true);
                       },
                       &args_[i][static_cast<std::size_t>(it)]);
    }
  }
}

void AllToAllMotif::start(int rank) { begin_round(rank, 0); }

void AllToAllMotif::begin_round(int rank, int iter) {
  if (iter == cfg_.iterations) {
    finish_rank(rank);
    return;
  }
  const auto i = static_cast<std::size_t>(rank);
  const std::uint64_t block = cfg_.bytes;
  const std::uint64_t row = block * static_cast<std::uint64_t>(ranks());
  // Own block stays local: copy it straight into this round's row.
  std::memcpy(recv_[i].data() + static_cast<std::uint64_t>(iter) * row +
                  static_cast<std::uint64_t>(rank) * block,
              send_[i].data(), block);
  for (int q = 0; q < ranks(); ++q) {
    if (q == rank) continue;
    const rvma_status st = rvma_put_offset(
        ctx(rank), send_[i].data(), q, a2a_vaddr(q, iter),
        static_cast<std::int64_t>(static_cast<std::uint64_t>(rank) * block),
        static_cast<std::int64_t>(block));
    assert(st == RVMA_SUCCESS);
    (void)st;
  }
  add_ops(rank, static_cast<std::uint64_t>(ranks() - 1));
  rvma_flush_wait(ctx(rank), RVMA_ALL_PROCS,
                  [](void* arg) {
                    auto* a = static_cast<Arg*>(arg);
                    a->self->on_part(a->rank, a->iter, /*recv=*/false);
                  },
                  &args_[i][static_cast<std::size_t>(iter)]);
}

void AllToAllMotif::on_part(int rank, int iter, bool recv) {
  const auto i = static_cast<std::size_t>(rank);
  const auto it = static_cast<std::size_t>(iter);
  (recv ? recv_done_ : sent_done_)[i][it] = 1;
  try_advance(rank);
}

void AllToAllMotif::try_advance(int rank) {
  const auto i = static_cast<std::size_t>(rank);
  const int iter = round_[i];
  if (iter >= cfg_.iterations) return;
  const auto it = static_cast<std::size_t>(iter);
  if (recv_done_[i][it] == 0 || sent_done_[i][it] == 0) return;
  counter(rank, kRounds).inc();
  round_[i] = iter + 1;
  begin_round(rank, iter + 1);
}

}  // namespace rvma::motifs
