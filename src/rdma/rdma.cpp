#include "rdma/rdma.hpp"

#include <cassert>
#include <cstring>

#include "common/log.hpp"

namespace rvma::rdma {

namespace {
constexpr std::uint32_t kind_of(Op op) {
  return net::make_kind(nic::kProtoRdma, op);
}
}  // namespace

RdmaInstruments::RdmaInstruments(obs::MetricsRegistry& m)
    : regions_registered(&m.counter("rdma.regions_registered")),
      handshakes_served(&m.counter("rdma.handshakes_served")),
      puts_received(&m.counter("rdma.puts_received")),
      put_acks(&m.counter("rdma.put_acks")),
      sends_received(&m.counter("rdma.sends_received")),
      premature_flag_fires(&m.counter("rdma.premature_flag_fires")) {}

RdmaEndpoint::RdmaEndpoint(nic::Nic& nic, const RdmaParams& params,
                           net::Pid pid)
    : RdmaEndpoint(nic, params, RdmaInstruments(nic.metrics()), pid) {}

RdmaEndpoint::RdmaEndpoint(nic::Nic& nic, const RdmaParams& params,
                           const RdmaInstruments& instruments, net::Pid pid)
    : nic_(nic),
      engine_(nic.engine()),
      params_(params),
      pid_(pid),
      ins_(instruments) {
  nic_.register_proto(
      nic::kProtoRdma,
      [this](const net::Packet& pkt) { handle_packet(pkt); }, pid_);
}

Time RdmaEndpoint::registration_cost(std::uint64_t size) const {
  const double kib = static_cast<double>(size) / 1024.0;
  return params_.reg_base + ns(params_.reg_ns_per_kib * kib);
}

void RdmaEndpoint::register_region(std::span<std::byte> mem, std::uint64_t size,
                                   std::function<void(std::uint64_t)> done) {
  if (!mem.empty()) size = mem.size();
  const std::uint64_t addr = next_region_addr_;
  next_region_addr_ += (size + 0xfff) & ~std::uint64_t{0xfff};
  regions_[addr] = Region{mem, size, 0, {}};
  ins_.regions_registered->inc();
  engine_.schedule(registration_cost(size),
                   [addr, done = std::move(done)] { done(addr); });
}

void RdmaEndpoint::serve_buffer_requests(RegionAllocator alloc,
                                         RegionObserver observer) {
  allocator_ = std::move(alloc);
  region_observer_ = std::move(observer);
}

void RdmaEndpoint::arm_last_byte_poll(
    std::uint64_t addr, std::uint64_t expected,
    std::function<void(Time, std::uint64_t)> done) {
  auto it = regions_.find(addr);
  assert(it != regions_.end() && "arming poll on unknown region");
  assert(expected > 0);
  it->second.polls.push_back(ArmedPoll{expected - 1, std::move(done)});
}

void RdmaEndpoint::post_recv(std::function<void(const Completion&)> done) {
  if (!recv_cq_.empty()) {
    Completion entry = recv_cq_.front();
    recv_cq_.pop_front();
    // Entry already in host memory; pay only the poll cost.
    engine_.schedule(params_.cq_poll,
                     [entry, done = std::move(done)] { done(entry); });
    return;
  }
  recv_waiters_.push_back(std::move(done));
}

std::uint64_t RdmaEndpoint::region_bytes_received(std::uint64_t addr) const {
  const auto it = regions_.find(addr);
  return it == regions_.end() ? 0 : it->second.bytes_received;
}

void RdmaEndpoint::request_buffer(NodeId target, std::uint64_t size,
                                  std::function<void(RemoteBuffer)> done,
                                  std::uint64_t tag, net::Pid target_pid) {
  const std::uint64_t id = next_handshake_id_++;
  pending_handshakes_[id] = std::move(done);
  net::Message msg;
  msg.dst = target;
  msg.bytes = params_.ctrl_bytes;
  msg.hdr.kind = kind_of(kReqBuf);
  msg.hdr.src_pid = pid_;
  msg.hdr.dst_pid = target_pid;
  msg.hdr.addr = tag;
  msg.hdr.imm = size;
  msg.hdr.imm2 = id;
  nic_.send(std::move(msg));
}

void RdmaEndpoint::put(const RemoteBuffer& dst, std::uint64_t offset,
                       const std::byte* data, std::uint64_t bytes,
                       std::function<void()> local_done,
                       std::function<void()> on_wire) {
  assert(offset + bytes <= dst.size && "put beyond negotiated region");
  net::Message msg;
  msg.dst = dst.node;
  msg.bytes = bytes;
  msg.data = data;
  msg.hdr.kind = kind_of(kPut);
  msg.hdr.src_pid = pid_;
  msg.hdr.dst_pid = dst.pid;
  msg.hdr.addr = dst.addr;
  msg.hdr.offset = offset;
  // Reserve the id up front so the ack can be matched.
  msg.id = (static_cast<std::uint64_t>(nic_.node()) << 40) |
           (0x8000000000ULL + next_get_id_++);
  if (local_done) pending_puts_[msg.id] = PendingPut{std::move(local_done)};
  nic_.send(std::move(msg), std::move(on_wire));
}

void RdmaEndpoint::send(NodeId dst, std::uint64_t imm,
                        std::function<void()> on_wire) {
  net::Message msg;
  msg.dst = dst;
  msg.bytes = params_.ctrl_bytes;
  msg.hdr.kind = kind_of(kSend);
  msg.hdr.src_pid = pid_;
  msg.hdr.imm = imm;
  nic_.send(std::move(msg), std::move(on_wire));
}

Status RdmaEndpoint::write_with_imm(const RemoteBuffer& dst,
                                    std::uint64_t offset,
                                    const std::byte* data, std::uint32_t bytes,
                                    std::uint64_t imm) {
  if (bytes > params_.write_imm_max) return Status::kInvalidArg;
  if (offset + bytes > dst.size) return Status::kOverflow;
  net::Message msg;
  msg.dst = dst.node;
  msg.bytes = bytes;
  msg.data = data;
  msg.hdr.kind = kind_of(kWriteImm);
  msg.hdr.src_pid = pid_;
  msg.hdr.dst_pid = dst.pid;
  msg.hdr.addr = dst.addr;
  msg.hdr.offset = offset;
  msg.hdr.imm = imm;
  nic_.send(std::move(msg));
  return Status::kOk;
}

void RdmaEndpoint::get(const RemoteBuffer& src, std::uint64_t offset,
                       std::byte* into, std::uint64_t bytes,
                       std::function<void()> done) {
  const std::uint64_t id = next_get_id_++;
  pending_gets_[id] = PendingGet{into, bytes, 0, std::move(done)};
  net::Message msg;
  msg.dst = src.node;
  msg.bytes = params_.ctrl_bytes;
  msg.hdr.kind = kind_of(kGetReq);
  msg.hdr.src_pid = pid_;
  msg.hdr.dst_pid = src.pid;
  msg.hdr.addr = src.addr;
  msg.hdr.offset = offset;
  msg.hdr.imm = bytes;
  msg.hdr.imm2 = id;
  nic_.send(std::move(msg));
}

void RdmaEndpoint::handle_packet(const net::Packet& pkt) {
  const auto op = static_cast<Op>(net::op_of(pkt.msg->hdr.kind));
  switch (op) {
    case kPut:
    case kWriteImm:
      handle_put_packet(pkt);
      return;

    case kReqBuf: {
      const std::uint64_t size = pkt.msg->hdr.imm;
      const std::uint64_t tag = pkt.msg->hdr.addr;
      const std::uint64_t id = pkt.msg->hdr.imm2;
      const NodeId requester = pkt.src;
      const net::Pid requester_pid = pkt.msg->hdr.src_pid;
      ins_.handshakes_served->inc();
      engine_.schedule(params_.ctrl_proc, [this, size, tag, id, requester,
                                           requester_pid] {
        std::span<std::byte> mem =
            allocator_ ? allocator_(size, tag) : std::span<std::byte>{};
        register_region(mem, size,
                        [this, id, tag, requester, requester_pid,
                         size](std::uint64_t addr) {
          if (region_observer_) region_observer_(tag, addr, size);
          net::Message reply;
          reply.dst = requester;
          reply.bytes = params_.ctrl_bytes;
          reply.hdr.kind = kind_of(kRepBuf);
          reply.hdr.src_pid = pid_;
          reply.hdr.dst_pid = requester_pid;
          reply.hdr.addr = addr;
          reply.hdr.imm = size;
          reply.hdr.imm2 = id;
          nic_.send(std::move(reply));
        });
      });
      return;
    }

    case kRepBuf: {
      const auto it = pending_handshakes_.find(pkt.msg->hdr.imm2);
      assert(it != pending_handshakes_.end());
      auto done = std::move(it->second);
      pending_handshakes_.erase(it);
      const RemoteBuffer buf{pkt.src, pkt.msg->hdr.addr, pkt.msg->hdr.imm,
                             pkt.msg->hdr.src_pid};
      engine_.schedule(params_.ctrl_proc,
                       [buf, done = std::move(done)] { done(buf); });
      return;
    }

    case kPutAck: {
      ins_.put_acks->inc();
      const auto it = pending_puts_.find(pkt.msg->hdr.imm);
      if (it == pending_puts_.end()) return;  // unsignaled put
      auto done = std::move(it->second.local_done);
      pending_puts_.erase(it);
      // CQE DMA write to host memory, then the host's poll observes it.
      engine_.schedule(nic_.params().pcie_latency + params_.cq_poll,
                       [done = std::move(done)] { done(); });
      return;
    }

    case kSend: {
      ins_.sends_received->inc();
      Completion entry{pkt.src, pkt.msg->hdr.imm, pkt.msg->bytes,
                       engine_.now()};
      // CQE crosses PCIe into host memory before anyone can poll it.
      engine_.schedule(nic_.params().pcie_latency,
                       [this, entry] { deliver_recv_completion(entry); });
      return;
    }

    case kGetReq: {
      const NodeId requester = pkt.src;
      const std::uint64_t addr = pkt.msg->hdr.addr;
      const std::uint64_t offset = pkt.msg->hdr.offset;
      const std::uint64_t bytes = pkt.msg->hdr.imm;
      const std::uint64_t id = pkt.msg->hdr.imm2;
      const auto it = regions_.find(addr);
      assert(it != regions_.end() && "get from unknown region");
      const Region& region = it->second;
      net::Message resp;
      resp.dst = requester;
      resp.bytes = bytes;
      resp.hdr.kind = kind_of(kGetResp);
      resp.hdr.src_pid = pid_;
      resp.hdr.dst_pid = pkt.msg->hdr.src_pid;
      resp.hdr.imm2 = id;
      if (!region.mem.empty() && offset + bytes <= region.mem.size()) {
        resp.data = region.mem.data() + offset;
      }
      nic_.send(std::move(resp));
      return;
    }

    case kGetResp: {
      const auto it = pending_gets_.find(pkt.msg->hdr.imm2);
      assert(it != pending_gets_.end());
      PendingGet& get = it->second;
      if (get.into != nullptr && pkt.msg->data != nullptr) {
        std::memcpy(get.into + pkt.offset, pkt.msg->data + pkt.offset,
                    pkt.bytes);
      }
      get.received += pkt.bytes;
      if (get.received >= get.bytes) {
        auto done = std::move(get.done);
        pending_gets_.erase(it);
        engine_.schedule(nic_.params().pcie_latency + params_.cq_poll,
                         [done = std::move(done)] { done(); });
      }
      return;
    }
  }
  RVMA_LOG_WARN("rdma: unknown opcode %u", net::op_of(pkt.msg->hdr.kind));
}

void RdmaEndpoint::handle_put_packet(const net::Packet& pkt) {
  const auto it = regions_.find(pkt.msg->hdr.addr);
  assert(it != regions_.end() && "put to unregistered region");
  Region& region = it->second;

  const std::uint64_t place_at = pkt.msg->hdr.offset + pkt.offset;
  assert(place_at + pkt.bytes <= region.size && "put beyond region extent");
  if (!region.mem.empty() && pkt.msg->data != nullptr) {
    std::memcpy(region.mem.data() + place_at, pkt.msg->data + pkt.offset,
                pkt.bytes);
  }
  region.bytes_received += pkt.bytes;

  // Last-byte-poll cheat: fires as soon as the watched byte is written,
  // whether or not the rest of the payload has landed.
  for (std::size_t i = 0; i < region.polls.size();) {
    ArmedPoll& poll = region.polls[i];
    if (poll.index >= place_at && poll.index < place_at + pkt.bytes) {
      auto done = std::move(poll.done);
      const std::uint64_t watched = poll.index;
      region.polls.erase(region.polls.begin() + static_cast<long>(i));
      const std::uint64_t seen = region.bytes_received;
      if (seen < watched + 1) ins_.premature_flag_fires->inc();
      engine_.schedule(params_.flag_poll,
                       [done = std::move(done), seen, t = engine_.now()] {
                         done(t, seen);
                       });
    } else {
      ++i;
    }
  }

  const auto op = static_cast<Op>(net::op_of(pkt.msg->hdr.kind));
  if (op == kWriteImm) {
    ins_.puts_received->inc();
    Completion entry{pkt.src, pkt.msg->hdr.imm, pkt.msg->bytes, engine_.now()};
    engine_.schedule(nic_.params().pcie_latency,
                     [this, entry] { deliver_recv_completion(entry); });
    return;
  }

  // Track full-message arrival for the target-NIC put ack.
  const std::uint32_t arrived = ++put_arrived_[pkt.msg->id];
  if (arrived == pkt.total) {
    put_arrived_.erase(pkt.msg->id);
    ins_.puts_received->inc();
    net::Message ack;
    ack.dst = pkt.src;
    ack.bytes = params_.ctrl_bytes;
    ack.hdr.kind = kind_of(kPutAck);
    ack.hdr.src_pid = pid_;
    ack.hdr.dst_pid = pkt.msg->hdr.src_pid;
    ack.hdr.imm = pkt.msg->id;
    nic_.send(std::move(ack));
  }
}

void RdmaEndpoint::deliver_recv_completion(Completion entry) {
  if (!recv_waiters_.empty()) {
    auto done = std::move(recv_waiters_.front());
    recv_waiters_.pop_front();
    engine_.schedule(params_.cq_poll,
                     [entry, done = std::move(done)] { done(entry); });
    return;
  }
  recv_cq_.push_back(entry);
}

}  // namespace rvma::rdma
