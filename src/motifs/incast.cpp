#include "motifs/incast.hpp"

namespace rvma::motifs {

std::vector<RankProgram> build_incast(const IncastConfig& config) {
  std::vector<RankProgram> programs(config.ranks());

  // Server (rank 0): arm every client's whole stream upfront (a server
  // does not know arrival order), then drain. Upfront posting lets a
  // transport with pipelined receive resources (RVMA buckets, RDMA slot
  // depth) accept bursts without per-message coordination. Two blocks,
  // each one op per client repeated per message.
  RankProgram& server = programs[0];
  server.reserve(2 + 2 * static_cast<std::size_t>(config.clients));
  server.begin_loop(config.messages_per_client);
  for (int c = 1; c <= config.clients; ++c) {
    server.push_back({Op::Kind::kRecvPost, c, 0, config.bytes, 0});
  }
  server.end_loop();
  server.begin_loop(config.messages_per_client);
  for (int c = 1; c <= config.clients; ++c) {
    server.push_back({Op::Kind::kRecvWait, c, 0, config.bytes, 0});
  }
  server.end_loop();

  for (int c = 1; c <= config.clients; ++c) {
    RankProgram& client = programs[c];
    client.reserve(3);
    client.begin_loop(config.messages_per_client);
    client.push_back({Op::Kind::kCompute, -1, 0, 0, config.client_compute});
    client.push_back({Op::Kind::kSend, 0, 0, config.bytes, 0});
    client.end_loop();
  }
  return programs;
}

}  // namespace rvma::motifs
